package service

import (
	"fmt"

	"kset"
	"kset/internal/condition"
	"kset/internal/vector"
)

// JobSpec is the declarative wire form of one agreement job: everything a
// client must say to make ksetd build a kset.System, generate a scenario
// stream and run it as a campaign — or, with Sweep set, as a grid of
// campaigns. The spec is pure data (JSON all the way down), so it can be
// stored, diffed and replayed; Compile turns it into live objects and is
// where every field is validated. Compile errors wrap the package
// sentinels kset.ErrBadParams / kset.ErrDomainTooLarge / kset.ErrBadInput,
// which the HTTP layer maps to structured 400 bodies.
type JobSpec struct {
	// Tenant names the submitting tenant; the X-Tenant request header
	// overrides it and an empty value falls back to "default". Each
	// tenant gets its own bounded FIFO queue, scheduled round-robin.
	Tenant string `json:"tenant,omitempty"`
	// Label tags every scenario of the job; it surfaces in the
	// accumulator's per-label breakdown.
	Label string `json:"label,omitempty"`
	// Params fixes the problem instance (n, t, k, d, ℓ).
	Params ParamsSpec `json:"params"`
	// Condition instantiates the algorithms' condition; required for
	// every executor except "classical".
	Condition *ConditionSpec `json:"condition,omitempty"`
	// Executor selects the system's default algorithm: "figure2" (the
	// default), "early", "classical" or "async".
	Executor string `json:"executor,omitempty"`
	// Executors, when non-empty, crosses the scenario stream with the
	// listed executors instead of running a single default (mutually
	// exclusive with Executor).
	Executors []string `json:"executors,omitempty"`
	// Workers overrides the campaign worker count (0 = the daemon's
	// default). Statistics are worker-count-invariant either way.
	Workers int `json:"workers,omitempty"`
	// Verify checks every synchronous run against the k-set agreement
	// specification; violations surface in the job's stats.
	Verify bool `json:"verify,omitempty"`
	// Source generates the job's input scenarios.
	Source SourceSpec `json:"source"`
	// Failures crosses the source with a crash adversary.
	Failures *FailuresSpec `json:"failures,omitempty"`
	// Faults crosses the source with a link-fault plan or plan family
	// (loss, delay, duplication, reordering).
	Faults *FaultsSpec `json:"faults,omitempty"`
	// Sweep turns the job into a grid of campaigns instead of one; the
	// final result is then a keyed list of per-point stats.
	Sweep *SweepSpec `json:"sweep,omitempty"`
}

// ParamsSpec is the wire form of kset.Params.
type ParamsSpec struct {
	// N is the number of processes, T the crash bound, K the agreement
	// degree, D the condition degree and L the condition parameter ℓ.
	N int `json:"n"`
	T int `json:"t"`
	K int `json:"k"`
	D int `json:"d"`
	L int `json:"l"`
}

// params converts the wire form.
func (p ParamsSpec) params() kset.Params {
	return kset.Params{N: p.N, T: p.T, K: p.K, D: p.D, L: p.L}
}

// ConditionSpec describes the job's condition.
type ConditionSpec struct {
	// Kind selects the condition class: "max" (the (x,ℓ)-legal condition
	// generated by max_ℓ with x = t−d), "min" (its min_ℓ twin) or
	// "explicit" (the enumerated Vectors, recognized by max_ℓ).
	Kind string `json:"kind"`
	// M is the value-domain size (values 1..m, capped at 64).
	M int `json:"m"`
	// Vectors enumerates an explicit condition's members.
	Vectors [][]int `json:"vectors,omitempty"`
}

// SourceSpec describes the job's scenario stream.
type SourceSpec struct {
	// Kind selects the generator: "exhaustive" (every vector of
	// {1..m}^n), "random" (Count seeded uniform vectors), "members" (the
	// condition's member vectors) or "inputs" (the explicit Inputs list).
	Kind string `json:"kind"`
	// M is the value-domain size for "exhaustive" and "random" sources;
	// 0 falls back to the condition's m.
	M int `json:"m,omitempty"`
	// Seed drives the "random" source; the same seed replays the same
	// stream.
	Seed int64 `json:"seed,omitempty"`
	// Count is the number of vectors a "random" source yields.
	Count int `json:"count,omitempty"`
	// Inputs lists the vectors of an "inputs" source.
	Inputs [][]int `json:"inputs,omitempty"`
}

// FailuresSpec describes the crash adversary crossed with the source.
type FailuresSpec struct {
	// Kind selects the family: "initial" (the last f processes crash
	// before sending, f = 0..MaxF), "staggered" (containment-chain worst
	// cases, one per round-1 crash budget), "random" (Count seeded random
	// patterns) or "explicit" (the single pattern listed in Crashes).
	Kind string `json:"kind"`
	// MaxF bounds the "initial" family's crash count.
	MaxF int `json:"max_f,omitempty"`
	// Seed and Count drive the "random" family (Count at most 1024).
	Seed  int64 `json:"seed,omitempty"`
	Count int   `json:"count,omitempty"`
	// Crashes lists an "explicit" pattern's crash schedules.
	Crashes []CrashSpec `json:"crashes,omitempty"`
}

// CrashSpec is the wire form of one scheduled crash.
type CrashSpec struct {
	// ID is the crashing process (1-based); Round the round during whose
	// send phase it crashes; AfterSends how many deliveries precede the
	// crash.
	ID         int `json:"id"`
	Round      int `json:"round"`
	AfterSends int `json:"after_sends"`
}

// FaultsSpec describes the link-fault plans crossed with the source.
type FaultsSpec struct {
	// Kind selects the plan or family: "uniform" (one plan applying Loss
	// / DelayProb+MaxDelay to every link), "loss-sweep" (Size plans
	// ramping loss 0..Loss), "delay-sweep" (Size plans raising the delay
	// bound at DelayProb) or "storm" (Size plans scaling loss, delay,
	// duplication and reordering together to Intensity).
	Kind string `json:"kind"`
	// Seed drives the plans' random fault draws.
	Seed int64 `json:"seed,omitempty"`
	// Loss is the per-copy loss probability ("uniform") or its peak
	// ("loss-sweep").
	Loss float64 `json:"loss,omitempty"`
	// DelayProb is the per-copy delay probability; MaxDelay bounds the
	// deferral in rounds.
	DelayProb float64 `json:"delay_prob,omitempty"`
	MaxDelay  int     `json:"max_delay,omitempty"`
	// Size is the family size of the sweep kinds (at most 1024).
	Size int `json:"size,omitempty"`
	// Intensity is the "storm" family's peak intensity in [0, 1].
	Intensity float64 `json:"intensity,omitempty"`
}

// SweepSpec turns a job into a parameter grid.
type SweepSpec struct {
	// Kind selects the grid; "degrees" is the Section-5 hierarchy sweep,
	// one campaign per condition degree d = 0..t−ℓ.
	Kind string `json:"kind"`
	// M is the value-domain size of the per-degree conditions (0 falls
	// back to the condition spec's m).
	M int `json:"m,omitempty"`
}

// CompiledJob is a validated, executable JobSpec: either one System plus
// its scenario source (campaign mode) or a grid of sweep points (sweep
// mode). Compilation performs every check the run would — parameter
// ranges, condition dimensions, executor requirements, input vectors —
// so a CompiledJob's run can only fail through cancellation or per-run
// scenario errors.
type CompiledJob struct {
	// Spec echoes the compiled spec.
	Spec JobSpec

	sys    *kset.System
	src    kset.ScenarioSource
	points []kset.SweepPoint
	copts  []kset.CampaignOption
	total  int64
	sized  bool
}

// Sweep reports whether the job runs a sweep grid rather than a single
// campaign.
func (c *CompiledJob) Sweep() bool { return c.points != nil }

// TotalRuns returns the number of scenarios the job will execute, when
// the source's size is known without iterating.
func (c *CompiledJob) TotalRuns() (int64, bool) { return c.total, c.sized }

// options returns the campaign options of a run: the compiled defaults
// plus any extras (the job's progress handle, above all).
func (c *CompiledJob) options(extra []kset.CampaignOption) []kset.CampaignOption {
	opts := make([]kset.CampaignOption, 0, len(c.copts)+len(extra))
	opts = append(opts, c.copts...)
	opts = append(opts, extra...)
	return opts
}

// maxFamilySize bounds failures.count and faults.size. FailureSchedules and
// FaultSchedules build every pattern of the family inside Compile — in the
// POST handler, before the job is queued or cancellable — and each random
// crash pattern reseeds one shared generator, about 13 µs: count 10⁵ holds a
// POST for 1.3 s and allocates 23 MB (566 MB while each pattern seeded its
// own ~5 kB rand.Source, when count 10⁶ took 14 s and 5.4 GB). At the
// bound a random crash family compiles in 14 ms and 0.25 MB, a storm
// family in 0.1 ms.
const maxFamilySize = 1024

// maxProcesses bounds params.n at the wire plane's cap, one byte of process
// ID. Compile's work grows with n — a crash family is up to t < n patterns
// of up to t crashes; the initial family at n = 4000 took 3 s and 410 MB —
// and at the bound the largest family compiles in 34 ms.
const maxProcesses = 255

// badSpec wraps a spec-shape error (unknown kind, missing field,
// conflicting fields) in the ErrBadParams sentinel, so the HTTP layer's
// error table covers spec-shape and range errors alike.
func badSpec(format string, args ...any) error {
	return fmt.Errorf(format+": %w", append(args, kset.ErrBadParams)...)
}

// Compile validates the spec and builds its executable form. Every
// returned error wraps kset.ErrBadParams, kset.ErrDomainTooLarge or
// kset.ErrBadInput.
func Compile(spec JobSpec) (*CompiledJob, error) {
	c := &CompiledJob{Spec: spec}
	if spec.Executor != "" && len(spec.Executors) > 0 {
		return nil, badSpec("executor and executors are mutually exclusive")
	}
	if spec.Params.N > maxProcesses {
		return nil, badSpec("n=%d exceeds the %d processes a job may have", spec.Params.N, maxProcesses)
	}
	compile := c.compileCampaign
	if spec.Sweep != nil {
		compile = c.compileSweep
	}
	if err := compile(); err != nil {
		return nil, err
	}
	return c, nil
}

// compileCampaign builds the single-campaign form: the System first (its
// constructor concentrates parameter/condition/executor validation), then
// the scenario stream.
func (c *CompiledJob) compileCampaign() error {
	spec := &c.Spec
	p := spec.Params.params()
	cond, err := compileCondition(spec.Condition, p)
	if err != nil {
		return err
	}
	ex, err := executorByName(spec.Executor)
	if err != nil {
		return err
	}
	opts := []kset.Option{kset.WithParams(p), kset.WithExecutor(ex)}
	if cond != nil {
		opts = append(opts, kset.WithCondition(cond))
	}
	if spec.Workers > 0 {
		opts = append(opts, kset.WithWorkers(spec.Workers))
	}
	c.sys, err = kset.New(opts...)
	if err != nil {
		return err
	}
	execs, err := crossExecutors(spec.Executors, opts)
	if err != nil {
		return err
	}
	fps, err := compileFailures(spec.Failures, p)
	if err != nil {
		return err
	}
	src, err := compileSource(spec, p, cond, fps, execs)
	if err != nil {
		return err
	}
	c.src = src
	c.total, c.sized = src.Size()
	c.copts = campaignOptions(spec)
	return nil
}

// compileSweep builds the grid form: one point per condition degree,
// each with its own max_ℓ condition and scenario stream.
func (c *CompiledJob) compileSweep() error {
	spec := &c.Spec
	if spec.Sweep.Kind != "degrees" {
		return badSpec("unknown sweep kind %q (want \"degrees\")", spec.Sweep.Kind)
	}
	if spec.Condition != nil && spec.Condition.Kind != "max" {
		return badSpec("sweep %q builds max conditions; condition kind %q conflicts",
			spec.Sweep.Kind, spec.Condition.Kind)
	}
	m := spec.Sweep.M
	if m == 0 && spec.Condition != nil {
		m = spec.Condition.M
	}
	if m < 1 {
		return badSpec("sweep needs a value domain (sweep.m or condition.m)")
	}
	ex, err := executorByName(spec.Executor)
	if err != nil {
		return err
	}
	execs, err := crossExecutors(spec.Executors, nil)
	if err != nil {
		return err
	}
	// The points differ in d alone, which no crash family reads: one set of
	// patterns, built on parameters checked before RMax divides by k.
	p := spec.Params.params()
	p.D = 0
	if err := p.Validate(); err != nil {
		return err
	}
	fps, err := compileFailures(spec.Failures, p)
	if err != nil {
		return err
	}
	var srcErr error
	points, err := kset.SweepDegrees(p, m, func(pp kset.Params, cond *kset.MaxCondition) kset.ScenarioSource {
		src, err := compileSource(spec, pp, cond, fps, execs)
		if err != nil && srcErr == nil {
			srcErr = err
		}
		return src
	})
	if err != nil {
		return err
	}
	if srcErr != nil {
		return srcErr
	}
	for i := range points {
		if spec.Executor != "" {
			points[i].Options = append(points[i].Options, kset.WithExecutor(ex))
		}
		if spec.Workers > 0 {
			points[i].Options = append(points[i].Options, kset.WithWorkers(spec.Workers))
		}
	}
	c.points = points
	c.total, c.sized = 0, true
	for i := range points {
		n, ok := points[i].Source.Size()
		if !ok {
			c.total, c.sized = 0, false
			break
		}
		c.total += n
	}
	c.copts = campaignOptions(spec)
	return nil
}

// campaignOptions builds the campaign options a spec implies. The worker
// count is not one of them: the System (and every sweep point) carries
// spec.Workers as WithWorkers, which is what a campaign starts from.
func campaignOptions(spec *JobSpec) []kset.CampaignOption {
	if spec.Verify {
		return []kset.CampaignOption{kset.VerifyRuns()}
	}
	return nil
}

// executorByName resolves an executor name ("" = figure2).
func executorByName(name string) (kset.Executor, error) {
	switch name {
	case "", "figure2":
		return kset.Figure2, nil
	case "early":
		return kset.EarlyDeciding, nil
	case "classical":
		return kset.Classical, nil
	case "async":
		return kset.Asynchronous, nil
	}
	return nil, badSpec("unknown executor %q (want figure2, early, classical or async)", name)
}

// crossExecutors resolves the Executors cross-product list, validating
// each name and — when the base options of a campaign system are known —
// that each executor accepts the system's configuration, so a bad
// combination is a 400 at submission rather than a pile of per-run
// errors.
func crossExecutors(names []string, baseOpts []kset.Option) ([]kset.Executor, error) {
	if len(names) == 0 {
		return nil, nil
	}
	execs := make([]kset.Executor, len(names))
	for i, name := range names {
		ex, err := executorByName(name)
		if err != nil {
			return nil, err
		}
		if name == "" {
			return nil, badSpec("executors[%d] is empty", i)
		}
		execs[i] = ex
		if baseOpts != nil {
			probe := make([]kset.Option, 0, len(baseOpts)+1)
			probe = append(probe, baseOpts...)
			probe = append(probe, kset.WithExecutor(ex))
			if _, err := kset.New(probe...); err != nil {
				return nil, fmt.Errorf("executors[%d] %q: %w", i, name, err)
			}
		}
	}
	return execs, nil
}

// compileCondition builds the spec's condition (nil spec = no condition,
// valid only for the classical executor — kset.New enforces that).
func compileCondition(cs *ConditionSpec, p kset.Params) (kset.Condition, error) {
	if cs == nil {
		return nil, nil
	}
	switch cs.Kind {
	case "max":
		return kset.NewMaxCondition(p.N, cs.M, p.X(), p.L)
	case "min":
		return kset.NewMinCondition(p.N, cs.M, p.X(), p.L)
	case "explicit":
		ec, err := kset.NewExplicitCondition(p.N, cs.M, p.L)
		if err != nil {
			return nil, err
		}
		rec := condition.MaxL(p.L)
		for i, raw := range cs.Vectors {
			if err := ec.AddAuto(kset.VectorOf(raw...), rec); err != nil {
				return nil, badSpec("condition vector %d: %v", i, err)
			}
		}
		return ec, nil
	}
	return nil, badSpec("unknown condition kind %q (want max, min or explicit)", cs.Kind)
}

// compileSource builds the scenario stream: the base generator, then the
// crash, fault and executor cross products.
func compileSource(spec *JobSpec, p kset.Params, cond kset.Condition, fps []kset.FailurePattern, execs []kset.Executor) (kset.ScenarioSource, error) {
	m := spec.Source.M
	if m == 0 && spec.Condition != nil {
		m = spec.Condition.M
	}
	var src kset.ScenarioSource
	switch spec.Source.Kind {
	case "exhaustive":
		if err := sourceDomain("exhaustive", m); err != nil {
			return nil, err
		}
		src = kset.ExhaustiveInputs(p.N, m)
	case "random":
		if err := sourceDomain("random", m); err != nil {
			return nil, err
		}
		if spec.Source.Count < 1 {
			return nil, badSpec("random source needs count ≥ 1, got %d", spec.Source.Count)
		}
		src = kset.RandomInputs(spec.Source.Seed, p.N, m, spec.Source.Count)
	case "members":
		if cond == nil {
			return nil, badSpec("members source needs a condition")
		}
		src = kset.ConditionMembers(cond)
	case "inputs":
		inputs, err := compileInputs(spec.Source.Inputs, p.N, m)
		if err != nil {
			return nil, err
		}
		src = kset.Inputs(inputs...)
	default:
		return nil, badSpec("unknown source kind %q (want exhaustive, random, members or inputs)", spec.Source.Kind)
	}
	if spec.Label != "" {
		src = kset.Labeled(src, spec.Label)
	}
	if fps != nil {
		src = kset.CrossFailures(src, fps...)
	}
	src, err := applyFaults(src, spec.Faults)
	if err != nil {
		return nil, err
	}
	if len(execs) > 0 {
		src = kset.CrossExecutors(src, execs...)
	}
	return src, nil
}

// sourceDomain checks a generated source's value domain {1..m}, m being
// source.m or else condition.m: it must be non-empty, and within the
// 64-value cap that conditions and explicit inputs are held to: an input
// holding a value past it fails its run, so the job would be accepted
// only to fail run by run.
func sourceDomain(kind string, m int) error {
	if m < 1 {
		return badSpec("%s source needs a value domain (source.m or condition.m)", kind)
	}
	if m > int(vector.MaxSetValue) {
		return fmt.Errorf("%s source: m=%d exceeds the cap %d: %w", kind, m, vector.MaxSetValue, kset.ErrDomainTooLarge)
	}
	return nil
}

// compileInputs validates an explicit input list at submission time:
// wrong lengths, ⊥ entries and out-of-domain values are 400s wrapping
// ErrBadInput, not per-run campaign errors.
func compileInputs(raw [][]int, n, m int) ([]kset.Vector, error) {
	if len(raw) == 0 {
		return nil, badSpec("inputs source needs at least one vector")
	}
	maxV := int(vector.MaxSetValue)
	if m > 0 && m < maxV {
		maxV = m
	}
	inputs := make([]kset.Vector, len(raw))
	for i, vals := range raw {
		if len(vals) != n {
			return nil, fmt.Errorf("inputs[%d]: length %d, want n=%d: %w",
				i, len(vals), n, kset.ErrBadInput)
		}
		for j, v := range vals {
			if v < 1 || v > maxV {
				return nil, fmt.Errorf("inputs[%d][%d]: value %d outside 1..%d: %w",
					i, j, v, maxV, kset.ErrBadInput)
			}
		}
		inputs[i] = kset.VectorOf(vals...)
	}
	return inputs, nil
}

// compileFailures builds the patterns of the spec's crash adversary (nil
// spec: none), once per spec.
func compileFailures(fs *FailuresSpec, p kset.Params) ([]kset.FailurePattern, error) {
	if fs == nil {
		return nil, nil
	}
	var fam kset.FailureFamily
	switch fs.Kind {
	case "initial":
		if fs.MaxF < 0 || fs.MaxF > p.T {
			return nil, badSpec("initial failures: max_f %d outside 0..t=%d", fs.MaxF, p.T)
		}
		fam = kset.InitialCrashFamily(p.N, fs.MaxF)
	case "staggered":
		fam = kset.StaggeredCrashFamily(p.N, p.T, p.RMax())
	case "random":
		if fs.Count < 1 || fs.Count > maxFamilySize {
			return nil, badSpec("random failures need count in 1..%d, got %d", maxFamilySize, fs.Count)
		}
		fam = kset.RandomCrashFamily(fs.Seed, p.N, p.T, p.RMax(), fs.Count)
	case "explicit":
		specs := make([]kset.CrashSpec, len(fs.Crashes))
		for i, cr := range fs.Crashes {
			if cr.ID < 1 || cr.ID > p.N {
				return nil, badSpec("crashes[%d]: process %d outside 1..n=%d", i, cr.ID, p.N)
			}
			specs[i] = kset.CrashSpec{ID: kset.ProcessID(cr.ID), Round: cr.Round, AfterSends: cr.AfterSends}
		}
		return []kset.FailurePattern{kset.Crashes(specs...)}, nil
	default:
		return nil, badSpec("unknown failures kind %q (want initial, staggered, random or explicit)", fs.Kind)
	}
	return fam.Patterns(), nil
}

// applyFaults crosses the source with the spec's link-fault plans. The
// plans themselves are validated by the System when each scenario's run
// starts, but the family shapes are checked here so a malformed fault
// spec is a 400.
func applyFaults(src kset.ScenarioSource, fs *FaultsSpec) (kset.ScenarioSource, error) {
	if fs == nil {
		return src, nil
	}
	switch fs.Kind {
	case "uniform":
		if err := checkProb("faults.loss", fs.Loss); err != nil {
			return nil, err
		}
		if err := checkProb("faults.delay_prob", fs.DelayProb); err != nil {
			return nil, err
		}
		if fs.DelayProb > 0 && fs.MaxDelay < 1 {
			return nil, badSpec("faults.delay_prob needs max_delay ≥ 1")
		}
		plan := &kset.FaultPlan{Seed: fs.Seed, Default: kset.LinkFaults{
			Loss: fs.Loss, DelayProb: fs.DelayProb, MaxDelay: fs.MaxDelay,
		}}
		return kset.CrossFaults(src, plan), nil
	case "loss-sweep":
		if err := checkFamily(fs.Size, "faults.loss", fs.Loss); err != nil {
			return nil, err
		}
		return kset.FaultSchedules(src, kset.LossSweepFamily(fs.Seed, fs.Size, fs.Loss)), nil
	case "delay-sweep":
		if err := checkFamily(fs.Size, "faults.delay_prob", fs.DelayProb); err != nil {
			return nil, err
		}
		return kset.FaultSchedules(src, kset.DelaySweepFamily(fs.Seed, fs.Size, fs.DelayProb)), nil
	case "storm":
		if err := checkFamily(fs.Size, "faults.intensity", fs.Intensity); err != nil {
			return nil, err
		}
		if fs.MaxDelay < 1 {
			return nil, badSpec("storm faults need max_delay ≥ 1")
		}
		return kset.FaultSchedules(src, kset.StormFamily(fs.Seed, fs.Size, fs.MaxDelay, fs.Intensity)), nil
	}
	return nil, badSpec("unknown faults kind %q (want uniform, loss-sweep, delay-sweep or storm)", fs.Kind)
}

// checkProb validates one probability field.
func checkProb(name string, v float64) error {
	if v < 0 || v > 1 {
		return badSpec("%s %v outside [0, 1]", name, v)
	}
	return nil
}

// checkFamily validates a fault family's size and peak probability.
func checkFamily(size int, name string, peak float64) error {
	if size < 1 || size > maxFamilySize {
		return badSpec("fault family needs size in 1..%d, got %d", maxFamilySize, size)
	}
	return checkProb(name, peak)
}
