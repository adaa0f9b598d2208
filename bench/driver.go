package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// driver is the parent process: it spawns one child per pass, folds the
// children's records into metrics, checks them and prints the result.
type driver struct {
	seed     int64
	seconds  float64 // timed seconds per workload; 0 = the mode's default
	passes   int     // set by the mode
	traceOut string
	ref      *refServer // started by the first spawn
}

// stop ends the reference process, if one was started.
func (d *driver) stop() {
	if d.ref != nil {
		_ = d.ref.stop() // it has nothing left to report
		d.ref = nil
	}
}

const (
	// One workload at a time (the driver's form) has 30 s a run, set-up
	// and build included, so it makes 3 passes of 5 s; the suite makes 5.
	onePasses, oneSeconds     = 3, 15
	suitePasses, suiteSeconds = 5, 25
	// setupSamples is how many cold starts setup_s is the median of: the
	// passes plus enough set-up-only children to make nine. A sub-second
	// number repeats no other way.
	setupSamples = 9
	buildDir     = ".bench_build"
	childTimeout = 2 * time.Minute
)

// mode fixes the pass count and, unless -seconds gave one, the length.
func (d *driver) mode(passes int, seconds float64) {
	d.passes = passes
	if d.seconds <= 0 {
		d.seconds = seconds
	}
}

// opsPerPass scales the workload's nominal pass to this run's length.
func (d *driver) opsPerPass(w *workload) int {
	ops := int(math.Round(float64(w.opsPerPass) * d.seconds / float64(d.passes) / passSeconds))
	return max(ops, w.goldenOps)
}

// workloadRun is everything measured about one workload in one run.
type workloadRun struct {
	w       *workload
	ops     int
	passes  []*passRecord
	setups  []*passRecord // the passes and the set-up-only cold starts
	traced  *tracedRecord
	metrics map[string]float64 // the end-to-end metrics of the passes

	attempted, failed int
	problems          []string
}

func (r *workloadRun) problem(failedOps int, format string, args ...any) {
	r.failed += failedOps
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// spawn runs one child to completion and decodes the record it prints.
func (d *driver) spawn(w *workload, into any, args ...string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	if d.ref == nil {
		if d.ref, err = startRefServer(exe); err != nil {
			return err
		}
	}
	args = append([]string{"-child", "-workload", w.name, "-seed", strconv.FormatInt(d.seed, 10)}, args...)
	args = append(args, "-spawned", strconv.FormatInt(time.Now().UnixNano(), 10))
	// No child needs a fraction of this; one that hangs must not hang the
	// harness with it.
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(childGOMAXPROCS))
	cmd.ExtraFiles = []*os.File{d.ref.req, d.ref.rep} // descriptors 3 and 4: see refClient
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err = startPinned(cmd); err == nil {
		err = cmd.Wait()
	}
	if err != nil {
		return fmt.Errorf("%s child %v: %w", w.name, args, err)
	}
	return json.Unmarshal(out.Bytes(), into)
}

// measure makes the end-to-end passes of the given workloads, interleaved:
// pass 1 of every workload, then pass 2, and so on, so a slow spell of the
// machine lands on every workload's minority of passes instead of on one
// workload's all. The extra cold starts are spread between the rounds.
func (d *driver) measure(ws []*workload) ([]*workloadRun, error) {
	runs := make([]*workloadRun, len(ws))
	for i, w := range ws {
		runs[i] = &workloadRun{w: w, ops: d.opsPerPass(w)}
	}
	extras := max(setupSamples-d.passes, 0)
	for p := 0; p < d.passes; p++ {
		for _, r := range runs {
			rec := &passRecord{}
			if err := d.spawn(r.w, rec, "-pass", strconv.Itoa(p+1), "-ops", strconv.Itoa(r.ops)); err != nil {
				return nil, err
			}
			r.passes = append(r.passes, rec)
			r.setups = append(r.setups, rec)
		}
		for e := p; e < extras; e += d.passes {
			for _, r := range runs {
				rec := &passRecord{}
				if err := d.spawn(r.w, rec, "-setup-only"); err != nil {
					return nil, err
				}
				r.setups = append(r.setups, rec)
			}
		}
	}
	for _, r := range runs {
		r.check(d.seed)
		r.metrics = endToEndOf(r.passes, r.setups, r.attempted, r.failed)
	}
	return runs, nil
}

// check applies the parent's half of the correctness check: every pass
// ran the same ops to byte-identical stats, the exact tallies agree, and at
// the pinned seed the prefix matches golden.json. (The child checked
// errors, violations, run counts and the cross-plane references.)
func (r *workloadRun) check(seed int64) {
	first := r.passes[0]
	for _, p := range r.passes {
		r.attempted += p.Ops
		r.failed += p.Failed
		for _, f := range p.Failures {
			r.problems = append(r.problems, fmt.Sprintf("pass %d: %s", p.Pass, f))
		}
		if p.Ops < p.Planned {
			r.problems = append(r.problems, fmt.Sprintf("pass %d hit its deadline after %d of %d ops", p.Pass, p.Ops, p.Planned))
		}
		differ := 0
		for i := 0; i < min(len(p.Digests), len(first.Digests)); i++ {
			if p.Digests[i] != first.Digests[i] {
				differ++
			}
		}
		if differ > 0 {
			r.problem(differ, "pass %d: %d ops' stats differ from pass %d's", p.Pass, differ, first.Pass)
		}
		if p.Ops == first.Ops && p.Tally != first.Tally {
			r.problem(1, "pass %d: tallies %+v differ from pass %d's %+v", p.Pass, p.Tally, first.Pass, first.Tally)
		}
	}
	if v, ok := goldenFor(r.w.name, seed); ok {
		if got := vectorOf(first); got != v {
			r.problem(r.w.goldenOps, "golden mismatch at seed %d:\n  got  %+v\n  want %+v\n  (go run ./bench -update-golden re-pins it if the change is meant)", seed, got, v)
		}
	}
}

// one measures a single workload and ends with the driver's result line.
func (d *driver) one(name string, traced bool) error {
	w := workloadByName(name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	d.mode(onePasses, oneSeconds)
	rec := newRunRecord(d)
	var r *workloadRun
	if traced {
		r = &workloadRun{w: w, ops: d.opsPerPass(w)}
		if err := d.trace(r); err != nil {
			return err
		}
	} else {
		runs, err := d.measure([]*workload{w})
		if err != nil {
			return err
		}
		r = runs[0]
	}
	rec.add(r)
	printRun(os.Stdout, r, traced)
	if err := rec.print(); err != nil {
		return err
	}
	if traced {
		return printResult(os.Stdout, r, perLayer, r.traced.Layers)
	}
	return printResult(os.Stdout, r, endToEnd, r.metrics)
}

// trace makes the workload's traced run and checks it.
func (d *driver) trace(r *workloadRun) error {
	path := d.traceOut
	if path == "" {
		path = filepath.Join(buildDir, "trace-"+r.w.name+".json")
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	r.traced = &tracedRecord{}
	// A fifth of a pass, and no more ops than a decomposition needs (a
	// traced ksetd job costs twenty times the job in kernel samples).
	tracedOps := min(max(r.ops/5, 1), 48)
	if err := d.spawn(r.w, r.traced, "-trace", "1", "-ops", strconv.Itoa(tracedOps), "-trace-out", path); err != nil {
		return err
	}
	r.attempted += r.traced.Ops
	r.failed += r.traced.Failed
	for _, f := range r.traced.Failures {
		r.problems = append(r.problems, "traced run: "+f)
	}
	return nil
}

// suite measures all five workloads, then traces each.
func (d *driver) suite() error {
	d.mode(suitePasses, suiteSeconds)
	rec := newRunRecord(d)
	runs, err := d.measure(workloads)
	if err != nil {
		return err
	}
	failed := 0
	for _, r := range runs {
		printRun(os.Stdout, r, false)
		if err := d.trace(r); err != nil {
			return err
		}
		printRun(os.Stdout, r, true)
		rec.add(r)
		failed += r.failed
	}
	if err := rec.print(); err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("%d ops failed the correctness check", failed)
	}
	return nil
}

// selfcheck measures the suite twice on the same code and holds the
// differences against the bounds, and the exact counts to the digit: the
// benchmark's own noise test.
func (d *driver) selfcheck() error {
	d.mode(suitePasses, suiteSeconds)
	a, err := d.measure(workloads)
	if err != nil {
		return err
	}
	b, err := d.measure(workloads)
	if err != nil {
		return err
	}
	breaches := 0
	fmt.Printf("A/A self-check: seed %d, %d passes, %g s per workload, twice\n", d.seed, d.passes, d.seconds)
	fmt.Printf("%-12s %-20s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "worse by", "bound")
	for i := range a {
		for _, def := range endToEnd {
			x, y := a[i].metrics[def.name], b[i].metrics[def.name]
			worse := worseBy(def, x, y)
			mark := ""
			if math.Abs(worse) > def.bound || (def.exact && x != y) {
				mark = "  BREACH"
				breaches++
			}
			fmt.Printf("%-12s %-20s %14.6g %14.6g %+8.2f%% %6.1f%%%s\n", a[i].w.name, def.name, x, y, 100*worse, 100*def.bound, mark)
		}
		if f := a[i].failed + b[i].failed; f > 0 {
			fmt.Printf("%-12s %d ops failed the correctness check\n", a[i].w.name, f)
			breaches++
		}
	}
	if breaches > 0 {
		return fmt.Errorf("self-check: %d breaches", breaches)
	}
	return nil
}

// worseBy is how much worse y is than x, as a share of x, in the metric's
// own direction (negative: better).
func worseBy(def metricDef, x, y float64) float64 {
	if x == 0 {
		return 0
	}
	if def.better == "higher" {
		return (x - y) / x
	}
	return (y - x) / x
}

// printRun prints a workload's metrics by name with their units: the
// per-layer ones of its traced run, or the end-to-end ones of its passes
// followed by the driver's diagnostics.
func printRun(out *os.File, r *workloadRun, traced bool) {
	defs, values := endToEnd, r.metrics
	if traced {
		defs, values = perLayer, r.traced.Layers
		fmt.Fprintf(out, "%s — per layer, traced run of %d ops, GOMAXPROCS=%d\n", r.w.name, r.traced.Ops, childGOMAXPROCS)
	} else {
		fmt.Fprintf(out, "%s — end to end, GOMAXPROCS=%d, %d clients, %d ops/pass x %d passes\n", r.w.name, childGOMAXPROCS, r.w.clients, r.ops, len(r.passes))
	}
	for _, def := range defs {
		note := ""
		if def.name == "op_p50_ms" {
			note = fmt.Sprintf(" (%d ops pooled)", r.attempted)
		}
		fmt.Fprintf(out, "  %-36s %14.6g %s%s\n", def.name, values[def.name], def.unit, note)
	}
	if !traced {
		// Diagnostics: they explain a noisy run and are never a claim.
		var rate, rawRate, lat, rawLat, ref, steal, gap []float64
		for _, p := range r.passes {
			rate = append(rate, p.runsPerS())
			rawRate = append(rawRate, ratio(float64(p.Tally.Runs), p.TimedS))
			lat = append(lat, p.OpRefMS...)
			rawLat = append(rawLat, p.OpMS...)
			ref, steal, gap = append(ref, p.RefKernelMS), append(steal, p.StealShare), append(gap, p.GapS)
		}
		for _, d := range []struct {
			name  string
			value float64
			unit  string
		}{
			{"driver.op_p95_ms", quantile(lat, 0.95), "ms"},
			{"driver.pass_spread", passSpread(rate), "ratio"},
			{"driver.raw_runs_per_s", median(rawRate), "1/s"},
			{"driver.raw_op_p50_ms", median(rawLat), "ms"},
			{"driver.ref_kernel_ms", median(ref), "ms"},
			{"driver.steal_share", quantile(steal, 1), "ratio"},
			{"driver.gap_s", median(gap), "s"},
		} {
			fmt.Fprintf(out, "  %-36s %14.6g %s\n", d.name, d.value, d.unit)
		}
	}
	for _, p := range r.problems {
		fmt.Fprintf(out, "  FAILED: %s\n", p)
	}
}

// passSpread is (max-min)/median of the per-pass rates.
func passSpread(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return ratio(quantile(v, 1)-quantile(v, 0), median(v))
}

// printResult prints the driver's result: one JSON object, last line.
func printResult(out *os.File, r *workloadRun, defs []metricDef, values map[string]float64) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: r.failed == 0 && r.attempted > 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]value{}}
	for _, def := range defs {
		v, ok := values[def.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: metric %s was not measured", r.w.name, def.name)
		}
		res.Metrics[def.name] = value{v, def.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// runRecord is the run's full JSON record: what was measured, on what, and
// every pass's raw values, so a slow spell is visible in the record
// instead of looking like a regression.
type runRecord struct {
	Commit    string           `json:"commit"`
	GoVersion string           `json:"go_version"`
	NProc     int              `json:"nproc"`
	Kernel    string           `json:"kernel"`
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds_per_workload"`
	Passes    int              `json:"passes"`
	Workloads []workloadRecord `json:"workloads"`
}

type workloadRecord struct {
	Name       string             `json:"name"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Clients    int                `json:"clients"`
	OpsPerPass int                `json:"ops_per_pass"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Problems   []string           `json:"problems,omitempty"`
	EndToEnd   map[string]float64 `json:"end_to_end,omitempty"`
	PerLayer   map[string]float64 `json:"per_layer,omitempty"`
	SetupS     []float64          `json:"setup_s_samples,omitempty"`
	Passes     []passSummary      `json:"passes,omitempty"`
}

// passSummary is one pass's own values: times at reference speed and, for
// the two a reader checks first, as measured.
type passSummary struct {
	Pass          int     `json:"pass"`
	Ops           int     `json:"ops"`
	SetupS        float64 `json:"setup_s"`
	RunsPerS      float64 `json:"runs_per_s"`
	RawRunsPerS   float64 `json:"raw_runs_per_s"`
	OpP50MS       float64 `json:"op_p50_ms"`
	RawOpP50MS    float64 `json:"raw_op_p50_ms"`
	OpP95MS       float64 `json:"op_p95_ms"`
	CPUUSPerRun   float64 `json:"cpu_us_per_run"`
	AllocsPerRun  float64 `json:"allocs_per_run"`
	AllocBPerRun  float64 `json:"alloc_bytes_per_run"`
	PeakRSSMB     float64 `json:"peak_rss_mb"`
	RefKernelMS   float64 `json:"driver.ref_kernel_ms"`
	StealShare    float64 `json:"driver.steal_share"`
	GapS          float64 `json:"driver.gap_s"`
	GoldenSHA256  string  `json:"golden_sha256"`
	Tally         tally   `json:"tally"`
	FailedOps     int     `json:"failed"`
	DeadlineCutAt int     `json:"deadline_cut_at,omitempty"` // ops done when the pass hit its deadline
}

func newRunRecord(d *driver) *runRecord {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	return &runRecord{
		Commit: commit(), GoVersion: runtime.Version(), NProc: runtime.NumCPU(),
		Kernel: strings.TrimSpace(string(kernel)), Seed: d.seed, Seconds: d.seconds, Passes: d.passes,
	}
}

// commit names the code under test: the binary's VCS stamp, else git's
// HEAD, else "unknown" (the driver's checkout is not a repository).
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return string(bytes.TrimSpace(out))
	}
	return "unknown"
}

func (rec *runRecord) add(r *workloadRun) {
	wr := workloadRecord{
		Name: r.w.name, GOMAXPROCS: childGOMAXPROCS, Clients: r.w.clients, OpsPerPass: r.ops,
		Attempted: r.attempted, Failed: r.failed, Problems: r.problems,
	}
	wr.EndToEnd = r.metrics
	if r.traced != nil {
		wr.PerLayer = r.traced.Layers
	}
	for _, s := range r.setups {
		wr.SetupS = append(wr.SetupS, s.SetupRefS)
	}
	for _, p := range r.passes {
		runs := float64(p.Tally.Runs)
		ps := passSummary{
			Pass: p.Pass, Ops: p.Ops, SetupS: p.SetupRefS,
			RunsPerS: p.runsPerS(), RawRunsPerS: ratio(runs, p.TimedS),
			OpP50MS: median(p.OpRefMS), RawOpP50MS: median(p.OpMS), OpP95MS: quantile(p.OpRefMS, 0.95),
			CPUUSPerRun: p.cpuUSPerRun(), AllocsPerRun: ratio(float64(p.Mallocs), runs), AllocBPerRun: ratio(float64(p.AllocB), runs),
			PeakRSSMB: float64(p.PeakRSSKB) / 1024, RefKernelMS: p.RefKernelMS, StealShare: p.StealShare, GapS: p.GapS,
			GoldenSHA256: p.GoldenSHA, Tally: p.Tally, FailedOps: p.Failed,
		}
		if p.Ops < p.Planned {
			ps.DeadlineCutAt = p.Ops
		}
		wr.Passes = append(wr.Passes, ps)
	}
	rec.Workloads = append(rec.Workloads, wr)
}

// print writes the record as one "record:" line.
func (rec *runRecord) print() error {
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	_, err = fmt.Printf("record: %s\n", data)
	return err
}
