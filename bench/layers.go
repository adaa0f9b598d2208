package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"

	"kset"
	"kset/internal/async"
	"kset/internal/condition"
	"kset/internal/core"
	"kset/internal/experiments"
	"kset/internal/faultnet"
	"kset/internal/rounds"
	"kset/internal/service"
	"kset/internal/stats"
	"kset/internal/vector"
	"kset/internal/wire"
)

// tracedRecord is what the traced child measured: the workload's own op
// taken apart layer by layer, and every layer's kernel at the workload's
// shape (n, t, k, d, l, m).
type tracedRecord struct {
	Workload string             `json:"workload"`
	Ops      int                `json:"ops"`
	Failed   int                `json:"failed"`
	Failures []string           `json:"failures,omitempty"`
	Layers   map[string]float64 `json:"layers"`
	Spans    int                `json:"spans"`
	// TracedRunsPerOp is how many runs of each op were traced (all of
	// them, outside the smoke test); it turns stats.join_us_per_op into
	// the per-run row.
	TracedRunsPerOp float64 `json:"traced_runs_per_op"`
}

func (t *tracedRecord) fail(format string, args ...any) {
	t.Failed++
	if len(t.Failures) < maxFailuresKept {
		t.Failures = append(t.Failures, fmt.Sprintf(format, args...))
	}
}

// runTraced is the traced child. Part one takes the workload's op apart:
// the op runs under a span, then the work it did is replayed from outside
// through each layer's public functions — generate the scenarios, execute
// them, observe the results, join and encode the stats — each replay a
// child span of the op. What the children do not account for is the op's
// self time (campaign.self_us_per_run): queueing, dispatch, per-run
// set-up, and on ksetd_jobs the whole service plane. Part two runs every
// layer's kernel on inputs of the workload's shape.
func runTraced(cfg childConfig, tracePath string) (*tracedRecord, error) {
	w := workloadByName(cfg.workload)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	inst, err := w.open(cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	if inst.close != nil {
		defer inst.close()
	}
	t := &traced{
		w: w, inst: inst, seed: cfg.seed, tr: newTracer(), refc: cfg.ref,
		rec:    &tracedRecord{Workload: w.name, Layers: map[string]float64{}},
		runner: core.NewRunner(), arun: async.NewRunner(), ft: &faultnet.Transport{},
		pieces: w.tracePieces, reps: kernelReps, kernelSpan: kernelSpan, inputs: shapeInputs, jobs: serviceJobs,
	}
	if cfg.quick {
		t.pieces, t.reps, t.kernelSpan, t.inputs, t.jobs = 1, 1, 0, 16, 16
	}
	defer t.closeUDP()
	steal0, total0 := procStatCPU()

	if err := t.takeOpApart(max(cfg.ops, 1)); err != nil {
		return nil, err
	}
	if err := t.campaignFeeds(); err != nil {
		return nil, err
	}
	if err := t.kernels(); err != nil {
		return nil, err
	}
	if err := t.serviceKernel(); err != nil {
		return nil, err
	}
	if w.verify {
		t.verifyOnce()
	}

	steal1, total1 := procStatCPU()
	L := t.rec.Layers
	L["driver.ref_kernel_ms"] = median(t.ref)
	L["driver.steal_share"] = ratio(float64(steal1-steal0), float64(total1-total0))
	L["driver.gap_s"] = t.gap.Seconds()
	t.rec.Spans = len(t.tr.spans)
	if tracePath != "" {
		if err := t.tr.write(tracePath, w.name, cfg.seed); err != nil {
			return nil, err
		}
	}
	return t.rec, nil
}

// traced is the traced child's state.
type traced struct {
	w    *workload
	inst *instance
	seed int64
	tr   *tracer
	rec  *tracedRecord

	// One of each executor-side resource, as a campaign worker owns them.
	runner *core.Runner
	arun   *async.Runner
	aout   async.Outcome
	acp    []async.CrashPoint
	ft     *faultnet.Transport
	udp    *wire.Loopback
	res    rounds.Result
	kept   []rounds.Result // Results kept alive for the observe replay

	lastAcc *stats.Accumulator // the last replayed op's accumulator: the checkpoint kernels' payload
	gap     time.Duration      // untimed work between spans

	// ref holds every sample of the reference kernel (wall time) taken
	// through refc; the last one is reused as the next span's "before"
	// while it is fresh.
	refc  *refClient
	ref   []float64
	refAt time.Time

	err error // the first kernel failure (see layer)

	// How much the traced run does; the smoke test turns them all down.
	pieces     int           // pieces of each op traced and replayed, from the first
	reps       int           // repetitions of a kernel
	kernelSpan time.Duration // what one repetition should last
	inputs     int           // input vectors in the shape batch
	jobs       int           // jobs the service kernel submits
}

// refNow returns a sample of the reference kernel no older than a
// millisecond.
func (t *traced) refNow() float64 {
	if len(t.ref) == 0 || time.Since(t.refAt) > time.Millisecond {
		t.ref = append(t.ref, t.refc.sample().WallMS)
		t.refAt = time.Now()
	}
	return t.ref[len(t.ref)-1]
}

// span runs f under a span and returns its duration in seconds at
// reference speed: scaled by what the reference kernel took just before
// and just after (see refKernel). Every time the traced run reports goes
// through here, so its rows compare with each other and with the
// end-to-end metrics. The heap is collected first, so that every span
// starts alike and pays only for the collections its own garbage starts.
func (t *traced) span(name string, parent, op int, f func() error) (float64, error) {
	before := t.refNow()
	runtime.GC()
	id := t.tr.begin(name, parent, op)
	err := f()
	d := t.tr.end(id)
	gcDrain()
	t.ref = append(t.ref, t.refc.sample().WallMS)
	t.refAt = time.Now()
	if err != nil {
		return 0, fmt.Errorf("%s: %w", name, err)
	}
	return d.Seconds() * refNominalMS / ((before + t.ref[len(t.ref)-1]) / 2), nil
}

// timed repeats f under spans and returns the median repetition, in
// seconds at reference speed. prep, when non-nil, runs before each
// repetition, outside its span.
func (t *traced) timed(name string, reps int, prep, f func() error) (float64, error) {
	v := make([]float64, 0, reps)
	for r := 0; r < reps; r++ {
		if prep != nil {
			g0 := time.Now()
			if err := prep(); err != nil {
				return 0, fmt.Errorf("%s: %w", name, err)
			}
			t.gap += time.Since(g0)
		}
		d, err := t.span(name, 0, -1, f)
		if err != nil {
			return 0, err
		}
		v = append(v, d)
	}
	return median(v), nil
}

func (t *traced) loopback(n int) (*wire.Loopback, error) {
	if t.udp == nil {
		lb, err := wire.NewLoopback(wire.LoopbackConfig{}, n)
		if err != nil {
			return nil, err
		}
		t.udp = lb
	}
	return t.udp, nil
}

func (t *traced) closeUDP() {
	if t.udp != nil {
		t.udp.Close()
	}
}

// An executor kind, resolved once per scenario outside the spans.
type execKind uint8

const (
	execFigure2 execKind = iota
	execEarly
	execClassical
	execAsync
)

func kindOf(sys *kset.System, sc *kset.Scenario) (execKind, string, error) {
	ex := sys.Executor()
	if sc.Executor != nil {
		ex = sc.Executor
	}
	for k, name := range []string{"figure2", "early", "classical", "async"} {
		if ex.Name() == name {
			return execKind(k), name, nil
		}
	}
	return 0, "", fmt.Errorf("unknown executor %q", ex.Name())
}

// plane names the layer that executes a scenario; the replay's child
// spans carry it.
func (t *traced) plane(kind execKind, sc *kset.Scenario) string {
	switch {
	case kind == execAsync:
		return "async.run"
	case sc.Faults != nil:
		return "faultnet.run"
	case t.inst.udp:
		return "wire.run"
	}
	return "core.run"
}

// execute runs one scenario the way a campaign worker's executor does,
// through the layer's own entry point, into res.
func (t *traced) execute(sys *kset.System, kind execKind, sc *kset.Scenario, idx int, res *rounds.Result) error {
	p, cond := sys.Params(), sys.Condition()
	var tr rounds.Transport
	switch {
	case kind == execAsync:
		return t.arun.RunInto(async.Config{X: p.X(), Cond: cond, Input: sc.Input, CrashPoints: t.crashPoints(p.N, sc.FP), Seed: sc.Seed}, &t.aout)
	case sc.Faults != nil:
		if err := t.ft.SetPlan(sc.Faults, p.N); err != nil {
			return err
		}
		// Any per-scenario seed draws the same distribution of faults;
		// the facade's own mix is not exported.
		t.ft.Reseed(uint64(sc.Faults.Seed)*0x9E3779B97F4A7C15 + uint64(idx))
		tr = t.ft
	case t.inst.udp:
		lb, err := t.loopback(p.N)
		if err != nil {
			return err
		}
		tr = lb
	}
	var err error
	switch kind {
	case execFigure2:
		_, err = t.runner.RunCond(p, cond, sc.Input, sc.FP, false, tr, nil, res)
	case execEarly:
		_, err = t.runner.RunEarly(p, cond, sc.Input, sc.FP, false, tr, nil, res)
	case execClassical:
		_, err = t.runner.RunClassical(p.N, p.T, p.K, sc.Input, sc.FP, false, tr, nil, res)
	}
	return err
}

// crashPoints maps a synchronous failure pattern to asynchronous crash
// points as the facade does: a round-1 crash before any send never writes.
func (t *traced) crashPoints(n int, fp kset.FailurePattern) []async.CrashPoint {
	if cap(t.acp) < n {
		t.acp = make([]async.CrashPoint, n)
	}
	cp := t.acp[:n]
	for i := range cp {
		cp[i] = async.NoCrash
	}
	for id, cr := range fp.Crashes {
		if cr.Round == 1 && cr.AfterSends == 0 {
			cp[id-1] = async.CrashBeforeWrite
		} else {
			cp[id-1] = async.CrashAfterWrite
		}
	}
	return cp
}

// asyncResult renders the last asynchronous outcome as a Result, as the
// facade does before observing it.
func (t *traced) asyncResult(n int, res *rounds.Result) {
	res.Reset()
	for id := 1; id <= n; id++ {
		if v, ok := t.aout.Decision(id); ok {
			res.Decisions[rounds.ProcessID(id)] = v
		}
	}
	for i, c := range t.acp[:n] {
		if c != async.NoCrash {
			res.Crashed[rounds.ProcessID(i+1)] = true
		}
	}
}

// opParts is one traced op's decomposition, in seconds.
type opParts struct {
	op, untraced, generate, exec, observe, join float64
	genAllocs, jsonBytes                        float64
	runs                                        float64
}

// takeOpApart traces ops of the workload and replays their children.
func (t *traced) takeOpApart(ops int) error {
	var parts []opParts
	for i := 0; i < ops; i++ {
		p, err := t.traceOp(i)
		if err != nil {
			return err
		}
		parts = append(parts, p)
	}
	t.rec.Ops = ops
	t.rec.TracedRunsPerOp = parts[0].runs
	med := func(f func(opParts) float64) float64 {
		v := make([]float64, len(parts))
		for i, p := range parts {
			v[i] = f(p)
		}
		return median(v)
	}
	L := t.rec.Layers
	// Every row is per run of the op, so the rows add up: generate +
	// exec + observe + join + self = op.
	L["campaign.op_us_per_run"] = med(func(p opParts) float64 { return p.op * 1e6 / p.runs })
	L["generate.ns_per_scenario"] = med(func(p opParts) float64 { return p.generate * 1e9 / p.runs })
	L["generate.allocs_per_scenario"] = med(func(p opParts) float64 { return p.genAllocs / p.runs })
	L["campaign.exec_us_per_run"] = med(func(p opParts) float64 { return p.exec * 1e6 / p.runs })
	L["stats.observe_ns_per_run"] = med(func(p opParts) float64 { return p.observe * 1e9 / p.runs })
	L["stats.join_us_per_op"] = med(func(p opParts) float64 { return p.join * 1e6 })
	L["stats.json_bytes_per_op"] = med(func(p opParts) float64 { return p.jsonBytes })
	// The residual is taken from the printed rows, so that they add up
	// exactly; a median of per-op residuals would not.
	L["campaign.self_us_per_run"] = L["campaign.op_us_per_run"] - L["generate.ns_per_scenario"]/1e3 - L["campaign.exec_us_per_run"] -
		L["stats.observe_ns_per_run"]/1e3 - L["stats.join_us_per_op"]/parts[0].runs
	L["driver.trace_overhead_share"] = med(func(p opParts) float64 { return p.op/p.untraced - 1 })
	return nil
}

// traceOp takes op i apart, piece by piece: a span as long as the whole
// op would see the machine's speed change under it, a 25 ms piece does
// not. Each piece runs as an op of its own (untraced, then traced; the
// difference is what tracing costs) and is then replayed as the op's
// children.
func (t *traced) traceOp(i int) (opParts, error) {
	inst := t.inst
	sys, src := inst.scenarios(i)
	total, sized := src.Size()
	if !sized {
		return opParts{}, fmt.Errorf("%s: op %d's source has no size", t.w.name, i)
	}
	var parts opParts
	replayed, fromOps := stats.NewAccumulator(), stats.NewAccumulator()
	var opID int
	for k := 0; k < t.pieces; k++ {
		pieces := int64(t.w.tracePieces)
		piece := kset.Range(src, total*int64(k)/pieces, total*int64(k+1)/pieces)
		g0 := time.Now()
		batch := materialise(piece, nil)
		kinds := make([]execKind, len(batch))
		names := make([]string, len(batch))
		for j := range batch {
			var err error
			if kinds[j], names[j], err = kindOf(sys, &batch[j]); err != nil {
				return opParts{}, err
			}
		}
		parts.runs += float64(len(batch))
		t.gap += time.Since(g0)

		var out opOut
		runOp := func() (err error) {
			out, err = inst.op(i)
			return err
		}
		// Untraced first on even pieces, traced first on odd ones, so
		// that going second favours neither.
		for _, traced := range [2]bool{k%2 == 1, k%2 == 0} {
			if inst.load != nil {
				inst.load(piece)
			}
			var d float64
			var err error
			if traced {
				d, err = t.span("op", 0, i, runOp)
				opID = len(t.tr.spans)
				parts.op += d
			} else {
				d, err = t.span("op.untraced", 0, -1, runOp)
				parts.untraced += d
			}
			if err != nil {
				return opParts{}, fmt.Errorf("%s: op %d: %w", t.w.name, i, err)
			}
		}
		if out.st.Errors != 0 || out.st.Runs != int64(len(batch)) {
			t.rec.fail("op %d: %d errors over %d runs, want 0 over %d", i, out.st.Errors, out.st.Runs, len(batch))
		}
		fromOps.Merge(out.st.Metrics)

		// generate: the scenario stream alone, into a yield that drops it
		// — once under the span, once more between spans to count its
		// allocations (reading them stops the world).
		n := 0
		drop := func() { piece.ForEach(func(kset.Scenario) bool { n++; return true }) }
		d, err := t.span("generate", opID, i, func() error { drop(); return nil })
		if err != nil {
			return opParts{}, err
		}
		parts.generate += d
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		drop()
		runtime.ReadMemStats(&ms1)
		parts.genAllocs += float64(ms1.Mallocs - ms0.Mallocs)
		if n != 2*len(batch) {
			t.rec.fail("op %d: the source yielded %d scenarios, then %d over two more passes", i, len(batch), n)
		}

		// execute and observe, one plane at a time.
		for lo := 0; lo < len(batch); {
			plane := t.plane(kinds[lo], &batch[lo])
			hi := lo + 1
			for hi < len(batch) && t.plane(kinds[hi], &batch[hi]) == plane {
				hi++
			}
			exec, observe, err := t.replay(sys, batch[lo:hi], kinds[lo:hi], names[lo:hi], lo, plane, opID, i, replayed)
			if err != nil {
				return opParts{}, fmt.Errorf("%s: replaying op %d: %w", t.w.name, i, err)
			}
			parts.exec += exec
			parts.observe += observe
			lo = hi
		}
	}

	// join: fold the worker's shard and encode the stats.
	var raw []byte
	merged := stats.NewAccumulator()
	var err error
	if parts.join, err = t.span("stats.join", opID, i, func() (err error) {
		merged.Merge(replayed)
		raw, err = json.Marshal(kset.CampaignStatsOf(merged))
		return err
	}); err != nil {
		return opParts{}, err
	}
	parts.jsonBytes = float64(len(raw))
	t.lastAcc = merged

	// The replay did the op's work if it got the op's answer. Fault draws
	// are seeded differently (see execute), so faulty ops are exempt.
	if want, err := json.Marshal(kset.CampaignStatsOf(fromOps)); err != nil {
		t.rec.fail("op %d: %v", i, err)
	} else if merged.Faults == nil && !bytes.Equal(raw, want) {
		t.rec.fail("op %d: the replayed layers' stats differ from the op's", i)
	}
	return parts, nil
}

// replay executes the scenarios under a span of their plane, executes
// them again keeping every Result, then observes the kept Results under a
// stats.observe span. Two executions cost time only in the traced run and
// keep each span free of the other's work.
func (t *traced) replay(sys *kset.System, scs []kset.Scenario, kinds []execKind, names []string, base int, plane string, parent, op int, acc *stats.Accumulator) (exec, observe float64, err error) {
	if exec, err = t.span(plane, parent, op, func() error {
		for j := range scs {
			if err := t.execute(sys, kinds[j], &scs[j], base+j, &t.res); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return 0, 0, err
	}

	g0 := time.Now()
	for len(t.kept) < len(scs) {
		t.kept = append(t.kept, rounds.Result{})
	}
	n := sys.Params().N
	for j := range scs {
		if err := t.execute(sys, kinds[j], &scs[j], base+j, &t.kept[j]); err != nil {
			return 0, 0, err
		}
		if kinds[j] == execAsync {
			t.asyncResult(n, &t.kept[j])
		}
	}
	t.gap += time.Since(g0)

	cond := sys.Condition()
	observe, err = t.span("stats.observe", parent, op, func() error {
		for j := range scs {
			sc, res := &scs[j], &t.kept[j]
			o := core.Observe(res)
			o.InCondition = cond != nil && cond.Contains(sc.Input)
			if u := len(sc.Input) - len(res.Decisions) - len(res.Crashed); u > 0 {
				o.Undecided = u
			}
			o.Executor = names[j]
			o.Label = sc.Label
			acc.Observe(o)
		}
		return nil
	})
	return exec, observe, err
}

// kernelReps is how often a layer kernel's batch is repeated.
const kernelReps = 5

// kernelSpan is how long one repetition of a layer kernel should last:
// long enough that the reference kernel's samples around it describe it.
const kernelSpan = 20 * time.Millisecond

// layer measures one layer kernel and files it under the metric's name:
// an untimed call of f warms it and says how many sweeps fill kernelSpan,
// then reps repetitions of that many sweeps are timed (see timed) and
// their median, times scale, is one sweep's value. After a failure layer
// does nothing, so a string of kernels needs one error check at its end
// (t.err).
func (t *traced) layer(metric string, scale float64, reps int, f func() error) {
	t.layerPrep(metric, scale, reps, nil, f)
}

// layerPrep is layer for a kernel whose sweeps consume something built
// beforehand: prep(n) runs outside the span before n sweeps of f.
func (t *traced) layerPrep(metric string, scale float64, reps int, prep func(sweeps int) error, f func() error) {
	if t.err != nil {
		return
	}
	prepFor := func(sweeps int) func() error {
		if prep == nil {
			return nil
		}
		return func() error { return prep(sweeps) }
	}
	if prep != nil {
		if t.err = prep(1); t.err != nil {
			return
		}
	}
	g0 := time.Now()
	if t.err = f(); t.err != nil {
		return
	}
	once := time.Since(g0)
	t.gap += once
	sweeps := min(max(int(t.kernelSpan/(once+1)), 1), 1024)
	d, err := t.timed(metric, reps, prepFor(sweeps), func() error {
		for s := 0; s < sweeps; s++ {
			if err := f(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.err = err
		return
	}
	t.rec.Layers[metric] = d * scale / float64(sweeps)
}

// campaignFeeds prices the campaign's three feed modes, its hand-off and
// its checkpointing on the first piece of op 0's scenarios.
func (t *traced) campaignFeeds() error {
	sys, src := t.inst.scenarios(0)
	total, _ := src.Size()
	src = kset.Range(src, 0, total/int64(t.w.tracePieces)) // a piece, as in traceOp
	batch := materialise(src, nil)
	perRunUS := 1e6 / float64(len(batch))
	ctx := context.Background()
	runSource := func() error {
		_, err := sys.RunSource(ctx, src)
		return err
	}

	// The same generator-fed op with two Ps: generator and worker on
	// different threads, which is what the hand-off costs.
	prev := runtime.GOMAXPROCS(2)
	t.layer("campaign.us_per_run_p2", perRunUS, t.reps, runSource)
	runtime.GOMAXPROCS(prev)

	t.layer("campaign.source_us_per_run", perRunUS, t.reps, runSource)
	t.layer("campaign.slice_us_per_run", perRunUS, t.reps, func() error {
		_, err := sys.RunCampaign(ctx, batch)
		return err
	})
	t.layer("campaign.submit_us_per_run", perRunUS, t.reps, func() error {
		c := sys.NewCampaign(ctx)
		if err := c.SubmitAll(batch); err != nil {
			return err
		}
		_, err := c.Wait()
		return err
	})
	t.layer("shard.checkpointed_us_per_run", perRunUS, t.reps, func() error {
		_, err := sys.RunCheckpointed(ctx, src, nil, checkpointEvery, func(cp kset.Checkpoint) error {
			_, err := kset.EncodeCheckpoint(cp)
			return err
		})
		return err
	})
	L := t.rec.Layers
	if t.err == nil {
		L["shard.ckpt_share"] = 1 - L["campaign.source_us_per_run"]/L["shard.checkpointed_us_per_run"]
	}
	return t.err
}

// shapeBatch is the kernels' input at the workload's shape: 256 seeded
// inputs, each under 4 seeded crash patterns.
type shapeBatch struct {
	p      kset.Params
	m      int
	cond   kset.Condition
	inputs []kset.Vector
	fps    []kset.FailurePattern // at most t crashes
	xfps   []kset.FailurePattern // at most x crashes: what the async executor tolerates
}

const (
	shapeInputs   = 256
	shapePatterns = 4
)

func (t *traced) shape() *shapeBatch {
	sys, _ := t.inst.scenarios(0)
	p, cond := sys.Params(), sys.Condition()
	b := &shapeBatch{p: p, m: cond.M(), cond: cond}
	kset.RandomInputs(t.seed, p.N, b.m, t.inputs).ForEach(func(sc kset.Scenario) bool {
		b.inputs = append(b.inputs, sc.Input)
		return true
	})
	fam := kset.RandomCrashFamily(adversarySeed, p.N, p.T, p.RMax(), shapePatterns)
	xfam := kset.RandomCrashFamily(adversarySeed, p.N, p.X(), p.RMax(), shapePatterns)
	for i := 0; i < shapePatterns; i++ {
		b.fps = append(b.fps, fam.Pattern(i))
		b.xfps = append(b.xfps, xfam.Pattern(i))
	}
	return b
}

// first returns the first n inputs: at least one, at most all.
func (b *shapeBatch) first(n int) []kset.Vector { return b.inputs[:max(1, min(n, len(b.inputs)))] }

// each calls f for every (input, pattern) pair.
func (b *shapeBatch) each(inputs []kset.Vector, fps []kset.FailurePattern, f func(in kset.Vector, fp kset.FailurePattern) error) error {
	for _, in := range inputs {
		for _, fp := range fps {
			if err := f(in, fp); err != nil {
				return err
			}
		}
	}
	return nil
}

// kernels runs every layer's kernel on inputs of the workload's shape.
func (t *traced) kernels() error {
	b := t.shape()
	t.coreKernels(b)
	t.conditionKernels(b)
	t.faultnetKernel(b)
	t.shardKernels()
	t.asyncKernels(b)
	t.wireKernels(b)
	t.experimentsKernel()
	return t.err
}

// figure2 runs one Figure-2 execution over the transport (nil: matrix)
// into the recycled Result.
func (t *traced) figure2(b *shapeBatch, tr rounds.Transport) func(kset.Vector, kset.FailurePattern) error {
	return func(in kset.Vector, fp kset.FailurePattern) error {
		_, err := t.runner.RunCond(b.p, b.cond, in, fp, false, tr, nil, &t.res)
		return err
	}
}

// coreKernels: one executor at a time on the matrix transport with a
// recycled Result, then the round engine alone under the classical
// flood's processes (built outside the span).
func (t *traced) coreKernels(b *shapeBatch) {
	p := b.p
	perRunUS := 1e6 / float64(len(b.inputs)*len(b.fps))
	t.layer("core.run_us_per_run.figure2", perRunUS, t.reps, func() error {
		return b.each(b.inputs, b.fps, t.figure2(b, nil))
	})
	t.layer("core.run_us_per_run.early", perRunUS, t.reps, func() error {
		return b.each(b.inputs, b.fps, func(in kset.Vector, fp kset.FailurePattern) error {
			_, err := t.runner.RunEarly(p, b.cond, in, fp, false, nil, nil, &t.res)
			return err
		})
	})
	t.layer("core.run_us_per_run.classical", perRunUS, t.reps, func() error {
		return b.each(b.inputs, b.fps, func(in kset.Vector, fp kset.FailurePattern) error {
			_, err := t.runner.RunClassical(p.N, p.T, p.K, in, fp, false, nil, nil, &t.res)
			return err
		})
	})

	// The engine consumes its processes, so every sweep needs a fresh set
	// of them, built before the span opens.
	eng := rounds.NewEngine()
	var procs [][]rounds.Process
	var msgs, rnds int64
	next := 0
	t.layerPrep("rounds.engine_us_per_run", perRunUS, t.reps, func(sweeps int) error {
		procs, next = procs[:0], 0
		for s := 0; s < sweeps; s++ {
			if err := b.each(b.inputs, b.fps, func(in kset.Vector, _ kset.FailurePattern) error {
				ps, err := core.NewClassicalRun(p.N, p.T, p.K, in)
				procs = append(procs, ps)
				return err
			}); err != nil {
				return err
			}
		}
		return nil
	}, func() error {
		msgs, rnds = 0, 0
		return b.each(b.inputs, b.fps, func(_ kset.Vector, fp kset.FailurePattern) error {
			res, err := eng.RunInto(&t.res, procs[next], fp, rounds.Options{MaxRounds: p.T/p.K + 1})
			next++
			if err == nil {
				msgs += res.MessagesDelivered
				rnds += int64(res.Rounds)
			}
			return err
		})
	})
	t.rec.Layers["rounds.msgs_per_run"] = float64(msgs) * perRunUS / 1e6
	t.rec.Layers["rounds.rounds_per_run"] = float64(rnds) * perRunUS / 1e6
}

// conditionKernels: building the condition and the System, membership,
// view decoding, and the two vector keys the condition index rides on.
func (t *traced) conditionKernels(b *shapeBatch) {
	p := b.p
	const compiles = 64
	t.layer("condition.compile_ms", 1e3/compiles, t.reps, func() error {
		for i := 0; i < compiles; i++ {
			cond, err := kset.NewMaxCondition(p.N, b.m, p.X(), p.L)
			if err != nil {
				return err
			}
			if _, err := kset.New(kset.WithParams(p), kset.WithCondition(cond)); err != nil {
				return err
			}
		}
		return nil
	})

	// Views: each input with up to x entries missing.
	views := make([]kset.Vector, len(b.inputs))
	for i, in := range b.inputs {
		views[i] = in.Clone()
		for j := 0; j < i%(p.X()+1); j++ {
			views[i][(i+j*7)%p.N] = vector.Bottom
		}
	}
	const sweeps = 64 // passes over the inputs per repetition
	perInputNS := 1e9 / float64(sweeps*len(b.inputs))
	sink := 0
	sweep := func(vs []kset.Vector, f func(kset.Vector)) func() error {
		return func() error {
			for s := 0; s < sweeps; s++ {
				for _, v := range vs {
					f(v)
				}
			}
			return nil
		}
	}
	t.layer("condition.contains_ns", perInputNS, t.reps, sweep(b.inputs, func(v kset.Vector) {
		if b.cond.Contains(v) {
			sink++
		}
	}))
	t.layer("condition.decode_ns", perInputNS, t.reps, sweep(views, func(v kset.Vector) {
		if _, ok := condition.DecodeView(b.cond, v); ok {
			sink++
		}
	}))
	// The packed key refuses vectors it cannot pack (n > 10); the string
	// key takes any.
	t.layer("vector.key_ns.key64", perInputNS, t.reps, sweep(b.inputs, func(v kset.Vector) {
		if k, ok := v.Key64(); ok {
			sink += int(k & 1)
		}
	}))
	t.layer("vector.key_ns.fallback", perInputNS, t.reps, sweep(b.inputs, func(v kset.Vector) {
		sink += len(v.Key())
	}))
	refSink += uint64(sink)
}

// faultnetKernel: Figure 2 under a mid-intensity storm plan against the
// same runs on the matrix. The fault counts are exact.
func (t *traced) faultnetKernel(b *shapeBatch) {
	if t.err != nil {
		return
	}
	plan := kset.StormFamily(t.seed, 4, 2, 0.2).Plan(2)
	if t.err = t.ft.SetPlan(plan, b.p.N); t.err != nil {
		return
	}
	runs := float64(len(b.inputs) * len(b.fps))
	run := t.figure2(b, t.ft)
	var lost, delayed, dup int64
	t.layer("faultnet.us_per_run", 1e6/runs, t.reps, func() error {
		lost, delayed, dup = 0, 0, 0
		seed := uint64(0)
		return b.each(b.inputs, b.fps, func(in kset.Vector, fp kset.FailurePattern) error {
			t.ft.Reseed(seed)
			seed++
			err := run(in, fp)
			l, dl, du := t.ft.FaultCounts()
			lost, delayed, dup = lost+l, delayed+dl, dup+du
			return err
		})
	})
	L := t.rec.Layers
	L["faultnet.overhead_us_per_run"] = L["faultnet.us_per_run"] - L["core.run_us_per_run.figure2"]
	L["faultnet.lost_per_run"] = float64(lost) / runs
	L["faultnet.delayed_per_run"] = float64(delayed) / runs
	L["faultnet.dup_per_run"] = float64(dup) / runs
}

// shardKernels: the checkpoint codec on the last traced op's accumulator.
func (t *traced) shardKernels() {
	cp := kset.Checkpoint{Version: kset.CheckpointVersion, Cursor: kset.Cursor{Lo: 0, Hi: t.lastAcc.Runs}, RunsDone: t.lastAcc.Runs, Stats: t.lastAcc}
	const codecs = 32
	var blob []byte
	t.layer("shard.ckpt_encode_us", 1e6/codecs, t.reps, func() (err error) {
		for i := 0; i < codecs && err == nil; i++ {
			blob, err = kset.EncodeCheckpoint(cp)
		}
		return err
	})
	t.layer("shard.ckpt_decode_us", 1e6/codecs, t.reps, func() (err error) {
		for i := 0; i < codecs && err == nil; i++ {
			_, err = kset.DecodeCheckpoint(blob)
		}
		return err
	})
	t.rec.Layers["shard.ckpt_bytes"] = float64(len(blob))
}

// asyncKernels: the three snapshot substrates under the same scheduler,
// on patterns of at most x crashes.
func (t *traced) asyncKernels(b *shapeBatch) {
	p := b.p
	// An asynchronous run costs n scans of n registers and more: keep
	// the batch near 1024 runs at n = 8 and shrink it with n^2.
	inputs := b.first(256 * 64 / (p.N * p.N))
	runs := float64(len(inputs) * len(b.xfps))
	for _, mem := range []struct {
		name string
		kind async.MemoryKind
	}{{"mutex", async.MutexMemory}, {"waitfree", async.WaitFreeMemory}, {"msgpassing", async.MessagePassingMemory}} {
		undecided := 0
		t.layer("async.us_per_run."+mem.name, 1e6/runs, min(3, t.reps), func() error {
			undecided = 0
			return b.each(inputs, b.xfps, func(in kset.Vector, fp kset.FailurePattern) error {
				err := t.arun.RunInto(async.Config{X: p.X(), Cond: b.cond, Input: in, CrashPoints: t.crashPoints(p.N, fp), Memory: mem.kind}, &t.aout)
				if len(t.aout.Undecided) > 0 {
					undecided++
				}
				return err
			})
		})
		if mem.kind == async.MutexMemory {
			t.rec.Layers["async.undecided_share"] = float64(undecided) / runs
		}
	}
}

// wireKernels: the frame codec, then Figure 2 with every copy through the
// codec (pipe) and through real datagrams (UDP loopback).
func (t *traced) wireKernels(b *shapeBatch) {
	var buf [wire.MaxFrame]byte
	frame := wire.Frame{Type: wire.TypeData, Round: 2, Src: 1, Dst: 2, Payload: &core.StateMsg{Cond: 3, Out: 0, Tmf: 2}}
	const frames = 1 << 14
	flen := 0
	t.layer("wire.encode_ns", 1e9/frames, t.reps, func() (err error) {
		for i := 0; i < frames && err == nil; i++ {
			flen, err = wire.EncodeFrame(buf[:], &frame)
		}
		return err
	})
	t.layer("wire.decode_ns", 1e9/frames, t.reps, func() (err error) {
		for i := 0; i < frames && err == nil; i++ {
			_, err = wire.DecodeFrame(buf[:flen])
		}
		return err
	})

	pipe := &wire.PipeTransport{}
	pipeInputs := b.first(256 * 64 / (b.p.N * b.p.N))
	t.layer("wire.pipe_us_per_run", 1e6/float64(len(pipeInputs)*len(b.fps)), min(3, t.reps), func() error {
		if err := b.each(pipeInputs, b.fps, t.figure2(b, pipe)); err != nil {
			return err
		}
		return pipe.Err()
	})

	if t.err != nil {
		return
	}
	var lb *wire.Loopback
	if lb, t.err = t.loopback(b.p.N); t.err != nil {
		return
	}
	// A datagram costs two orders more than a matrix cell: a slice of the
	// batch, sized by the n^2 copies a round sends.
	inputs := b.first(1536 / (b.p.N * b.p.N))
	runs := float64(len(inputs) * len(b.fps))
	run := t.figure2(b, lb)
	var lost int64
	t.layer("wire.udp_us_per_run", 1e6/runs, min(3, t.reps), func() error {
		lost = 0
		if err := b.each(inputs, b.fps, func(in kset.Vector, fp kset.FailurePattern) error {
			err := run(in, fp)
			l, _, _ := lb.FaultCounts()
			lost += l
			return err
		}); err != nil {
			return err
		}
		return lb.Err()
	})
	t.rec.Layers["wire.lost_per_run"] = float64(lost) / runs
	if lost != 0 {
		t.rec.fail("udp loopback lost %d copies over %g runs", lost, runs)
	}
}

// experimentsKernel: the whole registry once, as context for
// cmd/experiments; no workload runs through it.
func (t *traced) experimentsKernel() {
	t.layer("experiments.registry_ms", 1e3, min(3, t.reps), func() error {
		if got, want := len(experiments.All()), len(experiments.Registry()); got != want {
			return fmt.Errorf("%d reports from %d experiments", got, want)
		}
		return nil
	})
}

// serviceSpecs are the jobs the service kernel submits: ksetd_jobs' own
// three shapes, else one 256-run job of the workload's shape.
func (t *traced) serviceSpecs() []service.JobSpec {
	if t.w.name == "ksetd_jobs" {
		return ksetdSpecs(t.seed)
	}
	sys, _ := t.inst.scenarios(0)
	p := sys.Params()
	return []service.JobSpec{{
		Params:    service.ParamsSpec{N: p.N, T: p.T, K: p.K, D: p.D, L: p.L},
		Condition: &service.ConditionSpec{Kind: "max", M: sys.Condition().M()},
		Source:    service.SourceSpec{Kind: "random", Seed: t.seed, Count: ksetdRunsPerJob / 4},
		Failures:  &service.FailuresSpec{Kind: "random", Seed: adversarySeed, Count: 4},
	}}
}

// serviceJobs is how many jobs the service kernel submits.
const serviceJobs = 300

// serviceKernel prices service.Compile, then drives a fresh ksetd with the
// workload's number of closed-loop clients and stamps each job at the
// 202, at the first event byte and at the terminal event.
func (t *traced) serviceKernel() error {
	specs := t.serviceSpecs()
	bodies := make([][]byte, len(specs))
	for i, spec := range specs {
		var err error
		if bodies[i], err = json.Marshal(spec); err != nil {
			return err
		}
	}
	const compiles = 32
	t.layer("service.compile_us", 1e6/compiles, t.reps, func() error {
		for i := 0; i < compiles; i++ {
			if _, err := service.Compile(specs[i%len(specs)]); err != nil {
				return err
			}
		}
		return nil
	})
	if t.err != nil {
		return t.err
	}

	d, err := startKsetd()
	if err != nil {
		return err
	}
	defer d.stop()
	clients := t.w.clients
	stamps := make([]jobStamps, t.jobs)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	rss0 := procStatusKB("VmRSS")
	wall, err := t.span("service.jobs", 0, -1, func() error {
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				cl := &ksetdClient{base: d.base, tenant: fmt.Sprintf("tenant-%d", c), http: &http.Client{Transport: &http.Transport{}}}
				defer cl.http.CloseIdleConnections()
				for i := c; i < t.jobs && errs[c] == nil; i += clients {
					ev, payload, at, err := cl.runJob(bodies[(i/clients+c)%len(bodies)])
					if err == nil && ev != "stats" {
						err = fmt.Errorf("terminal event %q: %s", ev, payload)
					}
					stamps[i], errs[c] = at, err
				}
			}(c)
		}
		wg.Wait()
		return errors.Join(errs...)
	})
	rss1 := procStatusKB("VmRSS")
	if err != nil {
		return err
	}
	// The stamps are raw; the span's two durations give the machine's
	// speed over the whole kernel, which brings them to reference speed.
	last := t.tr.spans[len(t.tr.spans)-1]
	speed := wall / (float64(last.End-last.Start) / 1e9)
	var post, first, term []float64
	for _, s := range stamps {
		post = append(post, s.accepted.Seconds()*1e3*speed)
		first = append(first, s.firstEvent.Seconds()*1e3*speed)
		term = append(term, s.terminal.Seconds()*1e3*speed)
	}
	L := t.rec.Layers
	L["service.post_ms"] = median(post)
	L["service.first_event_ms"] = median(first)
	L["service.terminal_ms"] = median(term)
	L["service.job_p99_ms"] = quantile(term, 0.99)
	L["service.jobs_per_s"] = float64(t.jobs) / wall
	L["service.rss_kb_per_job"] = float64(rss1-rss0) / float64(t.jobs)
	return nil
}

// verifyOnce runs op 0's scenarios (the traced pieces of them) once under
// VerifyRuns: every synchronous run checked against the k-set agreement
// specification.
func (t *traced) verifyOnce() {
	sys, src := t.inst.scenarios(0)
	total, _ := src.Size()
	src = kset.Range(src, 0, total*int64(t.pieces)/int64(t.w.tracePieces))
	st, err := sys.RunSource(context.Background(), src, kset.VerifyRuns())
	switch {
	case err != nil:
		t.rec.fail("verified run: %v", err)
	case st.Violations != 0 || st.Errors != 0:
		t.rec.fail("verified run: %d violations, %d errors", st.Violations, st.Errors)
	}
}
