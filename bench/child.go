package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"kset"
)

// passRecord is what one child process measured: one pass of one workload
// (or, with SetupOnly, one cold start). The parent folds the passes of a
// workload into its end-to-end metrics; the full records land in the run's
// JSON record so a slow spell stays visible.
type passRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Pass     int    `json:"pass"`

	// SetupRefS runs from the parent's spawn stamp to the first timed op —
	// process start, flags, condition and System, sources, the server
	// where there is one, the warm-up op(s) and a GC — at reference speed
	// (see refKernel).
	SetupRefS float64 `json:"setup_ref_s"`

	Ops      int      `json:"ops"`     // ops attempted
	Planned  int      `json:"planned"` // ops the pass was asked for; more than Ops when the deadline cut it
	Failed   int      `json:"failed"`
	Failures []string `json:"failures,omitempty"` // the first few, for the report
	TimedS   float64  `json:"timed_s"`            // wall time of the slices, gaps excluded
	// Slices are the timed section's parts, each with the machine's speed
	// around it: what brings the time-based metrics to reference speed.
	Slices    []sliceRecord `json:"slices"`
	Mallocs   uint64        `json:"mallocs"`
	AllocB    uint64        `json:"alloc_bytes"`
	PeakRSSKB int64         `json:"peak_rss_kb"` // VmHWM at exit

	OpMS    []float64 `json:"op_ms"`     // every op's latency, in op order
	OpRefMS []float64 `json:"op_ref_ms"` // the same at reference speed
	Digests []string  `json:"digests"`   // first 8 bytes of sha256(stats JSON), per op

	// Whole-pass tallies, exact for a given seed and op count.
	Tally tally `json:"tally"`
	// Golden covers the workload's goldenOps prefix only, so it does not
	// depend on how long the pass was.
	Golden      tally   `json:"golden"`
	GoldenSHA   string  `json:"golden_sha256"` // sha256 over the prefix's stats JSON, concatenated
	GoldenOps   int     `json:"golden_ops"`
	RefKernelMS float64 `json:"ref_kernel_ms"` // median of the fixed kernel run between ops
	StealShare  float64 `json:"steal_share"`   // /proc/stat steal delta over the pass
	GapS        float64 `json:"gap_s"`         // untimed time between ops: materialisation, checks, the kernel
}

// sliceRecord is one bracketed part of the timed section: one op with one
// client, sliceOps ops shared among several.
type sliceRecord struct {
	Runs  int64   `json:"runs"`
	WallS float64 `json:"wall_s"`
	CPUS  float64 `json:"cpu_s"`
	// GCS and GCCPUS are what collecting the heap after the slice took. It
	// is the slice's garbage, and on ksetd_jobs the scan of every job kept
	// so far: the pass's rate and CPU cost pay for it, though no op's
	// latency does. Collecting at fixed points of the op sequence, not
	// wherever the pacer would, is what makes allocation counts and peak
	// RSS repeat from run to run.
	GCS    float64 `json:"gc_s"`
	GCCPUS float64 `json:"gc_cpu_s"`
	// Speed is the reference kernel's nominal time over what it took on
	// the clock just before and just after the slice: wall times
	// multiplied by it are at reference speed. CPUSpeed is the same in CPU
	// time, for CPU times (see refSample).
	Speed    float64 `json:"speed"`
	CPUSpeed float64 `json:"cpu_speed"`
}

// perRunS and cpuPerRunS are what one run of the slice cost on the clock
// and in CPU time, the collection after the slice included, at reference
// speed.
func (s sliceRecord) perRunS() float64 { return ratio((s.WallS+s.GCS)*s.Speed, float64(s.Runs)) }
func (s sliceRecord) cpuPerRunS() float64 {
	return ratio((s.CPUS+s.GCCPUS)*s.CPUSpeed, float64(s.Runs))
}

// tally sums the exact counters of a set of ops.
type tally struct {
	Runs       int64 `json:"runs"`
	Decided    int64 `json:"decided_runs"` // runs that decided in some round
	RoundSum   int64 `json:"round_sum"`    // sum of their decision rounds
	Messages   int64 `json:"messages"`
	Undecided  int64 `json:"undecided_runs"`
	Lost       int64 `json:"lost"`
	Delayed    int64 `json:"delayed"`
	Duplicated int64 `json:"duplicated"`
}

func (t *tally) add(st *kset.CampaignStats) {
	t.Runs += st.Runs
	for r := 1; r < len(st.DecisionRounds); r++ {
		t.Decided += st.DecisionRounds[r]
		t.RoundSum += int64(r) * st.DecisionRounds[r]
	}
	t.Undecided += st.UndecidedRuns
	if m := st.Metrics; m != nil {
		t.Messages += m.Messages.Sum
		if f := m.Faults; f != nil {
			t.Lost += f.Lost.Sum
			t.Delayed += f.Delayed.Sum
			t.Duplicated += f.Duplicated.Sum
		}
	}
}

func (t tally) roundsPerRun() float64 { return ratio(float64(t.RoundSum), float64(t.Decided)) }
func (t tally) msgsPerRun() float64   { return ratio(float64(t.Messages), float64(t.Runs)) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// childConfig is the child's command line.
type childConfig struct {
	workload  string
	seed      int64
	pass      int
	ops       int
	setupOnly bool
	spawned   int64 // parent's clock at spawn, unix ns
	quick     bool  // the smoke test: one repetition of every kernel on a small batch, no wait between reference samples
	ref       *refClient
}

// maxFailuresKept bounds the error messages a pass reports.
const maxFailuresKept = 5

// runPass is the child process: set the workload up, warm it, and measure
// ops of it.
func runPass(cfg childConfig) (*passRecord, error) {
	w := workloadByName(cfg.workload)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	rec := &passRecord{Workload: w.name, Seed: cfg.seed, Pass: cfg.pass, Planned: cfg.ops, GoldenOps: w.goldenOps}
	inst, err := w.open(cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	if inst.close != nil {
		defer inst.close()
	}
	var warm opOut
	for i := w.warmOps - 1; i >= 0; i-- {
		inst.prepare(i)
		if warm, err = inst.op(i); err != nil {
			return nil, fmt.Errorf("%s: warm-up op: %w", w.name, err)
		}
	}
	runtime.GC()
	setup := time.Since(time.Unix(0, cfg.spawned)).Seconds()
	rec.SetupRefS = setup * refNominalMS / median([]float64{cfg.ref.sample().WallMS, cfg.ref.sample().WallMS, cfg.ref.sample().WallMS})
	if cfg.setupOnly {
		return rec, nil
	}

	p := &pass{w: w, inst: inst, rec: rec, ref: cfg.ref, golden: sha256.New()}
	p.run(cfg.ops)

	// The warm-up ran op 0 too: a cheap determinism check inside one process.
	if raw, err := statsJSON(warm); err != nil || len(rec.Digests) == 0 || digestOf(raw) != rec.Digests[0] {
		p.fail(0, fmt.Errorf("op 0 differs from its own warm-up run"))
	}
	rec.GoldenSHA = hex.EncodeToString(p.golden.Sum(nil))
	rec.PeakRSSKB = procStatusKB("VmHWM")
	return rec, nil
}

// pass is the state of one measured pass.
type pass struct {
	w    *workload
	inst *instance
	rec  *passRecord
	ref  *refClient
	// golden hashes the stats JSON of the goldenOps prefix.
	golden hash.Hash
}

func (p *pass) fail(op int, err error) {
	p.rec.Failed++
	if len(p.rec.Failures) < maxFailuresKept {
		p.rec.Failures = append(p.rec.Failures, fmt.Sprintf("op %d: %v", op, err))
	}
}

func (p *pass) run(ops int) {
	rec, inst, w := p.rec, p.inst, p.w
	// A pass that runs far beyond its nominal length stops issuing ops:
	// the harness, not the measurement, has a time limit to keep.
	nominal := time.Duration(float64(ops) / float64(w.opsPerPass) * passSeconds * float64(time.Second))
	deadline := time.Now().Add(3*nominal + 10*time.Second)
	lat := make([]time.Duration, ops)
	outs := make([]opOut, ops)
	errs := make([]error, ops)
	steal0, total0 := procStatCPU()

	// The pass is a sequence of slices — one op with one client, sliceOps
	// ops shared among several — and each slice is bracketed on its own:
	// materialising inputs, encoding and checking stats and sampling the
	// reference kernel all happen between slices, outside the timed
	// section, and a collection they start is waited for there too. The
	// collection after each slice is timed and charged to the slice.
	var m meter
	var wg sync.WaitGroup
	refs := []refSample{p.ref.sample()}
	done := 0
	for done < ops && time.Now().Before(deadline) {
		lo, hi := done, min(done+w.sliceOps, ops)
		g0 := time.Now()
		inst.prepare(lo) // one op a slice wherever there is something to load
		gcDrain()
		rec.GapS += time.Since(g0).Seconds()
		wall0, cpu0 := m.wall, m.cpu
		m.begin()
		for c := 0; c < w.clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := lo + c; i < hi; i += w.clients {
					t0 := time.Now()
					outs[i], errs[i] = inst.op(i)
					lat[i] = time.Since(t0)
				}
			}(c)
		}
		wg.Wait()
		m.end()
		sl := sliceRecord{WallS: (m.wall - wall0).Seconds(), CPUS: (m.cpu - cpu0).Seconds()}
		t0, c0 := time.Now(), processCPU()
		runtime.GC()
		sl.GCS, sl.GCCPUS = time.Since(t0).Seconds(), (processCPU() - c0).Seconds()

		runs0 := rec.Tally.Runs
		g0 = time.Now()
		for i := lo; i < hi; i++ {
			p.finish(i, outs[i], errs[i])
			outs[i] = opOut{}
		}
		sl.Runs = rec.Tally.Runs - runs0
		rec.Slices = append(rec.Slices, sl)
		gcDrain()
		refs = append(refs, p.ref.sample())
		rec.GapS += time.Since(g0).Seconds()
		done = hi
	}
	steal1, total1 := procStatCPU()

	rec.Ops = done
	rec.TimedS = m.wall.Seconds()
	rec.Mallocs, rec.AllocB = m.mallocs, m.bytes
	rec.OpMS = make([]float64, done)
	rec.OpRefMS = make([]float64, done)
	for k := range rec.Slices {
		speed := refNominalMS / ((refs[k].WallMS + refs[k+1].WallMS) / 2)
		rec.Slices[k].Speed = speed
		rec.Slices[k].CPUSpeed = refNominalMS / ((refs[k].CPUMS + refs[k+1].CPUMS) / 2)
		for i := k * w.sliceOps; i < min((k+1)*w.sliceOps, done); i++ {
			rec.OpMS[i] = float64(lat[i]) / float64(time.Millisecond)
			rec.OpRefMS[i] = rec.OpMS[i] * speed
		}
	}
	walls := make([]float64, len(refs))
	for i, r := range refs {
		walls[i] = r.WallMS
	}
	rec.RefKernelMS = median(walls)
	rec.StealShare = ratio(float64(steal1-steal0), float64(total1-total0))
}

// finish checks one op's output and folds it into the pass record. It
// runs outside the timed section.
func (p *pass) finish(i int, out opOut, err error) {
	rec := p.rec
	digest := ""
	defer func() { rec.Digests = append(rec.Digests, digest) }()
	if err != nil {
		p.fail(i, err)
		return
	}
	st := out.st
	raw, err := statsJSON(out)
	if err != nil {
		p.fail(i, err)
		return
	}
	digest = digestOf(raw)
	rec.Tally.add(st)
	if i < p.w.goldenOps {
		rec.Golden.add(st)
		p.golden.Write(raw)
	}
	switch {
	case st.Errors != 0:
		p.fail(i, fmt.Errorf("%d runs errored", st.Errors))
	case st.Violations != 0:
		p.fail(i, fmt.Errorf("%d runs violated the specification", st.Violations))
	case st.Runs != p.inst.runsPerOp:
		p.fail(i, fmt.Errorf("%d runs, want %d", st.Runs, p.inst.runsPerOp))
	case p.inst.expect != nil:
		want, err := p.inst.expect(i)
		if err != nil {
			p.fail(i, fmt.Errorf("reference run: %w", err))
		} else if !bytes.Equal(raw, want) {
			p.fail(i, fmt.Errorf("stats differ from the reference plane's"))
		}
	}
}

func statsJSON(out opOut) ([]byte, error) {
	if out.raw != nil {
		return out.raw, nil
	}
	return json.Marshal(out.st)
}

func digestOf(raw []byte) string {
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:8])
}

// meter accumulates wall time, process CPU time and heap allocation over
// the spans between begin and end.
type meter struct {
	wall, cpu      time.Duration
	mallocs, bytes uint64

	t0  time.Time
	c0  time.Duration
	ms0 runtime.MemStats
}

func (m *meter) begin() {
	runtime.ReadMemStats(&m.ms0)
	m.c0 = processCPU()
	m.t0 = time.Now()
}

func (m *meter) end() {
	m.wall += time.Since(m.t0)
	m.cpu += processCPU() - m.c0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.mallocs += ms.Mallocs - m.ms0.Mallocs
	m.bytes += ms.TotalAlloc - m.ms0.TotalAlloc
}

// processCPU returns the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procStatusKB reads one "kB" field of /proc/self/status (0 off Linux).
func procStatusKB(field string) int64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			kb, _ := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			return kb
		}
	}
	return 0
}

// procStatCPU returns the machine's stolen and total CPU ticks so far
// (/proc/stat's first line; zeros off Linux).
func procStatCPU() (steal, total int64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	for i, f := range strings.Fields(line) {
		if i == 0 {
			continue // "cpu"
		}
		v, _ := strconv.ParseInt(f, 10, 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile returns the q-quantile of v by linear interpolation between
// order statistics; v is not modified.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
