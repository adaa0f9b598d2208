package kset

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"

	"kset/internal/async"
	"kset/internal/condition"
	"kset/internal/core"
	"kset/internal/faultnet"
	"kset/internal/rounds"
)

// System is a reusable, concurrency-safe handle on one agreement problem
// instance: parameters, condition and executor are fixed and validated at
// construction, so the Run hot path performs no per-call validation beyond
// the input vector itself. A System owns pooled per-worker engine and
// protocol state; concurrent Run calls and campaign workers check workers
// out of the pool, so sweeps of millions of executions allocate almost
// nothing per run.
//
//	sys, err := kset.New(
//		kset.WithParams(kset.Params{N: 8, T: 5, K: 2, D: 3, L: 1}),
//		kset.WithCondition(cond),
//	)
//	res, err := sys.Run(ctx, input, fp)
//
// For batches, see NewCampaign and RunCampaign.
type System struct {
	p           Params
	hasParams   bool
	cond        Condition
	exec        Executor
	wireFactory TransportFactory

	workers     int
	asyncBudget int
}

// New constructs a System from functional options, validating the
// parameters, the condition's dimensions and the executor's requirements
// up front. Errors wrap ErrBadParams or ErrDomainTooLarge.
func New(opts ...Option) (*System, error) {
	s := &System{exec: Figure2, workers: runtime.GOMAXPROCS(0)}
	for _, opt := range opts {
		opt(s)
	}
	if !s.hasParams {
		return nil, fmt.Errorf("kset: no parameters (use WithParams): %w", ErrBadParams)
	}
	if s.workers < 1 {
		s.workers = 1
	}
	// An explicit condition is cloned at construction: the caller may keep
	// adding to their handle while campaign workers read this snapshot.
	if e, ok := s.cond.(*condition.Explicit); ok {
		s.cond = e.Clone()
	}
	if err := s.exec.check(s); err != nil {
		return nil, err
	}
	return s, nil
}

// Params returns the system's problem parameters.
func (s *System) Params() Params { return s.p }

// Condition returns the system's condition (nil for condition-free
// Classical systems).
func (s *System) Condition() Condition { return s.cond }

// Executor returns the system's default executor.
func (s *System) Executor() Executor { return s.exec }

// Run executes one agreement run of the system's executor on the given
// input vector and failure pattern. It is safe for concurrent use: each
// call checks a worker (engine + protocol buffers) out of a shared pool.
// The returned Result is freshly allocated and may be retained.
//
// Cancellation: the context is checked before the run and, for
// Asynchronous executions, aborts undecided processes mid-run.
// Synchronous runs are microsecond-scale and run to completion once
// started.
func (s *System) Run(ctx context.Context, input Vector, fp FailurePattern) (*Result, error) {
	return s.RunScenario(ctx, Scenario{Input: input, FP: fp})
}

// RunScenario is Run for a full scenario, honoring its executor override,
// async seed and crash points.
func (s *System) RunScenario(ctx context.Context, sc Scenario) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ex, err := s.resolveExecutor(&sc)
	if err != nil {
		return nil, err
	}
	w := getWorker()
	res, err := ex.run(ctx, s, w, &sc, nil)
	putWorker(w)
	return res, err
}

// resolveExecutor picks the scenario's executor: the system default (already
// validated at construction) or the scenario override, which is checked
// against the system here.
func (s *System) resolveExecutor(sc *Scenario) (Executor, error) {
	if sc.Executor == nil {
		return s.exec, nil
	}
	if err := sc.Executor.check(s); err != nil {
		return nil, err
	}
	return sc.Executor, nil
}

// Scenario is one unit of campaign work: an input vector under a failure
// pattern, optionally overriding the system's executor.
type Scenario struct {
	// Label optionally tags the scenario; it keys the per-label breakdown
	// of a campaign's stats.
	Label string
	// Input is the full input vector (entry i proposed by process i+1).
	Input Vector
	// FP is the synchronous crash adversary. Asynchronous runs map it to
	// crash points: a round-1 crash before any send becomes
	// CrashBeforeWrite, every other crash CrashAfterWrite.
	FP FailurePattern
	// Executor overrides the system's executor for this scenario (nil =
	// system default).
	Executor Executor
	// Seed drives the scheduling jitter of Asynchronous runs and, mixed
	// with the fault plan's seed and the input, the fault draws of runs
	// under a FaultPlan.
	Seed int64
	// Faults injects link faults (loss, delay, duplication, reordering)
	// into this scenario's synchronous run, over whatever message plane the
	// System has; CrossFaults, FaultSchedules and SweepFaults install one
	// on a whole source. The plan is validated per run (errors wrap
	// ErrBadParams) and must be treated as immutable once installed.
	// Asynchronous runs ignore it.
	Faults *FaultPlan
	// AsyncCrashes, when non-nil, replaces the FP mapping for
	// Asynchronous runs.
	AsyncCrashes map[int]CrashPoint
}

// Executor selects which agreement algorithm a System runs. The four
// implementations — Figure2, EarlyDeciding, Classical and Asynchronous —
// present the paper's algorithms behind one interface; the interface is
// sealed (its methods are unexported) because executors reach into the
// System's pooled worker state.
type Executor interface {
	// Name returns a short stable identifier for tables and labels.
	Name() string
	// check validates the system's configuration for this executor.
	check(s *System) error
	// run executes one scenario on worker w. res, when non-nil, is a
	// recycled Result to write into; nil allocates fresh.
	run(ctx context.Context, s *System, w *worker, sc *Scenario, res *Result) (*Result, error)
	// synchronous reports whether results carry round and verdict
	// semantics (false for Asynchronous).
	synchronous() bool
}

// The four executors.
var (
	// Figure2 is the paper's synchronous condition-based k-set agreement
	// algorithm: max(2, ⌊(d+ℓ−1)/k⌋+1) rounds when the input is in the
	// condition, ⌊t/k⌋+1 otherwise.
	Figure2 Executor = figure2Alg
	// EarlyDeciding is the Section-8 extension: additionally never later
	// than min(⌊f/k⌋+3, the plain bounds), f the number of actual crashes.
	EarlyDeciding Executor = earlyAlg
	// Classical is the condition-free flood baseline: exactly ⌊t/k⌋+1
	// rounds. It ignores the system's condition.
	Classical Executor = classicalAlg
	// Asynchronous is the Section-4 condition-based ℓ-set agreement
	// algorithm over an atomic-snapshot memory. Results have no rounds
	// (Result.Rounds is 0); undecided processes are absent from
	// Result.Decisions.
	Asynchronous Executor = asyncExec{}
)

// syncExec is the one synchronous executor; its value names the algorithm
// the worker's runner steps, the only thing the three differ in.
type syncExec int

const (
	figure2Alg syncExec = iota
	earlyAlg
	classicalAlg
)

func (e syncExec) Name() string {
	switch e {
	case earlyAlg:
		return "early"
	case classicalAlg:
		return "classical"
	}
	return "figure2"
}
func (syncExec) synchronous() bool { return true }
func (e syncExec) check(s *System) error {
	if e == classicalAlg {
		return core.ValidateClassical(s.p.N, s.p.T, s.p.K)
	}
	return s.p.ValidateWith(s.cond)
}
func (e syncExec) run(ctx context.Context, s *System, w *worker, sc *Scenario, res *Result) (*Result, error) {
	tr, err := w.transport(s, sc)
	if err != nil {
		return nil, err
	}
	var out *Result
	switch e {
	case earlyAlg:
		out, err = w.runner.RunEarly(s.p, s.cond, sc.Input, sc.FP, false, tr, ctx.Done(), res)
	case classicalAlg:
		out, err = w.runner.RunClassical(s.p.N, s.p.T, s.p.K, sc.Input, sc.FP, false, tr, ctx.Done(), res)
	default:
		out, err = w.runner.RunCond(s.p, s.cond, sc.Input, sc.FP, false, tr, ctx.Done(), res)
	}
	// A wire transport keeps its internal error (the Transport interface
	// cannot return one mid-run); it is the stack's base, so read it there.
	if e, ok := w.wt.(interface{ Err() error }); ok && s.wireFactory != nil && err == nil && e.Err() != nil {
		return nil, fmt.Errorf("kset: wire transport: %w", e.Err())
	}
	return mapCanceled(ctx, out, err)
}

type asyncExec struct{}

func (asyncExec) Name() string      { return "async" }
func (asyncExec) synchronous() bool { return false }
func (asyncExec) check(s *System) error {
	return s.p.ValidateWith(s.cond)
}
func (asyncExec) run(ctx context.Context, s *System, w *worker, sc *Scenario, res *Result) (*Result, error) {
	n := s.p.N
	// The scenario's crash description — an AsyncCrashes map or the
	// synchronous FP — is converted once into the worker's dense
	// crash-point scratch, so the hot path builds no per-run maps.
	if cap(w.acp) < n {
		w.acp = make([]async.CrashPoint, n)
	}
	cp := w.acp[:n]
	for i := range cp {
		cp[i] = async.NoCrash
	}
	if sc.AsyncCrashes != nil {
		for id, c := range sc.AsyncCrashes {
			if id < 1 || id > n {
				return nil, fmt.Errorf("kset: async crash for unknown process %d: %w", id, ErrBadParams)
			}
			cp[id-1] = c
		}
	} else {
		for id, cr := range sc.FP.Crashes {
			if id < 1 || int(id) > n {
				return nil, fmt.Errorf("kset: crash for unknown process %d: %w", id, ErrBadParams)
			}
			if cr.Round == 1 && cr.AfterSends == 0 {
				cp[id-1] = async.CrashBeforeWrite
			} else {
				cp[id-1] = async.CrashAfterWrite
			}
		}
	}
	if w.arun == nil {
		w.arun = async.NewRunner()
	}
	out := &w.aout
	err := w.arun.RunInto(async.Config{
		X:           s.p.X(),
		Cond:        s.cond,
		Input:       sc.Input,
		CrashPoints: cp,
		Seed:        sc.Seed,
		ScanBudget:  s.asyncBudget,
		Cancel:      ctx.Done(),
	}, out)
	if err != nil {
		return nil, err
	}
	// A cancellation that left processes undecided is an aborted run; a
	// run that completed despite a late cancel is still a result.
	if err := ctx.Err(); err != nil && len(out.Undecided) > 0 {
		return nil, err
	}
	if res == nil {
		res = &Result{}
	}
	res.Reset()
	for id := 1; id <= n; id++ {
		if v, ok := out.Decision(id); ok {
			res.Decisions[ProcessID(id)] = v
		}
	}
	for i, c := range cp {
		if c != async.NoCrash {
			res.Crashed[ProcessID(i+1)] = true
		}
	}
	return res, nil
}

// mapCanceled converts the engine's between-rounds abort sentinel into
// the context's own error, so callers of Run/RunScenario and campaign
// outcomes observe context.Canceled/DeadlineExceeded — never the
// internal rounds.ErrCanceled — when a client disconnect or a DELETE
// stops in-flight synchronous work.
func mapCanceled(ctx context.Context, res *Result, err error) (*Result, error) {
	if err != nil && errors.Is(err, rounds.ErrCanceled) {
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
	}
	return res, err
}

// worker bundles the per-worker reusable state of a System: the engine and
// protocol buffers, a recycled Result for stats-only campaign runs, the
// generation storage of pulled campaigns, and a lazily created
// fault-injecting transport for runs under a FaultPlan.
type worker struct {
	runner *core.Runner
	res    *rounds.Result
	ft     *faultnet.Transport

	// Asynchronous-plane state: a reusable scheduler Runner, a recycled
	// Outcome and the dense crash-point scratch, so campaign sweeps of
	// async scenarios allocate per run only what the Result itself needs.
	arun *async.Runner
	aout async.Outcome
	acp  []async.CrashPoint

	// sc is the scenario of the campaign run in progress: executors are
	// handed a pointer to this slot, cleared when the worker goes back to
	// the pool.
	sc Scenario

	// gen is the generation storage a pulled campaign lends the source's
	// range iterator: every input this worker runs is drawn into its one
	// vector by its one generator. Both outlive the campaign in the pool.
	gen genStore

	// wt is the worker's wire transport under WithTransport, created by
	// the owning System's factory on first use. Workers outlive Systems
	// in the shared pool, so the owner is tracked and the transport is
	// rebuilt (closing the old one's sockets) when a different System
	// checks the worker out.
	wt      rounds.Transport
	wtOwner *System
}

// transport builds the run's one message stack. The base is the System's
// wire transport when one is installed (cached per worker), else nil —
// the engine's allocation-free shared row. The scenario's fault plan,
// unless there is none or it injects nothing, rides the fault transport
// over that base.
// Fault-transport draws are reseeded per run so they depend only on
// (plan, scenario), never on worker count or submission order.
func (w *worker) transport(s *System, sc *Scenario) (rounds.Transport, error) {
	var base rounds.Transport
	if s.wireFactory != nil {
		if w.wt == nil || w.wtOwner != s {
			if c, ok := w.wt.(io.Closer); ok {
				c.Close()
			}
			tr, err := s.wireFactory(s.p.N)
			if err != nil {
				return nil, fmt.Errorf("kset: wire transport: %w", err)
			}
			w.wt, w.wtOwner = tr, s
		}
		base = w.wt
	}
	plan := sc.Faults
	if plan == nil {
		return base, nil
	}
	if w.ft == nil {
		w.ft = &faultnet.Transport{}
	}
	if err := w.ft.SetPlan(plan, s.p.N); err != nil {
		return nil, fmt.Errorf("kset: bad fault plan: %w: %w", err, ErrBadParams)
	}
	if w.ft.Zero() {
		return base, nil // validated, and identical without the fault layer
	}
	w.ft.SetInner(base)
	w.ft.Reseed(faultSeed(plan, sc))
	return w.ft, nil
}

// workerPool is shared by every System: workers carry no per-System state,
// so short-lived Systems still reuse warmed engine buffers.
var workerPool = sync.Pool{New: func() any { return &worker{runner: core.NewRunner()} }}

func getWorker() *worker { return workerPool.Get().(*worker) }
func putWorker(w *worker) {
	w.sc = Scenario{}
	workerPool.Put(w)
}
