package core

import (
	"sync"

	"kset/internal/condition"
	"kset/internal/rounds"
	"kset/internal/vector"
)

// Runner executes synchronous agreement runs while owning every piece of
// reusable state a run needs: the rounds.Engine scratch (delivery matrix,
// liveness bitmaps) plus per-algorithm process cells, view storage and
// early-decision bookkeeping. A batch driver creates one Runner per worker
// and calls its Run* methods millions of times; each call then allocates
// nothing beyond the Result — and not even that when a recycled Result is
// passed in.
//
// The Run* methods do NOT re-validate parameters or the condition: the
// caller establishes Params.ValidateWith / ValidateClassical once (e.g. at
// System construction) and the hot path only checks the per-run input
// vector. A Runner is not safe for concurrent use.
type Runner struct {
	eng *rounds.Engine

	// Figure-2 state: n process cells over one flat n×n view array.
	procs []rounds.Process
	cells []CondProcess
	views []vector.Value

	// Early-deciding state: wrappers, trackers and their flag arrays.
	eprocs []rounds.Process
	ecells []EarlyCondProcess
	einner []CondProcess
	etrk   []earlyTracker
	eflags []bool         // n trackers × (n+1) flags
	eviews []vector.Value // n views of n entries

	// Classical state.
	cprocs []rounds.Process
	ccells []ClassicalProcess
}

// NewRunner returns an empty Runner; its buffers grow to the largest n
// seen and are reused afterwards.
func NewRunner() *Runner { return &Runner{eng: rounds.NewEngine()} }

// condState sizes the Figure-2 state for n processes and zeroes the views.
func (r *Runner) condState(n int) {
	if cap(r.cells) < n || cap(r.views) < n*n {
		r.procs = make([]rounds.Process, n)
		r.cells = make([]CondProcess, n)
		r.views = make([]vector.Value, n*n)
	}
	r.procs = r.procs[:n]
	r.cells = r.cells[:n]
	r.views = r.views[:n*n]
	clear(r.views)
}

// earlyState sizes the early-deciding state for n processes.
func (r *Runner) earlyState(n int) {
	if cap(r.ecells) < n || cap(r.eviews) < n*n {
		r.eprocs = make([]rounds.Process, n)
		r.ecells = make([]EarlyCondProcess, n)
		r.einner = make([]CondProcess, n)
		r.etrk = make([]earlyTracker, n)
		r.eflags = make([]bool, n*(n+1))
		r.eviews = make([]vector.Value, n*n)
	}
	r.eprocs = r.eprocs[:n]
	r.ecells = r.ecells[:n]
	r.einner = r.einner[:n]
	r.etrk = r.etrk[:n]
	r.eflags = r.eflags[:n*(n+1)]
	r.eviews = r.eviews[:n*n]
	clear(r.eflags)
	clear(r.eviews)
}

// RunCond executes one Figure-2 condition-based run. The caller has
// already validated p against c (Params.ValidateWith); only the input
// vector is checked. res, when non-nil, is cleared and reused. tr, when
// non-nil, overrides the engine's message transport (fault injection —
// see internal/faultnet); nil is the reliable delivery matrix. cancel,
// when non-nil, aborts the run between rounds once closed (the engine
// returns rounds.ErrCanceled); batch drivers pass a context's Done
// channel so cancellation stops in-flight synchronous work. The blank
// bool of the three Run* methods is pinned by bench/'s positional calls.
func (r *Runner) RunCond(p Params, c condition.Condition, input vector.Vector, fp rounds.FailurePattern, _ bool, tr rounds.Transport, cancel <-chan struct{}, res *rounds.Result) (*rounds.Result, error) {
	if err := ValidateInput(p.N, input); err != nil {
		return nil, err
	}
	r.condState(p.N)
	for i := 0; i < p.N; i++ {
		r.cells[i] = newCondProcess(p, c, input, i, r.views[i*p.N:(i+1)*p.N])
		r.procs[i] = &r.cells[i]
	}
	return r.eng.RunInto(res, r.procs, fp, rounds.Options{MaxRounds: p.RMax(), Transport: tr, Cancel: cancel})
}

// RunEarly executes one early-deciding condition-based run under the same
// contract as RunCond.
func (r *Runner) RunEarly(p Params, c condition.Condition, input vector.Vector, fp rounds.FailurePattern, _ bool, tr rounds.Transport, cancel <-chan struct{}, res *rounds.Result) (*rounds.Result, error) {
	if err := ValidateInput(p.N, input); err != nil {
		return nil, err
	}
	r.earlyState(p.N)
	for i := 0; i < p.N; i++ {
		r.einner[i] = newCondProcess(p, c, input, i, r.eviews[i*p.N:(i+1)*p.N])
		r.etrk[i] = earlyTracker{n: p.N, k: p.K, flagged: r.eflags[i*(p.N+1) : (i+1)*(p.N+1)]}
		r.ecells[i] = EarlyCondProcess{inner: &r.einner[i], early: &r.etrk[i], unwrapped: r.ecells[i].unwrapped}
		r.eprocs[i] = &r.ecells[i]
	}
	return r.eng.RunInto(res, r.eprocs, fp, rounds.Options{MaxRounds: p.RMax(), Transport: tr, Cancel: cancel})
}

// RunClassical executes one classical flood run. The caller has already
// validated (n, t, k) via ValidateClassical; only the input is checked.
func (r *Runner) RunClassical(n, t, k int, input vector.Vector, fp rounds.FailurePattern, _ bool, tr rounds.Transport, cancel <-chan struct{}, res *rounds.Result) (*rounds.Result, error) {
	if err := ValidateInput(n, input); err != nil {
		return nil, err
	}
	if cap(r.ccells) < n {
		r.cprocs = make([]rounds.Process, n)
		r.ccells = make([]ClassicalProcess, n)
	}
	r.cprocs = r.cprocs[:n]
	r.ccells = r.ccells[:n]
	for i := 0; i < n; i++ {
		r.ccells[i] = ClassicalProcess{n: n, t: t, k: k, est: input[i], lastRound: t/k + 1}
		r.cprocs[i] = &r.ccells[i]
	}
	return r.eng.RunInto(res, r.cprocs, fp, rounds.Options{MaxRounds: t/k + 1, Transport: tr, Cancel: cancel})
}

// runnerPool shares Runners across the package's one-shot Run helpers, so
// sweeps that call Run/RunEarly/RunClassical thousands of times
// (exhaustive adversary model checking, experiment tables) reuse the
// engine and protocol buffers instead of reallocating them per run.
// Results stay freshly allocated there, so callers may retain them.
var runnerPool = sync.Pool{New: func() any { return NewRunner() }}

// GetRunner checks a Runner out of the shared pool; return it with
// PutRunner. Long-lived workers should prefer NewRunner.
func GetRunner() *Runner { return runnerPool.Get().(*Runner) }

// PutRunner returns a Runner to the shared pool.
func PutRunner(r *Runner) { runnerPool.Put(r) }

// runPooled executes one run of caller-built processes on a pooled
// runner's engine.
func runPooled(procs []rounds.Process, fp rounds.FailurePattern, opts rounds.Options) (*rounds.Result, error) {
	r := GetRunner()
	res, err := r.eng.Run(procs, fp, opts)
	PutRunner(r)
	return res, err
}
