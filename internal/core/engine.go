package core

import (
	"kset/internal/condition"
	"kset/internal/rounds"
	"kset/internal/vector"
)

// Runner executes synchronous agreement runs while owning every piece of
// reusable state a run needs: the rounds.Engine scratch (receive row,
// liveness array) plus per-algorithm process cells, the state the cells
// of a run share (the run's constants, one view, one row digest) and
// early-decision bookkeeping. A batch driver creates one Runner per worker
// and calls its Run* methods millions of times; each call then allocates
// nothing beyond the Result — and not even that when a recycled Result is
// passed in.
//
// Each run is one rounds.Group over a concrete cell array — condGroup,
// earlyGroup, classicalGroup are the Runner itself — so every call in a
// round's loops is static: Step digests its row and steps each live cell of
// the segment from the digest. The digest lives on the Runner: a row that
// extends the previous Step's (rounds.Round.Added) only patches it with the
// added senders, so the shared row is folded once per round.
//
// The Run* methods do NOT re-validate parameters or the condition: the
// caller establishes Params.ValidateWith / ValidateClassical once (e.g. at
// System construction) and the hot path only checks the per-run input
// vector. A Runner is not safe for concurrent use.
type Runner struct {
	eng *rounds.Engine

	// Figure-2 state, which the early-deciding wrappers run on too: n
	// process cells sharing the run's constants, round 1's view, and the
	// digest of the row last stepped.
	cells  []CondProcess
	fold   condFold
	view   vector.Vector
	digest StateMsg

	// Early-deciding state: wrappers, their flagged bitsets and the one
	// row digest they share.
	ecells []EarlyCondProcess
	eflags []uint64 // n trackers × ⌈n/64⌉ words
	erow   earlyRow

	// Classical state: the cells and the row's largest value.
	ccells []ClassicalProcess
	cmax   vector.Value
}

// NewRunner returns an empty Runner; its buffers grow to the largest n
// seen and are reused afterwards.
func NewRunner() *Runner { return &Runner{eng: rounds.NewEngine()} }

// condState sizes the Figure-2 state and initializes the n cells of a run.
// What no run changes — the cells' fold pointer — is set when the array is
// allocated; a run writes only what it must.
func (r *Runner) condState(p Params, c condition.Condition, input vector.Vector) {
	n := p.N
	if cap(r.cells) < n {
		r.cells = make([]CondProcess, n)
		r.view = vector.New(n)
		for i := range r.cells {
			r.cells[i].fold = &r.fold
		}
	}
	r.cells = r.cells[:n]
	r.view = r.view[:n]
	r.fold = newCondFold(p, c)
	for i := range r.cells {
		r.cells[i].proposal, r.cells[i].state = input[i], StateMsg{}
	}
}

// earlyState sizes the early-deciding state and initializes the n wrappers
// of a run over the Figure-2 cells.
func (r *Runner) earlyState(n, k int) {
	words := bitWords(n)
	if cap(r.ecells) < n {
		r.ecells = make([]EarlyCondProcess, n)
		r.eflags = make([]uint64, n*words)
	}
	if cap(r.erow.unwrapped) < n {
		r.erow = newEarlyRow(n)
	}
	r.erow = earlyRow{silent: r.erow.silent[:words], flags: r.erow.flags[:words], unwrapped: r.erow.unwrapped[:n]}
	r.ecells = r.ecells[:n]
	r.eflags = r.eflags[:n*words]
	clear(r.eflags)
	for i := range r.ecells {
		// inner is per run: cells may have been reallocated under ecells.
		r.ecells[i].inner = &r.cells[i]
		r.ecells[i].early = earlyTracker{k: k, flagged: r.eflags[i*words : (i+1)*words]}
	}
}

// condGroup is the Runner as the rounds.Group of a Figure-2 run.
type condGroup Runner

func (g *condGroup) Send(r int, down []bool, row []any) {
	for i := range g.cells {
		if !down[i] {
			row[i] = g.cells[i].Send(r)
		}
	}
}

func (g *condGroup) Step(rd *rounds.Round, row []any, lo, hi int) (live int) {
	if added, ok := rd.Added(); ok {
		g.fold.extend(&g.digest, g.view, rd.R, row, added)
	} else {
		g.fold.foldRow(&g.digest, g.view, rd.R, row)
	}
	for i := lo; i < hi; i++ {
		if rd.Down(i) {
			continue
		}
		if v, done := g.cells[i].stepDigest(rd.R, &g.digest); done {
			rd.Decide(i, v)
		} else {
			live++
		}
	}
	return live
}

// earlyGroup is the Runner as the rounds.Group of an early-deciding run.
type earlyGroup Runner

func (g *earlyGroup) Send(r int, down []bool, row []any) {
	for i := range g.ecells {
		if !down[i] {
			row[i] = g.ecells[i].Send(r)
		}
	}
}

func (g *earlyGroup) Step(rd *rounds.Round, row []any, lo, hi int) (live int) {
	if added, ok := rd.Added(); ok {
		g.erow.add(row, added)
		g.fold.extend(&g.digest, g.view, rd.R, g.erow.unwrapped, added)
	} else {
		g.erow.read(row)
		g.fold.foldRow(&g.digest, g.view, rd.R, g.erow.unwrapped)
	}
	for i := lo; i < hi; i++ {
		if rd.Down(i) {
			continue
		}
		if v, done := g.ecells[i].stepDigest(rd.R, &g.erow, &g.digest); done {
			rd.Decide(i, v)
		} else {
			live++
		}
	}
	return live
}

// classicalGroup is the Runner as the rounds.Group of a classical run.
type classicalGroup Runner

func (g *classicalGroup) Send(r int, down []bool, row []any) {
	for i := range g.ccells {
		if !down[i] {
			row[i] = g.ccells[i].est
		}
	}
}

func (g *classicalGroup) Step(rd *rounds.Round, row []any, lo, hi int) (live int) {
	if added, ok := rd.Added(); ok {
		g.cmax = maxOf(g.cmax, row, added)
	} else {
		g.cmax = rowMax(row)
	}
	for i := lo; i < hi; i++ {
		if rd.Down(i) {
			continue
		}
		if v, done := g.ccells[i].stepDigest(rd.R, g.cmax); done {
			rd.Decide(i, v)
		} else {
			live++
		}
	}
	return live
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
	r.condState(p, c, input)
	return r.eng.RunGroup(res, (*condGroup)(r), p.N, fp, rounds.Options{MaxRounds: p.RMax(), Transport: tr, Cancel: cancel})
}

// RunEarly executes one early-deciding condition-based run under the same
// contract as RunCond.
func (r *Runner) RunEarly(p Params, c condition.Condition, input vector.Vector, fp rounds.FailurePattern, _ bool, tr rounds.Transport, cancel <-chan struct{}, res *rounds.Result) (*rounds.Result, error) {
	if err := ValidateInput(p.N, input); err != nil {
		return nil, err
	}
	r.condState(p, c, input)
	r.earlyState(p.N, p.K)
	return r.eng.RunGroup(res, (*earlyGroup)(r), p.N, fp, rounds.Options{MaxRounds: p.RMax(), Transport: tr, Cancel: cancel})
}

// RunClassical executes one classical flood run. The caller has already
// validated (n, t, k) via ValidateClassical; only the input is checked.
func (r *Runner) RunClassical(n, t, k int, input vector.Vector, fp rounds.FailurePattern, _ bool, tr rounds.Transport, cancel <-chan struct{}, res *rounds.Result) (*rounds.Result, error) {
	if err := ValidateInput(n, input); err != nil {
		return nil, err
	}
	if cap(r.ccells) < n {
		r.ccells = make([]ClassicalProcess, n)
	}
	r.ccells = r.ccells[:n]
	for i := range r.ccells {
		r.ccells[i] = ClassicalProcess{est: input[i], lastRound: t/k + 1}
	}
	return r.eng.RunGroup(res, (*classicalGroup)(r), n, fp, rounds.Options{MaxRounds: t/k + 1, Transport: tr, Cancel: cancel})
}
