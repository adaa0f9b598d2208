package core

import (
	"fmt"

	"kset/internal/condition"
	"kset/internal/kerr"
	"kset/internal/rounds"
	"kset/internal/vector"
)

// StateMsg is the triple a process floods from round 2 on: its current
// candidate decision values from the condition branch, the
// outside-the-condition branch, and the too-many-failures branch. The
// paper's priority for deciding is Cond > Tmf > Out.
type StateMsg struct {
	Cond, Out, Tmf vector.Value
}

// String implements fmt.Stringer (used by execution traces).
func (s StateMsg) String() string {
	return fmt.Sprintf("(cond=%v tmf=%v out=%v)", s.Cond, s.Tmf, s.Out)
}

// CondProcess is one process of the Figure-2 condition-based synchronous
// k-set agreement algorithm. Create the n processes of a run with NewRun.
type CondProcess struct {
	proposal vector.Value
	state    StateMsg // v_cond, v_out, v_tmf

	// msg is the reusable flood payload: Send repopulates it and hands out
	// its address, so a round's broadcast costs no allocation. The engine's
	// lock-step structure (all sends of a round complete before any step
	// reads them) makes the reuse safe; a transport that retains the
	// payload past its round copies it first (StateMsg.Freeze).
	msg StateMsg

	fold *condFold
	// view is Step's round-1 scratch: a NewRun process owns it, so that
	// Step writes nothing the run's processes share (wire nodes step them
	// from n goroutines).
	view vector.Vector
}

// condFold is the run's constants, which its n processes share, read-only
// once the run starts. Everything a compute phase takes from a row is in
// the row's digest (foldRow) — round 1's view V and its one classification
// (lines 4–8), a flood round's max-merged state triple (lines 15–17) — so
// receivers of the same row can share one digest: a Runner's Group folds
// each row it steps once.
type condFold struct {
	cond        condition.Condition
	x           int // t − d
	rCond, rMax int
}

func newCondFold(p Params, c condition.Condition) condFold {
	return condFold{cond: c, x: p.X(), rCond: p.RCond(), rMax: p.RMax()}
}

// Freeze implements rounds.Freezer: a transport delaying or duplicating
// the flood payload past its send round retains this copy — into, when it
// is a retired one — instead of the sender's reused buffer.
func (s *StateMsg) Freeze(into any) any {
	c, ok := into.(*StateMsg)
	if !ok {
		c = new(StateMsg)
	}
	*c = *s
	return c
}

// validateRun checks the shared preconditions of every condition-based
// run constructor.
func validateRun(p Params, c condition.Condition, input vector.Vector) error {
	if err := p.ValidateWith(c); err != nil {
		return err
	}
	return ValidateInput(p.N, input)
}

// ValidateInput checks a run's input vector: n entries, no ⊥, and every
// value within the bitmask domain cap. It is the only check the Runner hot
// paths perform per run — everything else is established at construction.
func ValidateInput(n int, input vector.Vector) error {
	if len(input) != n {
		return fmt.Errorf("core: input vector has %d entries, want %d: %w", len(input), n, kerr.ErrBadInput)
	}
	if !input.IsFull() {
		return fmt.Errorf("core: input vector %v has ⊥ entries: %w", input, kerr.ErrBadInput)
	}
	return validateInputDomain(input)
}

// validateInputDomain rejects input values the bitmask value sets cannot
// represent, so runs error out instead of panicking deep in a Set op.
func validateInputDomain(input vector.Vector) error {
	for _, v := range input {
		if v > vector.MaxSetValue {
			return fmt.Errorf("core: input value %v beyond the value-domain cap %d: %w", v, vector.MaxSetValue, kerr.ErrDomainTooLarge)
		}
	}
	return nil
}

// NewRun builds the n protocol instances for input vector input (entry i
// is p_{i+1}'s proposal; it must be a full vector of proposable values).
// The instances may be stepped concurrently, one goroutine each.
func NewRun(p Params, c condition.Condition, input vector.Vector) ([]rounds.Process, error) {
	if err := validateRun(p, c, input); err != nil {
		return nil, err
	}
	views := vector.New(p.N * p.N) // one per process
	fold := newCondFold(p, c)
	procs := make([]rounds.Process, p.N)
	for i := range procs {
		procs[i] = &CondProcess{proposal: input[i], fold: &fold, view: views[i*p.N : (i+1)*p.N]}
	}
	return procs, nil
}

// Send implements rounds.Process: round 1 broadcasts the proposal (the
// engine enforces the fixed p_1..p_n order that makes views
// containment-ordered); later rounds broadcast the state triple.
func (c *CondProcess) Send(round int) any {
	if round == 1 {
		return c.proposal
	}
	c.msg = c.state
	return &c.msg
}

// Step implements rounds.Process: the compute phases of Figure 2, the row's
// digest (foldRow) into a digest of the process's own, then stepDigest.
func (c *CondProcess) Step(round int, recv []any) (vector.Value, bool) {
	var d StateMsg
	c.fold.foldRow(&d, c.view, round, recv)
	return c.stepDigest(round, &d)
}

// foldRow digests recv into d, the part of a compute phase that reads the
// row and nothing of the process, with view as round 1's scratch. It writes
// nothing else.
func (f *condFold) foldRow(d *StateMsg, view vector.Vector, round int, recv []any) {
	*d = StateMsg{}
	if round == 1 {
		f.foldFirstRound(d, view, recv)
		return
	}
	// Lines 15–17: max-merge the received states. A faulty transport can
	// delay a round-1 proposal into a flood round; such stale payloads are
	// not StateMsgs and are discarded — flood rounds ignore late proposals.
	for _, payload := range recv {
		if s, ok := payload.(*StateMsg); ok {
			d.merge(s)
		}
	}
}

// extend is foldRow of a row that extends the one d and view were folded
// from by the senders in added: round 1 patches the view and classifies it
// again, a flood round merges the added states.
func (f *condFold) extend(d *StateMsg, view vector.Vector, round int, recv []any, added []int) {
	if round == 1 {
		for _, j := range added {
			view[j], _ = recv[j].(vector.Value)
		}
		*d = StateMsg{}
		f.classify(d, view)
		return
	}
	for _, j := range added {
		if s, ok := recv[j].(*StateMsg); ok {
			d.merge(s)
		}
	}
}

// foldFirstRound is lines 4–8: build the view V and classify it.
func (f *condFold) foldFirstRound(d *StateMsg, view vector.Vector, recv []any) {
	for j, payload := range recv {
		view[j], _ = payload.(vector.Value)
	}
	f.classify(d, view)
}

// classify is lines 5–8 on the view V, into the ⊥ triple d: exactly one
// field is set.
func (f *condFold) classify(d *StateMsg, view vector.Vector) {
	if view.BottomCount() <= f.x {
		// Lines 6–7 fused: DecodeView reports ok exactly when P(J) holds
		// (some member contains the view) on both the closed-form and the
		// enumeration path, so one decode answers the predicate and yields
		// the candidate value (Definition 4 / Theorem 1) in a single pass.
		if h, ok := condition.DecodeView(f.cond, view); ok && !h.Empty() {
			d.Cond = h.Max()
			return
		}
		// Line 7: the view proves the input vector is outside C (or the
		// condition misbehaved and decoded an empty set; degrade to the
		// out branch so that validity and termination survive it).
		d.Out = view.Max()
		return
	}
	// Line 8: too many failures witnessed to tell.
	d.Tmf = view.Max()
}

// merge max-merges t into s, field by field.
func (s *StateMsg) merge(t *StateMsg) {
	s.Cond = maxValue(s.Cond, t.Cond)
	s.Out = maxValue(s.Out, t.Out)
	s.Tmf = maxValue(s.Tmf, t.Tmf)
}

// stepDigest is the part of a compute phase that reads the row's digest d
// and the process: line 9 in round 1, lines 14–22 in rounds 2..⌊t/k⌋+1. A
// flood round's payload was already sent (line 13); deciding at line 14
// therefore uses the value as sent, before merging this round's received
// states.
func (c *CondProcess) stepDigest(round int, d *StateMsg) (vector.Value, bool) {
	f := c.fold
	if round == 1 {
		c.state = *d
		return vector.Bottom, false
	}
	if c.state.Cond != vector.Bottom {
		return c.state.Cond, true // line 14
	}
	c.state.merge(d)
	// Line 18: decide at the condition round (when some process witnessed
	// more than t−d crashes and none disproved the condition) or at the
	// classical last round.
	if (round == f.rCond && c.state.Tmf != vector.Bottom && c.state.Out == vector.Bottom) ||
		round == f.rMax {
		switch {
		case c.state.Cond != vector.Bottom:
			return c.state.Cond, true // line 19
		case c.state.Tmf != vector.Bottom:
			return c.state.Tmf, true // line 20
		case c.state.Out != vector.Bottom:
			return c.state.Out, true // line 21
		}
		// All three classes are ⊥: the process received nothing in any
		// round, not even its own echo — impossible under the paper's
		// reliable links, possible under a fault-injecting transport that
		// lost every copy. There is no value to decide; halt undecided
		// (a counted outcome) rather than emit ⊥.
	}
	return vector.Bottom, false
}

func maxValue(a, b vector.Value) vector.Value {
	if a >= b {
		return a
	}
	return b
}
