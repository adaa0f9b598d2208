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
	id   rounds.ProcessID
	p    Params
	cond condition.Condition

	proposal vector.Value
	view     vector.Vector
	vCond    vector.Value
	vOut     vector.Value
	vTmf     vector.Value

	// msg is the reusable flood payload: Send repopulates it and hands out
	// its address, so a round's broadcast costs no allocation. The engine's
	// lock-step structure (all sends of a round complete before any step
	// reads them) makes the reuse safe; a transport that retains the
	// payload past its round copies it first (StateMsg.Freeze).
	msg StateMsg
}

// Freeze implements rounds.Freezer: a transport delaying or duplicating
// the flood payload past its send round retains this copy instead of the
// sender's reused buffer.
func (s *StateMsg) Freeze() any {
	c := *s
	return &c
}

var _ rounds.Process = (*CondProcess)(nil)

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

// newCondProcess initializes the protocol instance of process i+1 over the
// given (zeroed) view storage. Both the allocating and the pooled
// construction paths go through it.
func newCondProcess(p Params, c condition.Condition, input vector.Vector, i int, view vector.Vector) CondProcess {
	return CondProcess{
		id:       rounds.ProcessID(i + 1),
		p:        p,
		cond:     c,
		proposal: input[i],
		view:     view,
	}
}

// NewRun builds the n protocol instances for input vector input (entry i
// is p_{i+1}'s proposal; it must be a full vector of proposable values).
func NewRun(p Params, c condition.Condition, input vector.Vector) ([]rounds.Process, error) {
	if err := validateRun(p, c, input); err != nil {
		return nil, err
	}
	procs := make([]rounds.Process, p.N)
	for i := 0; i < p.N; i++ {
		cp := newCondProcess(p, c, input, i, vector.New(p.N))
		procs[i] = &cp
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
	c.msg = StateMsg{Cond: c.vCond, Out: c.vOut, Tmf: c.vTmf}
	return &c.msg
}

// Step implements rounds.Process: the compute phases of Figure 2.
func (c *CondProcess) Step(round int, recv []any) (vector.Value, bool) {
	if round == 1 {
		c.stepFirstRound(recv)
		return vector.Bottom, false
	}
	return c.stepFloodRound(round, recv)
}

// stepFirstRound is lines 4–9: build the view V_i and classify it.
func (c *CondProcess) stepFirstRound(recv []any) {
	for j, payload := range recv {
		if v, ok := payload.(vector.Value); ok {
			c.view[j] = v
		}
	}
	if c.view.BottomCount() <= c.p.X() {
		// Lines 6–7 fused: DecodeView reports ok exactly when P(J) holds
		// (some member contains the view) on both the closed-form and the
		// enumeration path, so one decode answers the predicate and yields
		// the candidate value (Definition 4 / Theorem 1) in a single pass.
		if h, ok := condition.DecodeView(c.cond, c.view); ok && !h.Empty() {
			c.vCond = h.Max()
			return
		}
		// Line 7: the view proves the input vector is outside C (or the
		// condition misbehaved and decoded an empty set; degrade to the
		// out branch so that validity and termination survive it).
		c.vOut = c.view.Max()
		return
	}
	// Line 8: too many failures witnessed to tell.
	c.vTmf = c.view.Max()
}

// stepFloodRound is lines 13–22 for rounds 2..⌊t/k⌋+1. The payload of this
// round was already sent (line 13); deciding at line 14 therefore uses the
// value as sent, before merging this round's received states.
func (c *CondProcess) stepFloodRound(round int, recv []any) (vector.Value, bool) {
	if c.vCond != vector.Bottom {
		return c.vCond, true // line 14
	}
	// Lines 15–17: max-merge received states (the sender's own message is
	// always among them while it is alive). A faulty transport can delay
	// a round-1 proposal into a flood round; such stale payloads are not
	// StateMsgs and are discarded — flood rounds ignore late proposals.
	for _, payload := range recv {
		if payload == nil {
			continue
		}
		s, ok := payload.(*StateMsg)
		if !ok {
			continue
		}
		c.vCond = maxValue(c.vCond, s.Cond)
		c.vOut = maxValue(c.vOut, s.Out)
		c.vTmf = maxValue(c.vTmf, s.Tmf)
	}
	// Line 18: decide at the condition round (when some process witnessed
	// more than t−d crashes and none disproved the condition) or at the
	// classical last round.
	if (round == c.p.RCond() && c.vTmf != vector.Bottom && c.vOut == vector.Bottom) ||
		round == c.p.RMax() {
		switch {
		case c.vCond != vector.Bottom:
			return c.vCond, true // line 19
		case c.vTmf != vector.Bottom:
			return c.vTmf, true // line 20
		case c.vOut != vector.Bottom:
			return c.vOut, true // line 21
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

// Run executes one complete instance of the algorithm and returns the
// engine result. It is a convenience wrapper over Runner.RunCond on a
// pooled Runner; sweeps with a dedicated worker should hold their own
// Runner instead.
func Run(p Params, c condition.Condition, input vector.Vector, fp rounds.FailurePattern) (*rounds.Result, error) {
	if err := p.ValidateWith(c); err != nil {
		return nil, err
	}
	r := GetRunner()
	res, err := r.RunCond(p, c, input, fp, false, nil, nil, nil)
	PutRunner(r)
	return res, err
}
