package core

import (
	"fmt"

	"kset/internal/rounds"
	"kset/internal/vector"
)

// Verdict is the outcome of checking one execution against the k-set
// agreement specification and, optionally, against predicted round bounds.
type Verdict struct {
	// Termination: every correct (non-crashed) process decided.
	Termination bool
	// Validity: every decided value was proposed.
	Validity bool
	// Agreement: at most k distinct values were decided.
	Agreement bool
	// MaxRound is the latest decision round (0 when nobody decided).
	MaxRound int
	// Distinct is the set of decided values.
	Distinct vector.Set
	// Violations describes each failed property.
	Violations []string
}

// OK reports whether all three agreement properties hold.
func (v Verdict) OK() bool { return v.Termination && v.Validity && v.Agreement }

// String implements fmt.Stringer.
func (v Verdict) String() string {
	if v.OK() {
		return fmt.Sprintf("ok (decided %v by round %d)", v.Distinct, v.MaxRound)
	}
	return fmt.Sprintf("FAILED %v", v.Violations)
}

// Verify checks one execution result against the k-set agreement
// specification for the given input vector and failure pattern.
func Verify(input vector.Vector, fp rounds.FailurePattern, res *rounds.Result, k int) Verdict {
	v := Verdict{Termination: true, Validity: true, Agreement: true}

	for id := 1; id <= len(input); id++ {
		pid := rounds.ProcessID(id)
		if _, crashed := fp.Crashes[pid]; crashed {
			continue
		}
		if _, decided := res.Decisions[pid]; !decided {
			v.Termination = false
			v.Violations = append(v.Violations, fmt.Sprintf("termination: correct p%d did not decide", id))
		}
	}

	// One pass over the decisions collects validity, the distinct value
	// set and the latest decision round together.
	proposed := input.Vals()
	for id, val := range res.Decisions {
		if !proposed.Has(val) {
			v.Validity = false
			v.Violations = append(v.Violations, fmt.Sprintf("validity: p%d decided unproposed %v", id, val))
		}
		v.Distinct = v.Distinct.Add(val)
		if r := res.DecisionRound[id-1]; r > v.MaxRound {
			v.MaxRound = r
		}
	}
	if v.Distinct.Len() > k {
		v.Agreement = false
		v.Violations = append(v.Violations, fmt.Sprintf("agreement: %d distinct values %v > k=%d", v.Distinct.Len(), v.Distinct, k))
	}
	return v
}

// PredictRounds returns the paper's round-bound prediction (Theorem 10 and
// Lemmas 1–2) for an execution of the Figure-2 algorithm:
//
//   - input ∈ C and at most t−d crashes by the end of round 1: 2 rounds;
//   - input ∈ C otherwise: RCond rounds;
//   - input ∉ C with more than t−d initial crashes: RCond rounds;
//   - input ∉ C otherwise: RMax rounds.
//
// The predictions are upper bounds on the latest decision round.
func PredictRounds(p Params, inCondition bool, fp rounds.FailurePattern) int {
	switch {
	case inCondition && fp.CrashesByEndOfRound(1) <= p.X():
		return 2
	case inCondition:
		return p.RCond()
	case fp.InitialCrashes() > p.X():
		return p.RCond()
	default:
		return p.RMax()
	}
}
