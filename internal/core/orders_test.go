package core

import (
	"testing"

	"kset/internal/adversary"
	"kset/internal/condition"
	"kset/internal/rounds"
	"kset/internal/vector"
)

// TestExhaustiveWithOrderPermutations model-checks the Figure-2 algorithm
// and the early-deciding variant against the stronger adversary that also
// reverses the delivery order of late-round partial crashes (the paper
// allows any order after round 1). Every execution must satisfy
// termination, validity, agreement and the round-bound predictions.
func TestExhaustiveWithOrderPermutations(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive model check")
	}
	configs := []struct {
		p Params
		m int
	}{
		{Params{N: 4, T: 2, K: 2, D: 1, L: 1}, 2},
		{Params{N: 4, T: 3, K: 2, D: 1, L: 1}, 2},
		{Params{N: 4, T: 2, K: 1, D: 1, L: 1}, 2},
	}
	for _, cfg := range configs {
		p := cfg.p
		c := condition.MustNewMax(p.N, cfg.m, p.X(), p.L)
		pairs := exhaust(t, p, c, cfg.m, adversary.ExhaustiveOrdersFamily, func(e *exhaustive, input vector.Vector, inC bool, fp rounds.FailurePattern) {
			verdict := Verify(input, fp, e.run("figure2", input, fp), p.K)
			if !verdict.OK() {
				t.Fatalf("cfg %+v input %v (inC=%v) fp %+v orders %+v: %v",
					p, input, inC, fp.Crashes, fp.Orders, verdict)
			}
			if bound := PredictRounds(p, inC, fp); verdict.MaxRound > bound {
				t.Fatalf("cfg %+v input %v fp %+v orders %+v: round %d > bound %d",
					p, input, fp.Crashes, fp.Orders, verdict.MaxRound, bound)
			}

			ev := Verify(input, fp, e.run("early", input, fp), p.K)
			if !ev.OK() {
				t.Fatalf("EARLY cfg %+v input %v (inC=%v) fp %+v orders %+v: %v",
					p, input, inC, fp.Crashes, fp.Orders, ev)
			}
			bound := PredictRounds(p, inC, fp)
			if eb := fp.NumCrashes()/p.K + 3; eb < bound {
				bound = eb
			}
			if ev.MaxRound > bound {
				t.Fatalf("EARLY cfg %+v input %v fp %+v orders %+v: round %d > bound %d",
					p, input, fp.Crashes, fp.Orders, ev.MaxRound, bound)
			}
		})
		runs := 2 * pairs
		t.Logf("cfg %+v m=%d: %d executions verified (incl. order permutations)", p, cfg.m, runs)
	}
}
