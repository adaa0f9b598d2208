package core

import (
	"math/rand"
	"testing"

	"kset/internal/adversary"
	"kset/internal/condition"
	"kset/internal/rounds"
	"kset/internal/vector"
)

// newEarlyRun builds the n early-deciding condition-based protocol
// instances for the input vector, as plain rounds.Processes. Like NewRun's,
// they may be stepped concurrently, one goroutine each.
func newEarlyRun(p Params, c condition.Condition, input vector.Vector) ([]rounds.Process, error) {
	base, err := NewRun(p, c, input)
	if err != nil {
		return nil, err
	}
	procs := make([]rounds.Process, len(base))
	for i, b := range base {
		row := newEarlyRow(p.N)
		procs[i] = &EarlyCondProcess{inner: b.(*CondProcess), early: earlyTracker{k: p.K, flagged: make([]uint64, bitWords(p.N))}, row: &row}
	}
	return procs, nil
}

// TestEarlyCondExhaustive model-checks the early-deciding condition-based
// algorithm: all three agreement properties plus both round bounds (the
// Figure-2 bounds and the early bound) in every execution.
func TestEarlyCondExhaustive(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive model check")
	}
	configs := []struct {
		p Params
		m int
	}{
		{Params{N: 4, T: 2, K: 2, D: 1, L: 1}, 2},
		{Params{N: 4, T: 3, K: 2, D: 1, L: 1}, 2},
		{Params{N: 4, T: 3, K: 1, D: 1, L: 1}, 2},
		{Params{N: 4, T: 2, K: 2, D: 1, L: 2}, 3},
	}
	for _, cfg := range configs {
		p := cfg.p
		c := condition.MustNewMax(p.N, cfg.m, p.X(), p.L)
		runs := exhaust(t, p, c, cfg.m, adversary.ExhaustiveFamily, func(e *exhaustive, input vector.Vector, inC bool, fp rounds.FailurePattern) {
			verdict := Verify(input, fp, e.run("early", input, fp), p.K)
			if !verdict.OK() {
				t.Fatalf("cfg %+v input %v (inC=%v) fp %+v: %v", p, input, inC, fp.Crashes, verdict)
			}
			// The stability guard costs one round over the classical
			// early bound: measured bound min(plain, ⌊f/k⌋+3).
			bound := PredictRounds(p, inC, fp)
			if eb := fp.NumCrashes()/p.K + 3; eb < bound {
				bound = eb
			}
			if verdict.MaxRound > bound {
				t.Fatalf("cfg %+v input %v (inC=%v) fp %+v: decided at %d > bound %d",
					p, input, inC, fp.Crashes, verdict.MaxRound, bound)
			}
		})
		t.Logf("cfg %+v m=%d: %d executions verified", p, cfg.m, runs)
	}
}

// TestEarlyCondNeverSlower: the early extension decides no later than the
// plain algorithm, run for run.
func TestEarlyCondNeverSlower(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	p := Params{N: 6, T: 4, K: 2, D: 2, L: 1}
	c := condition.MustNewMax(p.N, 3, p.X(), p.L)
	for trial := 0; trial < 200; trial++ {
		input := vector.New(p.N)
		for i := range input {
			input[i] = vector.Value(1 + r.Intn(3))
		}
		fp := adversary.Random(r, p.N, p.T, p.RMax())
		plain, err := runOnce("figure2", p, c, input, fp)
		if err != nil {
			t.Fatal(err)
		}
		early, err := runOnce("early", p, c, input, fp)
		if err != nil {
			t.Fatal(err)
		}
		if early.MaxDecisionRound() > plain.MaxDecisionRound() {
			t.Fatalf("early %d > plain %d for input %v fp %+v",
				early.MaxDecisionRound(), plain.MaxDecisionRound(), input, fp.Crashes)
		}
		if v := Verify(input, fp, early, p.K); !v.OK() {
			t.Fatalf("input %v fp %+v: %v", input, fp.Crashes, v)
		}
	}
}

func TestEarlyErrors(t *testing.T) {
	p := Params{N: 4, T: 2, K: 2, D: 5, L: 1}
	if _, err := newEarlyRun(p, condition.MustNewMax(4, 2, 1, 1), vector.OfInts(1, 1, 1, 1)); err == nil {
		t.Error("want error for invalid params")
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
