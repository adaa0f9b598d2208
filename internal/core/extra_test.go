package core

import (
	"math/rand"
	"testing"

	"kset/internal/adversary"
	"kset/internal/condition"
	"kset/internal/rounds"
	"kset/internal/vector"
)

// TestMinConditionProtocol runs the algorithm instantiated with a min_ℓ
// condition: the decided values come from the low end of the input.
func TestMinConditionProtocol(t *testing.T) {
	p := Params{N: 6, T: 3, K: 2, D: 1, L: 1}
	c := condition.MustNewMin(p.N, 4, p.X(), p.L)
	input := vector.OfInts(1, 1, 1, 3, 4, 3) // min value 1 on 3 > x=2 entries
	if !c.Contains(input) {
		t.Fatal("input must be in the min condition")
	}
	res, err := runOnce("figure2", p, c, input, adversary.InitialLast(p.N, 2))
	if err != nil {
		t.Fatal(err)
	}
	verdict := Verify(input, adversary.InitialLast(p.N, 2), res, p.K)
	if !verdict.OK() {
		t.Fatal(verdict)
	}
	if verdict.MaxRound != 2 {
		t.Errorf("decided at %d, want 2", verdict.MaxRound)
	}
	if !verdict.Distinct.Equal(vector.SetOf(1)) {
		t.Errorf("decided %v, want the dense minimum {1}", verdict.Distinct)
	}
}

// TestMinConditionExhaustive model-checks the min-condition instantiation.
func TestMinConditionExhaustive(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive model check")
	}
	p := Params{N: 4, T: 2, K: 2, D: 1, L: 1}
	c := condition.MustNewMin(p.N, 2, p.X(), p.L)
	exhaust(t, p, c, 2, adversary.ExhaustiveFamily, func(e *exhaustive, input vector.Vector, inC bool, fp rounds.FailurePattern) {
		verdict := Verify(input, fp, e.run("figure2", input, fp), p.K)
		if !verdict.OK() || verdict.MaxRound > PredictRounds(p, inC, fp) {
			t.Fatalf("input %v (inC=%v) fp %+v: %v", input, inC, fp.Crashes, verdict)
		}
	})
}

func TestPredictRounds(t *testing.T) {
	p := Params{N: 8, T: 5, K: 2, D: 3, L: 1} // x=2, RCond=2, RMax=3
	tests := []struct {
		name string
		inC  bool
		fp   rounds.FailurePattern
		want int
	}{
		{"inC few crashes", true, adversary.InitialLast(8, 2), 2},
		{"inC many round-1 crashes", true, adversary.Stagger(8, 5, 3, 1, 3), p.RCond()},
		{"inC late crashes only", true,
			rounds.FailurePattern{Crashes: map[rounds.ProcessID]rounds.Crash{1: {Round: 2, AfterSends: 0}}}, 2},
		{"outC plain", false, adversary.None(), p.RMax()},
		{"outC many initial", false, adversary.InitialLast(8, 3), p.RCond()},
		{"outC partial round-1 crashes are not initial", false,
			rounds.FailurePattern{Crashes: map[rounds.ProcessID]rounds.Crash{
				1: {Round: 1, AfterSends: 1},
				2: {Round: 1, AfterSends: 1},
				3: {Round: 1, AfterSends: 1},
			}}, p.RMax()},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := PredictRounds(p, tc.inC, tc.fp); got != tc.want {
				t.Errorf("PredictRounds = %d, want %d", got, tc.want)
			}
		})
	}
}

// TestScale sanity-checks the protocol at a size far beyond the
// model-checking regime (n = 48) on both executors.
func TestScale(t *testing.T) {
	p := Params{N: 48, T: 24, K: 3, D: 8, L: 2}
	c := condition.MustNewMax(p.N, 6, p.X(), p.L)
	r := rand.New(rand.NewSource(51))
	input := vector.New(p.N)
	for i := range input {
		if i < 20 {
			input[i] = 6
		} else {
			input[i] = vector.Value(1 + r.Intn(5))
		}
	}
	if !c.Contains(input) {
		t.Fatal("input must be in C")
	}
	for trial := 0; trial < 2; trial++ {
		fp := adversary.Random(r, p.N, p.T, p.RMax())
		res, err := runOnce("figure2", p, c, input, fp)
		if err != nil {
			t.Fatal(err)
		}
		verdict := Verify(input, fp, res, p.K)
		if !verdict.OK() {
			t.Fatalf("trial %d: %v", trial, verdict)
		}
		if bound := PredictRounds(p, true, fp); verdict.MaxRound > bound {
			t.Fatalf("trial %d: round %d > bound %d", trial, verdict.MaxRound, bound)
		}
	}
}

// TestMessageComplexity pins the message counts: the condition-based
// algorithm stops flooding after deciding, so on in-condition inputs it
// delivers fewer messages than the classical baseline whenever
// ⌊t/k⌋+1 > 2.
func TestMessageComplexity(t *testing.T) {
	n, m, tt, k := 8, 4, 6, 2
	p := Params{N: n, T: tt, K: k, D: 2, L: 1}
	c := condition.MustNewMax(n, m, p.X(), p.L)
	input := vector.OfInts(4, 4, 4, 4, 4, 1, 2, 3)
	if !c.Contains(input) {
		t.Fatal("input must be in C")
	}
	cond, err := runOnce("figure2", p, c, input, adversary.None())
	if err != nil {
		t.Fatal(err)
	}
	classical, err := runOnce("classical", Params{N: n, T: tt, K: k}, nil, input, adversary.None())
	if err != nil {
		t.Fatal(err)
	}
	if cond.MessagesDelivered >= classical.MessagesDelivered {
		t.Errorf("condition run delivered %d messages, classical %d: want fewer",
			cond.MessagesDelivered, classical.MessagesDelivered)
	}
}
