package rounds

import (
	"math/rand"
	"testing"

	"kset/internal/vector"
)

func resultsEqual(a, b *Result) bool {
	if len(a.Decisions) != len(b.Decisions) || a.Rounds != b.Rounds ||
		a.MessagesDelivered != b.MessagesDelivered || len(a.Crashed) != len(b.Crashed) {
		return false
	}
	for id, v := range a.Decisions {
		if b.Decisions[id] != v || a.DecisionRound[id] != b.DecisionRound[id] {
			return false
		}
	}
	for id := range a.Crashed {
		if !b.Crashed[id] {
			return false
		}
	}
	return true
}

func randPattern(r *rand.Rand, n, t, maxRounds int) FailurePattern {
	fp := FailurePattern{Crashes: make(map[ProcessID]Crash)}
	perm := r.Perm(n)
	for i := 0; i < r.Intn(t+1); i++ {
		fp.Crashes[ProcessID(perm[i]+1)] = Crash{
			Round:      1 + r.Intn(maxRounds),
			AfterSends: r.Intn(n + 1),
		}
	}
	return fp
}

// TestEngineSharedRowMatchesMatrix cross-checks the shared-row fast path
// against the transport seam's n×n matrix (forced via tracing) over
// randomized failure patterns: both must produce identical results.
func TestEngineSharedRowMatchesMatrix(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		n := 2 + r.Intn(6)
		maxRounds := 1 + r.Intn(4)
		fp := randPattern(r, n, n-1, maxRounds)
		vals := make([]vector.Value, n)
		for i := range vals {
			vals[i] = vector.Value(1 + r.Intn(5))
		}
		decideAt := 1 + r.Intn(maxRounds)

		fast, err := Run(newFloodRun(vals, decideAt), fp, Options{MaxRounds: maxRounds})
		if err != nil {
			t.Fatal(err)
		}
		var trace Trace
		matrix, err := Run(newFloodRun(vals, decideAt), fp, Options{MaxRounds: maxRounds, Trace: &trace})
		if err != nil {
			t.Fatal(err)
		}
		if !resultsEqual(fast, matrix) {
			t.Fatalf("row path diverged from matrix path: fp=%+v vals=%v\nrow:    %+v\nmatrix: %+v",
				fp, vals, fast, matrix)
		}
	}
}

// orderLenTransport is a MatrixTransport that records every Send whose
// order is not exactly one entry per process of the current run.
type orderLenTransport struct {
	MatrixTransport
	bad []int
}

func (t *orderLenTransport) Send(r int, src ProcessID, payload any, order []ProcessID, limit int) {
	if len(order) != t.n {
		t.bad = append(t.bad, len(order))
	}
	t.MatrixTransport.Send(r, src, payload, order, limit)
}

// TestEngineReuse runs one Engine across runs of different sizes — growing
// and shrinking, on the fast path and through the transport seam — and
// checks each result against a fresh one-shot Run. On the seam every Send
// must carry a send order of exactly n entries: a transport that shuffles
// the order would otherwise deliver to processes a smaller run lacks.
func TestEngineReuse(t *testing.T) {
	e := NewEngine()
	tr := &orderLenTransport{}
	r := rand.New(rand.NewSource(12))
	for _, n := range []int{6, 2, 8, 3, 8, 5} {
		fp := randPattern(r, n, n-1, 3)
		vals := make([]vector.Value, n)
		for i := range vals {
			vals[i] = vector.Value(1 + r.Intn(4))
		}
		want, err := Run(newFloodRun(vals, 2), fp, Options{MaxRounds: 3})
		if err != nil {
			t.Fatal(err)
		}
		for _, opts := range []Options{{MaxRounds: 3}, {MaxRounds: 3, Transport: tr}} {
			got, err := e.Run(newFloodRun(vals, 2), fp, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !resultsEqual(got, want) {
				t.Fatalf("n=%d seam=%v: reused engine %+v, fresh run %+v", n, opts.Transport != nil, got, want)
			}
		}
		if len(tr.bad) > 0 {
			t.Fatalf("n=%d: Send got orders of length %v, want %d", n, tr.bad, n)
		}
	}
}

// TestEngineResultSurvivesReuse pins the Run contract that a returned
// Result is unaffected by later runs on the same engine.
func TestEngineResultSurvivesReuse(t *testing.T) {
	e := NewEngine()
	first, err := e.Run(newFloodRun([]vector.Value{3, 1, 2}, 1), FailurePattern{}, Options{MaxRounds: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(newFloodRun([]vector.Value{9, 9, 9, 9}, 1), FailurePattern{}, Options{MaxRounds: 2}); err != nil {
		t.Fatal(err)
	}
	if len(first.Decisions) != 3 || first.Decisions[1] != 1 {
		t.Fatalf("first result mutated by engine reuse: %+v", first)
	}
}

// TestEngineRoundAllocBudget pins the per-run allocation budget of a
// reused engine: one Result plus its three maps (whose bucket allocation
// brings the observed count to ~11 at n=16), nothing per round or per
// message — the old executor allocated the n×n matrix and a send order per
// sender every round.
func TestEngineRoundAllocBudget(t *testing.T) {
	const n = 16
	vals := make([]vector.Value, n)
	for i := range vals {
		vals[i] = vector.Value(1 + i%7)
	}
	e := NewEngine()
	procs := newFloodRun(vals, 1) // state reaches its fixpoint after run 1
	if _, err := e.Run(procs, FailurePattern{}, Options{MaxRounds: 1}); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(200, func() {
		if _, err := e.Run(procs, FailurePattern{}, Options{MaxRounds: 1}); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 12 {
		t.Errorf("engine round allocates %.1f times per run, want ≤ 12", avg)
	}
}
