package async

import (
	"math/rand"
	"testing"

	"kset/internal/condition"
	"kset/internal/vector"
)

func TestSnapshotBasics(t *testing.T) {
	s := NewSnapshot(3)
	if got := s.Scan(); !got.Equal(vector.OfInts(0, 0, 0)) {
		t.Errorf("fresh scan = %v", got)
	}
	s.Write(1, 7)
	if got := s.Scan(); !got.Equal(vector.OfInts(0, 7, 0)) {
		t.Errorf("scan = %v", got)
	}
	if got := s.AnyNonBottom(); got != 7 {
		t.Errorf("AnyNonBottom = %v", got)
	}
	s.Write(0, 9)
	if got := s.Scan(); !got.Equal(vector.OfInts(9, 7, 0)) {
		t.Errorf("scan = %v", got)
	}
	if got := s.AnyNonBottom(); got != 9 {
		t.Errorf("AnyNonBottom = %v", got)
	}
	// Reset restores an all-⊥ array.
	s.Reset(3)
	if got := s.Scan(); !got.Equal(vector.OfInts(0, 0, 0)) {
		t.Errorf("scan after reset = %v", got)
	}
	if got := s.AnyNonBottom(); got != vector.Bottom {
		t.Errorf("AnyNonBottom after reset = %v", got)
	}
}

func TestRunConfigErrors(t *testing.T) {
	c := condition.MustNewMax(4, 3, 1, 1)
	ok := Config{X: 1, Cond: c, Input: vector.OfInts(3, 3, 1, 2)}
	tests := []struct {
		name   string
		mutate func(Config) Config
	}{
		{"short input", func(c Config) Config { c.Input = vector.OfInts(1, 2); return c }},
		{"bottom input", func(c Config) Config { c.Input = vector.OfInts(1, 0, 1, 1); return c }},
		{"nil condition", func(c Config) Config { c.Cond = nil; return c }},
		{"x negative", func(c Config) Config { c.X = -1; return c }},
		{"x = n", func(c Config) Config { c.X = 4; return c }},
		{"negative budget", func(c Config) Config { c.ScanBudget = -1; return c }},
		{"too many crashes", func(c Config) Config {
			c.Crashes = map[int]CrashPoint{1: CrashBeforeWrite, 2: CrashBeforeWrite}
			return c
		}},
		{"crash of unknown process", func(c Config) Config {
			c.Crashes = map[int]CrashPoint{5: CrashBeforeWrite}
			return c
		}},
		{"crash points wrong length", func(c Config) Config {
			c.CrashPoints = []CrashPoint{NoCrash, CrashBeforeWrite}
			return c
		}},
		{"both crash forms", func(c Config) Config {
			c.Crashes = map[int]CrashPoint{1: CrashBeforeWrite}
			c.CrashPoints = []CrashPoint{CrashBeforeWrite, NoCrash, NoCrash, NoCrash}
			return c
		}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if err := NewRunner().RunInto(tc.mutate(ok), new(Outcome)); err == nil {
				t.Error("want error")
			}
		})
	}
}

// TestTerminationInCondition: input ∈ C with up to x crashes ⟹ every
// correct process decides, at most ℓ values, all from h_ℓ(input).
func TestTerminationInCondition(t *testing.T) {
	n, m, x, l := 5, 3, 2, 2
	c := condition.MustNewMax(n, m, x, l)
	input := vector.OfInts(3, 3, 2, 1, 2)
	if !c.Contains(input) {
		t.Fatal("input must be in C")
	}
	for _, crashes := range []map[int]CrashPoint{
		nil,
		{5: CrashBeforeWrite},
		{4: CrashBeforeWrite, 5: CrashBeforeWrite},
		{2: CrashAfterWrite, 5: CrashBeforeWrite},
	} {
		out := new(Outcome)
		if err := NewRunner().RunInto(Config{X: x, Cond: c, Input: input, Crashes: crashes, Seed: 7}, out); err != nil {
			t.Fatal(err)
		}
		if len(out.Undecided) != 0 {
			t.Fatalf("crashes=%v: undecided %v", crashes, out.Undecided)
		}
		for id := 1; id <= n; id++ {
			if crashes[id] != NoCrash {
				continue
			}
			if _, ok := out.Decision(id); !ok {
				t.Fatalf("crashes=%v: correct p%d did not decide", crashes, id)
			}
		}
		distinct := out.DistinctDecisions()
		if distinct.Len() > l {
			t.Fatalf("crashes=%v: %d distinct values %v > ℓ=%d", crashes, distinct.Len(), distinct, l)
		}
		if !distinct.SubsetOf(c.Recognize(input)) {
			t.Fatalf("crashes=%v: decided %v ⊄ h_ℓ(I)=%v", crashes, distinct, c.Recognize(input))
		}
	}
}

// TestSafetyOutsideCondition: with an input outside C the algorithm may
// block, but whatever is decided stays within ℓ values and validity.
func TestSafetyOutsideCondition(t *testing.T) {
	n, m, x, l := 5, 4, 2, 1
	c := condition.MustNewMax(n, m, x, l)
	input := vector.OfInts(4, 3, 2, 1, 1) // max appears once: outside C
	if c.Contains(input) {
		t.Fatal("input must be outside C")
	}
	for seed := int64(0); seed < 10; seed++ {
		out := new(Outcome)
		if err := NewRunner().RunInto(Config{X: x, Cond: c, Input: input, Seed: seed}, out); err != nil {
			t.Fatal(err)
		}
		distinct := out.DistinctDecisions()
		if distinct.Len() > l {
			t.Fatalf("seed=%d: %d distinct values %v", seed, distinct.Len(), distinct)
		}
		for id := 1; id <= n; id++ {
			if v, ok := out.Decision(id); ok && !input.Vals().Has(v) {
				t.Fatalf("seed=%d: p%d decided unproposed %v", seed, id, v)
			}
		}
	}
}

// TestBlockingOutsideCondition exhibits the conditional-termination face:
// an input every view of which proves I ∉ C leaves every process undecided.
// (A max_ℓ-generated condition can never block this way — a view missing
// exactly x entries can always be completed into it — so the witness is an
// explicit single-vector condition.)
func TestBlockingOutsideCondition(t *testing.T) {
	n, x := 4, 1
	c := condition.MustNewExplicit(n, 4, 1)
	c.MustAdd(vector.OfInts(1, 1, 2, 3), vector.SetOf(1))
	if v := condition.Check(c, x, condition.CheckOptions{}); v != nil {
		t.Fatalf("witness condition not (1,1)-legal: %v", v)
	}
	input := vector.OfInts(2, 2, 3, 1)
	if c.Contains(input) {
		t.Fatal("input must be outside C")
	}
	// Premise: every view of input with ≤ x missing entries fails P.
	allViewsFail := true
	vector.ForEachView(input, x, func(j vector.Vector) bool {
		if condition.Predicate(c, j) {
			allViewsFail = false
			return false
		}
		return true
	})
	if !allViewsFail {
		t.Fatal("premise broken: some view can still be completed into C")
	}
	out := new(Outcome)
	if err := NewRunner().RunInto(Config{X: x, Cond: c, Input: input, Seed: 3}, out); err != nil {
		t.Fatal(err)
	}
	if out.DecidedCount() != 0 {
		t.Fatalf("unexpected decisions %v", out.Decided)
	}
	// The undecided list is sorted, so the blocked run reports exactly
	// 1..n in order.
	if len(out.Undecided) != n {
		t.Fatalf("undecided = %v, want all %d", out.Undecided, n)
	}
	for i, id := range out.Undecided {
		if id != i+1 {
			t.Fatalf("undecided not sorted: %v", out.Undecided)
		}
	}
}

// TestOutcomeDeterministic: a run is a pure function of (Config, Seed) —
// repeating a seed replays the identical outcome, on fresh and on reused
// runners alike, and the undecided list is byte-identical too.
func TestOutcomeDeterministic(t *testing.T) {
	n, m, x, l := 6, 4, 2, 2
	c := condition.MustNewMax(n, m, x, l)
	inC := vector.OfInts(4, 4, 4, 2, 1, 2)
	outC := vector.OfInts(4, 3, 2, 1, 1, 2) // outside C: some processes give up
	r := NewRunner()
	for _, tc := range []struct {
		name  string
		input vector.Vector
	}{{"in-condition", inC}, {"outside-condition", outC}} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(0); seed < 8; seed++ {
				cfg := Config{
					X: x, Cond: c, Input: tc.input, Seed: seed,
					Crashes: map[int]CrashPoint{6: CrashAfterWrite},
				}
				first := new(Outcome)
				if err := NewRunner().RunInto(cfg, first); err != nil {
					t.Fatal(err)
				}
				for rep := 0; rep < 3; rep++ {
					var got Outcome
					if err := r.RunInto(cfg, &got); err != nil {
						t.Fatal(err)
					}
					if !got.Decided.Equal(first.Decided) {
						t.Fatalf("seed %d rep %d: decisions %v != %v", seed, rep, got.Decided, first.Decided)
					}
					if len(got.Undecided) != len(first.Undecided) {
						t.Fatalf("seed %d rep %d: undecided %v != %v", seed, rep, got.Undecided, first.Undecided)
					}
					for i := range got.Undecided {
						if got.Undecided[i] != first.Undecided[i] {
							t.Fatalf("seed %d rep %d: undecided %v != %v", seed, rep, got.Undecided, first.Undecided)
						}
					}
				}
			}
		})
	}
}

// TestSubstrateGridIdentical is the substrate-interchangeability property
// test: for the same (seed, input, crashes), the mutex, wait-free and
// message-passing substrates produce identical outcomes — under the
// virtual scheduler every substrate serves each scan the exact register
// state, so the grid agrees not just on value sets but bit for bit.
func TestSubstrateGridIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	grid := []MemoryKind{MutexMemory, WaitFreeMemory, MessagePassingMemory}
	for trial := 0; trial < 40; trial++ {
		n := 4 + r.Intn(4)
		m := 2 + r.Intn(3)
		x := r.Intn((n + 1) / 2) // x < n/2 so the grid includes message passing
		l := 1 + r.Intn(2)
		c := condition.MustNewMax(n, m, x, l)
		input := vector.New(n)
		for i := range input {
			input[i] = vector.Value(1 + r.Intn(m))
		}
		crashes := map[int]CrashPoint{}
		perm := r.Perm(n)
		for i := 0; i < r.Intn(x+1); i++ {
			crashes[perm[i]+1] = CrashPoint(1 + r.Intn(2))
		}
		var ref *Outcome
		for _, kind := range grid {
			out := new(Outcome)
			if err := NewRunner().RunInto(Config{
				X: x, Cond: c, Input: input, Crashes: crashes,
				Seed: int64(trial), Memory: kind,
			}, out); err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref = out
				continue
			}
			if !out.Decided.Equal(ref.Decided) {
				t.Fatalf("trial %d: %v decided %v, want %v (input %v crashes %v)",
					trial, kind, out.Decided, ref.Decided, input, crashes)
			}
			if len(out.Undecided) != len(ref.Undecided) {
				t.Fatalf("trial %d: %v undecided %v, want %v", trial, kind, out.Undecided, ref.Undecided)
			}
			for i := range out.Undecided {
				if out.Undecided[i] != ref.Undecided[i] {
					t.Fatalf("trial %d: %v undecided %v, want %v", trial, kind, out.Undecided, ref.Undecided)
				}
			}
		}
	}
}

// TestPropertyRandom fuzzes inputs, conditions and crash sets: safety must
// hold on every interleaving, and termination whenever the input is in C.
func TestPropertyRandom(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		n := 3 + r.Intn(4)
		m := 2 + r.Intn(3)
		x := r.Intn(n - 1)
		l := 1 + r.Intn(2)
		c := condition.MustNewMax(n, m, x, l)
		input := vector.New(n)
		for i := range input {
			input[i] = vector.Value(1 + r.Intn(m))
		}
		crashes := map[int]CrashPoint{}
		perm := r.Perm(n)
		for i := 0; i < r.Intn(x+1); i++ {
			crashes[perm[i]+1] = CrashPoint(1 + r.Intn(2))
		}
		out := new(Outcome)
		if err := NewRunner().RunInto(Config{
			X: x, Cond: c, Input: input, Crashes: crashes, Seed: int64(trial),
		}, out); err != nil {
			t.Fatal(err)
		}
		if d := out.DistinctDecisions(); d.Len() > l {
			t.Fatalf("trial %d: %d values %v > ℓ=%d (input %v)", trial, d.Len(), d, l, input)
		}
		for id := 1; id <= n; id++ {
			if v, ok := out.Decision(id); ok && !input.Vals().Has(v) {
				t.Fatalf("trial %d: p%d decided unproposed %v", trial, id, v)
			}
		}
		if c.Contains(input) && len(out.Undecided) > 0 {
			t.Fatalf("trial %d: input in C but undecided %v", trial, out.Undecided)
		}
	}
}
