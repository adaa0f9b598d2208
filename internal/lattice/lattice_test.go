package lattice

import (
	"strings"
	"testing"

	"kset/internal/condition"
	"kset/internal/vector"
)

func TestDensestMass(t *testing.T) {
	v := vector.OfInts(1, 1, 1, 5, 5, 2)
	tests := []struct {
		l, want int
	}{{1, 3}, {2, 5}, {3, 6}, {4, 6}}
	for _, tc := range tests {
		if got := densestMass(v, tc.l); got != tc.want {
			t.Errorf("densestMass(ℓ=%d) = %d, want %d", tc.l, got, tc.want)
		}
	}
}

// TestTheorem4 checks inclusion: every (x+1,ℓ)-legal max condition is
// (x,ℓ)-legal.
func TestTheorem4(t *testing.T) {
	for _, tc := range []struct{ n, m, x, l int }{
		{4, 3, 1, 1}, {4, 3, 2, 1}, {4, 3, 1, 2}, {5, 2, 2, 2},
	} {
		c := enumerateMax(tc.n, tc.m, tc.x+1, tc.l)
		if c.Size() == 0 {
			t.Fatalf("empty witness for %+v", tc)
		}
		if v := condition.Check(c, tc.x, checkOpts); v != nil {
			t.Errorf("Theorem 4 fails at %+v: %v", tc, v)
		}
	}
}

// TestTheorem5 checks strictness: the Theorem-5 family is (x,ℓ)-legal but
// admits no (x+1,ℓ)-recognizer.
func TestTheorem5(t *testing.T) {
	for _, tc := range []struct{ n, m, x, l int }{
		{4, 3, 1, 1}, {4, 3, 2, 1}, {5, 4, 2, 2}, {4, 4, 1, 2},
	} {
		c, err := Theorem5Condition(tc.n, tc.m, tc.x, tc.l)
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		if v := condition.Check(c, tc.x, checkOpts); v != nil {
			t.Errorf("Theorem 5 witness not (x,ℓ)-legal at %+v: %v", tc, v)
		}
		if _, ok := condition.ExistsRecognizer(c, tc.x+1); ok {
			t.Errorf("Theorem 5 witness unexpectedly (x+1,ℓ)-legal at %+v", tc)
		}
	}
}

// TestTheorem6 checks the constructive boost: g_{ℓ+1} built from h_ℓ keeps
// the condition legal at (x, ℓ+1).
func TestTheorem6(t *testing.T) {
	for _, tc := range []struct{ n, m, x, l int }{
		{4, 3, 1, 1}, {4, 3, 2, 1}, {4, 3, 2, 2}, {5, 2, 2, 1},
	} {
		base := enumerateMax(tc.n, tc.m, tc.x, tc.l)
		boosted, err := BoostL(base)
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		if boosted.L() != tc.l+1 {
			t.Fatalf("boosted L = %d, want %d", boosted.L(), tc.l+1)
		}
		if v := condition.Check(boosted, tc.x, checkOpts); v != nil {
			t.Errorf("Theorem 6 boost not (x,ℓ+1)-legal at %+v: %v", tc, v)
		}
	}
}

// TestTheorem7 checks strictness in ℓ: the Theorem-7 family is
// (x,ℓ+1)-legal but admits no (x,ℓ)-recognizer.
func TestTheorem7(t *testing.T) {
	for _, tc := range []struct{ n, m, x, l int }{
		{4, 3, 2, 1}, {3, 3, 2, 2}, {5, 3, 3, 1}, {4, 4, 3, 2},
	} {
		c, err := Theorem7Condition(tc.n, tc.m, tc.x, tc.l)
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		if v := condition.Check(c, tc.x, checkOpts); v != nil {
			t.Errorf("Theorem 7 witness not (x,ℓ+1)-legal at %+v: %v", tc, v)
		}
		if _, ok := condition.ExistsRecognizer(WithL(c, tc.l), tc.x); ok {
			t.Errorf("Theorem 7 witness unexpectedly (x,ℓ)-legal at %+v", tc)
		}
	}
}

// TestTheorems8And9 checks the all-vectors boundary: C_all is (x,ℓ)-legal
// iff ℓ > x. The positive side uses the max_ℓ recognizer; the negative side
// exhausts all recognizing functions on a refuting subset (or C_all itself).
func TestTheorems8And9(t *testing.T) {
	n, m := 4, 3
	for x := 0; x <= 2; x++ {
		for l := 1; l <= 3; l++ {
			all := AllVectorsCondition(n, m, l)
			if l > x {
				if v := condition.Check(all, x, checkOpts); v != nil {
					t.Errorf("Theorem 8 fails at x=%d ℓ=%d: %v", x, l, v)
				}
				continue
			}
			// Theorem 9: refute via a subset with no recognizer
			// (non-legality is inherited upward).
			c7, err := Theorem7Condition(n, m, x, l)
			if err != nil {
				if _, ok := condition.ExistsRecognizer(all, x); ok {
					t.Errorf("Theorem 9 fails at x=%d ℓ=%d: C_all has a recognizer", x, l)
				}
				continue
			}
			if _, ok := condition.ExistsRecognizer(WithL(c7, l), x); ok {
				t.Errorf("Theorem 9 refuting subset has a recognizer at x=%d ℓ=%d", x, l)
			}
		}
	}
}

// TestTable1 reproduces the paper's Table 1 and Theorem 14: the four-vector
// condition is (1,1)-legal with exactly the tabulated recognizing function,
// and no recognizing function at all makes it (2,2)-legal.
func TestTable1(t *testing.T) {
	c := Table1Condition()
	if c.Size() != 4 {
		t.Fatalf("Table 1 has %d vectors, want 4", c.Size())
	}
	if v := condition.Check(c, 1, condition.CheckOptions{}); v != nil {
		t.Errorf("Table 1 condition not (1,1)-legal: %v", v)
	}
	if _, ok := condition.ExistsRecognizer(WithL(c, 2), 2); ok {
		t.Error("Theorem 14: Table 1 condition must not be (2,2)-legal")
	}
	// The tabulated h is as printed: h(I1)=a, h(I2)=b, h(I3)=c, h(I4)=d.
	want := []vector.Set{vector.SetOf(1), vector.SetOf(2), vector.SetOf(3), vector.SetOf(4)}
	for k, i := range c.Members() {
		if got := c.Recognize(i); !got.Equal(want[k]) {
			t.Errorf("h(I%d) = %v, want %v", k+1, got, want[k])
		}
	}
}

// TestTheorem15 checks the other Appendix-B diagonal: the ℓ+1-vector
// construction is (x+1,ℓ+1)-legal but not (x,ℓ)-legal.
func TestTheorem15(t *testing.T) {
	for _, tc := range []struct{ n, x, l int }{
		{5, 3, 1}, {6, 3, 2}, {6, 4, 2}, {7, 4, 3}, {7, 5, 1},
	} {
		c, err := Theorem15Condition(tc.n, tc.x, tc.l)
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		if c.Size() != tc.l+1 {
			t.Fatalf("%+v: %d vectors, want ℓ+1=%d", tc, c.Size(), tc.l+1)
		}
		if v := condition.Check(c, tc.x+1, condition.CheckOptions{}); v != nil {
			t.Errorf("Theorem 15 witness not (x+1,ℓ+1)-legal at %+v: %v", tc, v)
		}
		if _, ok := condition.ExistsRecognizer(WithL(c, tc.l), tc.x); ok {
			t.Errorf("Theorem 15 witness unexpectedly (x,ℓ)-legal at %+v", tc)
		}
	}
}

// TestTheorem15PairsInsufficient documents why the generalized distance
// matters: for ℓ ≥ 2 a pairs-only decider would wrongly accept the
// Theorem-15 condition at (x,ℓ).
func TestTheorem15PairsInsufficient(t *testing.T) {
	c, err := Theorem15Condition(6, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	relabel := WithL(c, 2)
	members := relabel.Members()
	// Assignment sharing values pairwise: g(I_j) = {v_j, v_other}. Build
	// g(I_1)={1,2}, g(I_2)={2,1}… identical pairwise-compatible sets exist:
	// g(I_1)={1,2}, g(I_2)={2,1} are equal; g(I_3) must contain 3.
	gs := []vector.Set{
		vector.SetOf(1, 2),
		vector.SetOf(2, 1),
		vector.SetOf(3, 1),
	}
	for a := 0; a < len(members); a++ {
		for b := a + 1; b < len(members); b++ {
			v := condition.CheckDistanceInstance(
				[]vector.Vector{members[a], members[b]},
				[]vector.Set{gs[a], gs[b]}, 4)
			if a == 0 && b == 1 && v != nil {
				t.Errorf("pair (1,2) should pass: %v", v)
			}
		}
	}
	// Yet the full triple fails for every assignment (Theorem 15).
	if _, ok := condition.ExistsRecognizer(relabel, 4); ok {
		t.Error("triple-level failure not detected")
	}
}

func TestTheorem15Errors(t *testing.T) {
	if _, err := Theorem15Condition(6, 2, 2); err == nil {
		t.Error("want error for ℓ ≥ x")
	}
	if _, err := Theorem15Condition(4, 3, 1); err == nil {
		t.Error("want error for n < x+2")
	}
}

func TestVerifyFigure1AndRender(t *testing.T) {
	if testing.Short() {
		t.Skip("full grid")
	}
	facts, err := VerifyFigure1(4, 3, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(facts) != 9 {
		t.Fatalf("got %d cells, want 9", len(facts))
	}
	for _, f := range facts {
		if !f.Verified() {
			t.Errorf("cell (x=%d,ℓ=%d) not verified: %+v", f.X, f.L, f)
		}
		if f.AllLegal != (f.L > f.X) {
			t.Errorf("cell (x=%d,ℓ=%d): C_all legality %v, want %v",
				f.X, f.L, f.AllLegal, f.L > f.X)
		}
	}
	out := Render(facts)
	if !strings.Contains(out, "✓") || !strings.Contains(out, "∗") {
		t.Errorf("render lacks markers:\n%s", out)
	}
}

func TestVerifyFigure1Errors(t *testing.T) {
	if _, err := VerifyFigure1(3, 2, 3, 2); err == nil {
		t.Error("want error for xMax ≥ n")
	}
	if _, err := VerifyFigure1(3, 2, 1, 0); err == nil {
		t.Error("want error for lMax < 1")
	}
	if got := Render(nil); got == "" {
		t.Error("render of empty grid should describe itself")
	}
}
