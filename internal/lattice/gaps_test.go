package lattice

import (
	"strings"
	"testing"

	"kset/internal/condition"
	"kset/internal/vector"
)

func TestAllVectorsConditionSize(t *testing.T) {
	c := AllVectorsCondition(3, 2, 1)
	if c.Size() != 8 { // 2^3
		t.Errorf("C_all size = %d, want 8", c.Size())
	}
	if !c.Contains(vector.OfInts(1, 2, 1)) {
		t.Error("C_all must contain everything")
	}
}

func TestWithLRelabels(t *testing.T) {
	c := Table1Condition()
	re := WithL(c, 2)
	if re.L() != 2 || re.Size() != c.Size() {
		t.Errorf("WithL: L=%d size=%d", re.L(), re.Size())
	}
	for _, i := range re.Members() {
		if got := re.Recognize(i); !got.Equal(i.TopL(2)) {
			t.Errorf("WithL recognizer = %v, want max_2 = %v", got, i.TopL(2))
		}
	}
}

func TestBoostLPreservesMembers(t *testing.T) {
	base := enumerateMax(4, 3, 1, 1)
	boosted, err := BoostL(base)
	if err != nil {
		t.Fatal(err)
	}
	if boosted.Size() != base.Size() {
		t.Errorf("boost changed membership: %d vs %d", boosted.Size(), base.Size())
	}
	for _, i := range base.Members() {
		h := base.Recognize(i)
		g := boosted.Recognize(i)
		if !h.SubsetOf(g) {
			t.Errorf("boost dropped values: h=%v g=%v", h, g)
		}
		want := 2
		if nv := i.Vals().Len(); nv < want {
			want = nv
		}
		if g.Len() != want {
			t.Errorf("boost size = %d, want %d for %v", g.Len(), want, i)
		}
	}
}

func TestCounterexampleFamilyErrors(t *testing.T) {
	// Theorem 5 needs x+1 ≤ n.
	if _, err := Theorem5Condition(3, 2, 3, 1); err == nil {
		t.Error("want error for x+1 > n")
	}
	// Theorem 7 family empty when every ℓ-mass bound is unsatisfiable.
	if _, err := Theorem7Condition(2, 2, 0, 1); err == nil {
		t.Error("want error for empty family")
	}
}

func TestVerifyCellSkipsAreHonest(t *testing.T) {
	// At x = n−1 = 2 with n = 3 Theorem 4's witness needs x+1 < n: skipped
	// but not failed.
	f := VerifyCell(3, 2, 2, 1)
	joined := strings.Join(f.Skipped, ";")
	if !strings.Contains(joined, "thm4") {
		t.Errorf("expected a thm4 skip, got %q", joined)
	}
	if !f.UpInclusion {
		t.Error("skipped checks must not fail the cell")
	}
}

func TestRenderMarksFailures(t *testing.T) {
	facts := []Fact{{X: 0, L: 1}} // zero-valued: nothing verified
	out := Render(facts)
	if !strings.Contains(out, "✗") {
		t.Errorf("unverified cell not marked:\n%s", out)
	}
}

func TestDensestMassEmpty(t *testing.T) {
	if got := densestMass(vector.New(3), 2); got != 0 {
		t.Errorf("densestMass of all-⊥ = %d", got)
	}
}

func TestTheorem15RecognizedUniform(t *testing.T) {
	c, err := Theorem15Condition(6, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := vector.SetOf(1, 2, 3)
	for _, i := range c.Members() {
		if got := c.Recognize(i); !got.Equal(want) {
			t.Errorf("h(%v) = %v, want uniform %v", i, got, want)
		}
	}
	// The failure is sharp: at (x−1, ℓ) = (3,2) the weaker distance
	// requirement (α = 1 at the family's d_G = 3) admits a recognizer
	// again — only (x, ℓ) itself is refuted.
	if _, ok := condition.ExistsRecognizer(WithL(c, 2), 3); !ok {
		t.Error("family must be (x−1,ℓ)-legalizable")
	}
	if _, ok := condition.ExistsRecognizer(WithL(c, 2), 4); ok {
		t.Error("family must not be (x,ℓ)-legalizable")
	}
}
