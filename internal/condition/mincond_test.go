package condition

import (
	"math/rand"
	"testing"

	"kset/internal/vector"
)

func TestMinConditionMembership(t *testing.T) {
	c := MustNewMin(4, 3, 2, 1)
	tests := []struct {
		v    vector.Vector
		want bool
	}{
		{vector.OfInts(1, 1, 1, 3), true},  // min value 1 occupies 3 > 2 entries
		{vector.OfInts(1, 1, 3, 3), false}, // 2 entries, not > 2
		{vector.OfInts(2, 2, 2, 2), true},
		{vector.OfInts(3, 2, 1, 1), false},
		{vector.OfInts(1, 1, 1, 0), false}, // views are never members
	}
	for _, tc := range tests {
		if got := c.Contains(tc.v); got != tc.want {
			t.Errorf("Contains(%v) = %v, want %v", tc.v, got, tc.want)
		}
	}
	if c.N() != 4 || c.M() != 3 || c.L() != 1 || c.X() != 2 {
		t.Error("dimension accessors wrong")
	}
	if got := c.Recognize(vector.OfInts(1, 1, 1, 3)); !got.Equal(vector.SetOf(1)) {
		t.Errorf("Recognize = %v", got)
	}
}

// TestMinConditionLegal is Theorem 2's min_ℓ variant: the min_ℓ-generated
// condition is (x,ℓ)-legal.
func TestMinConditionLegal(t *testing.T) {
	for _, tc := range []struct{ n, m, x, l int }{
		{4, 3, 1, 1}, {4, 3, 2, 2}, {5, 2, 2, 1},
	} {
		c := MustNewMin(tc.n, tc.m, tc.x, tc.l)
		if v := Check(c, tc.x, CheckOptions{MaxSubsetSize: 3}); v != nil {
			t.Errorf("min condition %+v not legal: %v", tc, v)
		}
	}
}

// TestMinMirrorsMax checks the structural symmetry: I ∈ Min(x,ℓ) iff
// mirror(I) ∈ Max(x,ℓ), and the member counts agree.
func TestMinMirrorsMax(t *testing.T) {
	n, m, x, l := 4, 4, 2, 2
	minC := MustNewMin(n, m, x, l)
	maxC := MustNewMax(n, m, x, l)
	countMin, countMax := 0, 0
	minC.ForEachMember(func(vector.Vector) bool { countMin++; return true })
	maxC.ForEachMember(func(vector.Vector) bool { countMax++; return true })
	if countMin != countMax {
		t.Errorf("member counts differ: min %d, max %d", countMin, countMax)
	}
	vector.ForEach(n, m, func(i vector.Vector) bool {
		if minC.Contains(i) != maxC.Contains(minC.mirror(i)) {
			t.Fatalf("mirror symmetry broken at %v", i)
		}
		return true
	})
}

// TestMinDecodeMatchesEnumeration: the mirrored closed-form decoding
// agrees with the generic Definition-4 enumeration.
func TestMinDecodeMatchesEnumeration(t *testing.T) {
	r := rand.New(rand.NewSource(67))
	for trial := 0; trial < 400; trial++ {
		n := 3 + r.Intn(3)
		m := 2 + r.Intn(3)
		x := r.Intn(n - 1)
		l := 1 + r.Intn(2)
		c := MustNewMin(n, m, x, l)
		j := vector.New(n)
		for i := range j {
			if r.Intn(3) == 0 {
				j[i] = vector.Bottom
			} else {
				j[i] = vector.Value(1 + r.Intn(m))
			}
		}
		fast, okF := c.DecodeView(j)
		slow, okS := decodeViewGeneric(c, j)
		if okF != okS || (okF && !fast.Equal(slow)) {
			t.Fatalf("n=%d m=%d x=%d ℓ=%d view %v: fast=%v(%v) enum=%v(%v)",
				n, m, x, l, j, fast, okF, slow, okS)
		}
		// P fast path agrees with the generic enumeration too.
		pSlow := false
		vector.ForEachCompletion(j, m, func(i vector.Vector) bool {
			if c.Contains(i) {
				pSlow = true
				return false
			}
			return true
		})
		if c.P(j) != pSlow {
			t.Fatalf("P(%v) fast=%v enum=%v", j, c.P(j), pSlow)
		}
	}
}

func TestNewMinValidation(t *testing.T) {
	if _, err := NewMin(0, 3, 0, 1); err == nil {
		t.Error("want error for n=0")
	}
	if _, err := NewMin(4, 3, 4, 1); err == nil {
		t.Error("want error for x=n")
	}
}
