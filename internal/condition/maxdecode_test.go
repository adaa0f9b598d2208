package condition

import (
	"math/rand"
	"testing"

	"kset/internal/vector"
)

// TestMaxDecodeMatchesEnumerationExhaustive compares the closed-form
// MaxCondition decoder with the Definition-4 enumeration on every view of
// every member, for a grid of parameters.
func TestMaxDecodeMatchesEnumerationExhaustive(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive view enumeration")
	}
	for _, tc := range []struct{ n, m, x, l int }{
		{4, 3, 1, 1}, {4, 3, 2, 1}, {4, 3, 2, 2}, {4, 4, 2, 2},
		{5, 2, 2, 1}, {5, 3, 3, 2}, {4, 5, 1, 3},
	} {
		c := MustNewMax(tc.n, tc.m, tc.x, tc.l)
		c.ForEachMember(func(i vector.Vector) bool {
			full := i.Clone()
			vector.ForEachView(full, tc.n, func(j vector.Vector) bool {
				fast, okF := c.DecodeView(j)
				slow, okS := decodeViewGeneric(c, j)
				if okF != okS {
					t.Fatalf("params %+v view %v: ok fast=%v enum=%v", tc, j, okF, okS)
				}
				if okF && !fast.Equal(slow) {
					t.Fatalf("params %+v view %v: fast=%v enum=%v", tc, j, fast, slow)
				}
				return true
			})
			return true
		})
	}
}

// TestMaxDecodeMatchesEnumerationRandom fuzzes arbitrary views (not only
// views of members), where the decoding may be undefined.
func TestMaxDecodeMatchesEnumerationRandom(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	for trial := 0; trial < 800; trial++ {
		n := 3 + r.Intn(4)
		m := 2 + r.Intn(4)
		x := r.Intn(n - 1)
		l := 1 + r.Intn(3)
		c := MustNewMax(n, m, x, l)
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
		if okF != okS {
			t.Fatalf("n=%d m=%d x=%d ℓ=%d view %v: ok fast=%v enum=%v", n, m, x, l, j, okF, okS)
		}
		if okF && !fast.Equal(slow) {
			t.Fatalf("n=%d m=%d x=%d ℓ=%d view %v: fast=%v enum=%v", n, m, x, l, j, fast, slow)
		}
	}
}

func TestMaxDecodeEdgeCases(t *testing.T) {
	c := MustNewMax(4, 3, 1, 1)
	// Wrong-size view.
	if _, ok := c.DecodeView(vector.OfInts(1, 2)); ok {
		t.Error("wrong-size view must not decode")
	}
	// View outside every member (P false): the full vector [3 2 1 1] has
	// top-1 mass 1 ≤ x=1 and no ⊥ to fix it.
	if _, ok := c.DecodeView(vector.OfInts(3, 2, 1, 1)); ok {
		t.Error("P-false view must not decode")
	}
	// Full member decodes to its recognized set.
	i := vector.OfInts(3, 3, 1, 2)
	h, ok := c.DecodeView(i)
	if !ok || !h.Equal(vector.SetOf(3)) {
		t.Errorf("member decode = %v, %v", h, ok)
	}
	// All-⊥ view: defined (members exist) with empty value set.
	h, ok = c.DecodeView(vector.New(4))
	if !ok || !h.Empty() {
		t.Errorf("all-⊥ decode = %v, %v", h, ok)
	}
}

// TestMaxDecodeUsedByDispatch makes sure DecodeView actually routes
// MaxCondition through the closed form (guards against the interface
// assertion silently breaking).
func TestMaxDecodeUsedByDispatch(t *testing.T) {
	var c Condition = MustNewMax(4, 3, 1, 1)
	if _, ok := c.(ViewDecoder); !ok {
		t.Fatal("MaxCondition must implement ViewDecoder")
	}
}

// BenchmarkDecodeAblation quantifies the closed form against the generic
// enumeration on a view with 4 missing entries over m=6 values (6^4
// completions for the generic path).
func BenchmarkDecodeAblation(b *testing.B) {
	c := MustNewMax(12, 6, 4, 2)
	j := vector.OfInts(6, 6, 6, 6, 5, 2, 1, 3, 0, 0, 0, 0)
	b.Run("closed-form", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, ok := c.DecodeView(j); !ok {
				b.Fatal("undecodable")
			}
		}
	})
	b.Run("enumeration", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, ok := decodeViewGeneric(c, j); !ok {
				b.Fatal("undecodable")
			}
		}
	})
}
