package lattice

import (
	"fmt"

	"kset/internal/condition"
	"kset/internal/vector"
)

// densestMass returns the largest total number of entries occupied by any
// set of at most l distinct values of i: the sum of its l largest value
// counts. The Theorem 5/7 constructions bound it to rule out recognizers.
// It is a stack-only computation — the builders call it once per candidate
// vector of a full {1..m}^n enumeration.
func densestMass(i vector.Vector, l int) int {
	var counts [int(vector.MaxSetValue) + 1]int
	for _, v := range i {
		counts[v]++
	}
	counts[vector.Bottom] = 0 // ⊥ entries are not values
	mass := 0
	for k := 0; k < l; k++ {
		best, bi := 0, -1
		for v := 1; v <= int(vector.MaxSetValue); v++ {
			if counts[v] > best {
				best, bi = counts[v], v
			}
		}
		if bi < 0 {
			break
		}
		mass += best
		counts[bi] = 0
	}
	return mass
}

// Theorem5Condition builds a condition that is (x,ℓ)-legal but not
// (x+1,ℓ)-legal: the vectors recognized by max_ℓ whose every ℓ-value set
// occupies at most x+1 entries (so the top-ℓ mass is exactly x+1 — dense
// enough for x, and no recognizing function can be dense enough for x+1).
func Theorem5Condition(n, m, x, l int) (*condition.Explicit, error) {
	if x+1 > n {
		return nil, fmt.Errorf("lattice: theorem 5 needs x+1 ≤ n, got x=%d n=%d", x, n)
	}
	b, err := condition.NewExplicit(n, m, l)
	if err != nil {
		return nil, err
	}
	var addErr error
	vector.ForEach(n, m, func(i vector.Vector) bool {
		if i.MassOf(i.TopL(l)) == x+1 && densestMass(i, l) <= x+1 {
			if err := b.Add(i, i.TopL(l)); err != nil {
				addErr = err
				return false
			}
		}
		return true
	})
	if addErr != nil {
		return nil, addErr
	}
	if b.Size() == 0 {
		return nil, fmt.Errorf("lattice: theorem 5 condition empty for n=%d m=%d x=%d ℓ=%d", n, m, x, l)
	}
	return b, nil
}

// Theorem7Condition builds a condition that is (x,ℓ+1)-legal but not
// (x,ℓ)-legal: the vectors recognized by max_{ℓ+1} whose ℓ+1 greatest
// values occupy more than x entries while every set of only ℓ values
// occupies at most x — so no ℓ-value recognizing function can satisfy the
// density property. The returned condition carries ℓ+1 as its L.
func Theorem7Condition(n, m, x, l int) (*condition.Explicit, error) {
	b, err := condition.NewExplicit(n, m, l+1)
	if err != nil {
		return nil, err
	}
	var addErr error
	vector.ForEach(n, m, func(i vector.Vector) bool {
		if i.MassOf(i.TopL(l+1)) > x && densestMass(i, l) <= x {
			if err := b.Add(i, i.TopL(l+1)); err != nil {
				addErr = err
				return false
			}
		}
		return true
	})
	if addErr != nil {
		return nil, addErr
	}
	if b.Size() == 0 {
		return nil, fmt.Errorf("lattice: theorem 7 condition empty for n=%d m=%d x=%d ℓ=%d", n, m, x, l)
	}
	return b, nil
}

// BoostL implements the constructive step of Theorem 6: given a condition
// with recognizing function h_ℓ, it returns the same vector set with the
// recognizing function g_{ℓ+1} of the paper's proof — h_ℓ(I) itself when
// h_ℓ(I) already covers val(I), and h_ℓ(I) plus one deterministic extra
// value of I otherwise (we take the greatest value outside h_ℓ(I)). If the
// input is (x,ℓ)-legal the output is (x,ℓ+1)-legal.
func BoostL(c *condition.Explicit) (*condition.Explicit, error) {
	out, err := condition.NewExplicit(c.N(), c.M(), c.L()+1)
	if err != nil {
		return nil, err
	}
	for k, size := 0, c.Size(); k < size; k++ {
		i := c.MemberAt(k)
		h := c.RecognizedAt(k)
		g := h
		if rest := c.ValsAt(k).Minus(h); !rest.Empty() {
			g = h.Add(rest.Max())
		}
		if err := out.Add(i, g); err != nil {
			return nil, fmt.Errorf("lattice: boost: %w", err)
		}
	}
	return out, nil
}

// AllVectorsCondition returns the condition C_all containing every input
// vector of {1..m}^n, recognized by max_ℓ. By Theorems 8 and 9 it is
// (x,ℓ)-legal iff ℓ > x. (Every full vector has top-ℓ mass above 0, so
// C_all is the x = 0 max condition, enumerated.)
func AllVectorsCondition(n, m, l int) *condition.Explicit {
	return enumerateMax(n, m, 0, l)
}

// enumerateMax is the max_ℓ-generated (x,ℓ)-legal condition over
// {1..m}^n, enumerated. MustNewMax panics on bad parameters; past it,
// Enumerate cannot fail, as every member lies in {1..m}^n.
func enumerateMax(n, m, x, l int) *condition.Explicit {
	e, _ := condition.Enumerate(condition.MustNewMax(n, m, x, l))
	return e
}

// Table1Condition returns the paper's Table 1: the four-vector condition
// over n = 4 processes and values a,b,c,d (encoded 1,2,3,4) with the
// recognizing function h_1 of the table. It is (1,1)-legal, and Theorem 14
// proves it is not (2,2)-legal.
func Table1Condition() *condition.Explicit {
	const a, b, c, d = 1, 2, 3, 4
	cond := condition.MustNewExplicit(4, 4, 1)
	cond.MustAdd(vector.OfInts(a, a, c, d), vector.SetOf(a))
	cond.MustAdd(vector.OfInts(b, b, c, d), vector.SetOf(b))
	cond.MustAdd(vector.OfInts(a, b, c, c), vector.SetOf(c))
	cond.MustAdd(vector.OfInts(a, b, d, d), vector.SetOf(d))
	return cond
}

// WithL returns the same vector set as c re-labelled with parameter l and
// recognized by max_l; it is the form handed to the legality decider when
// asking whether any recognizing function for a different ℓ exists.
func WithL(c *condition.Explicit, l int) *condition.Explicit {
	out := condition.MustNewExplicit(c.N(), c.M(), l)
	for k, size := 0, c.Size(); k < size; k++ {
		i := c.MemberAt(k)
		out.MustAdd(i, i.TopL(l))
	}
	return out
}

// Theorem15Condition builds the Appendix-B construction: ℓ+1 vectors over
// n entries that are (x+1,ℓ+1)-legal (with the uniform recognizing set
// {v_1..v_{ℓ+1}}) but not (x,ℓ)-legal. Vector I_j starts with x−ℓ+1
// entries equal to v_j, followed by the common tail v_1..v_{n−x+ℓ−1}, so
// the vectors differ only in their first x−ℓ+1 entries and v_j is the only
// value appearing more than once in I_j. Requires ℓ < x and n ≥ x+2.
//
// Density for the uniform set is (x−ℓ+2) + ℓ = x+2 > x+1, and the common
// tail gives the intersecting vector ℓ+1 entries holding it, matching the
// binding distance instance α = (x+1) − (x−ℓ+1) + 1 = ℓ+1. Conversely any
// (x,ℓ)-recognizer must put v_j into g(I_j) (it is the only value dense
// enough), and ℓ+1 distinct forced values cannot fit into ℓ-sized sets
// whose intersection must still cover ℓ tail entries.
//
// The "not (x,ℓ)" half is notable: for ℓ ≥ 2 every pair of its vectors can
// satisfy the (x,ℓ)-distance property, and only the full (ℓ+1)-vector
// subset witnesses the failure — exercising d_G beyond pairs.
func Theorem15Condition(n, x, l int) (*condition.Explicit, error) {
	if l >= x {
		return nil, fmt.Errorf("lattice: theorem 15 needs ℓ < x, got ℓ=%d x=%d", l, x)
	}
	if n < x+2 {
		return nil, fmt.Errorf("lattice: theorem 15 needs n ≥ x+2, got n=%d x=%d", n, x)
	}
	tail := n - x + l - 1 // number of common tail values v_1..v_tail
	if tail < l+1 {
		return nil, fmt.Errorf("lattice: theorem 15 internal: tail %d < ℓ+1", tail)
	}
	c := condition.MustNewExplicit(n, tail, l+1)
	uniform := vector.SetOf()
	for v := 1; v <= l+1; v++ {
		uniform = uniform.Add(vector.Value(v))
	}
	for j := 1; j <= l+1; j++ {
		i := vector.New(n)
		for k := 0; k < x-l+1; k++ {
			i[k] = vector.Value(j)
		}
		for k := 0; k < tail; k++ {
			i[x-l+1+k] = vector.Value(k + 1)
		}
		if err := c.Add(i, uniform); err != nil {
			return nil, fmt.Errorf("lattice: theorem 15: %w", err)
		}
	}
	return c, nil
}
