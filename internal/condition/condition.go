package condition

import (
	"fmt"
	"slices"

	"kset/internal/kerr"
	"kset/internal/vector"
)

// Recognizer is a recognizing function h_ℓ: it maps an input vector of a
// condition to the set of (at most ℓ) values that vector encodes.
type Recognizer func(vector.Vector) vector.Set

// MaxL returns the recognizer max_ℓ of Section 2.3: the ℓ greatest values of
// the vector (all of them if it has fewer than ℓ distinct values).
func MaxL(l int) Recognizer {
	return func(i vector.Vector) vector.Set { return i.TopL(l) }
}

// Condition is a set of input vectors equipped with a recognizing function.
// Implementations may be explicit (an enumerated vector set) or implicit
// (membership decided analytically, e.g. the max_ℓ-generated conditions of
// Theorem 2, which are far too large to enumerate at realistic n and m).
type Condition interface {
	// N is the vector size (number of processes).
	N() int
	// M is the size of the value domain V = {1..M}.
	M() int
	// L is the ℓ parameter: how many values a vector may encode.
	L() int
	// Contains reports whether the full input vector i belongs to the
	// condition.
	Contains(i vector.Vector) bool
	// Recognize returns h_ℓ(i) for a member vector i. Its result is
	// unspecified for non-members.
	Recognize(i vector.Vector) vector.Set
	// ForEachMember enumerates the member vectors, stopping early if fn
	// returns false. The callback may receive a reusable buffer; Clone to
	// retain. Implicit conditions enumerate by filtering {1..m}^n, which is
	// only practical at small n and m.
	ForEachMember(fn func(vector.Vector) bool)
}

// Explicit is a finite, enumerated condition with a per-vector recognizing
// function. It is the representation used for the paper's counterexample
// conditions (Table 1, Theorems 5, 7, 14, 15) and for user-supplied
// conditions, grown one Add at a time (or built whole by Enumerate) over a
// hashed member index whose probes never allocate. It is not safe for
// concurrent mutation: share a Clone.
type Explicit struct{ index }

// NewExplicit creates an empty explicit condition over {1..m}^n with
// parameter ℓ. It rejects an m beyond the 64-value domain cap of the
// bitmask value sets (vector.MaxSetValue): such a condition could never
// hold a vector using the values past the cap, so refusing the
// parameterization up front beats every Add failing.
func NewExplicit(n, m, l int) (*Explicit, error) {
	switch {
	case n < 1:
		return nil, fmt.Errorf("condition: explicit: n=%d, want ≥ 1: %w", n, kerr.ErrBadParams)
	case m < 1:
		return nil, fmt.Errorf("condition: explicit: m=%d, want ≥ 1: %w", m, kerr.ErrBadParams)
	case m > int(vector.MaxSetValue):
		return nil, fmt.Errorf("condition: explicit: m=%d exceeds the cap %d: %w", m, vector.MaxSetValue, kerr.ErrDomainTooLarge)
	case l < 1:
		return nil, fmt.Errorf("condition: explicit: ℓ=%d, want ≥ 1: %w", l, kerr.ErrBadParams)
	}
	return &Explicit{index{n: n, m: m, l: l}}, nil
}

// MustNewExplicit is NewExplicit that panics on error; for tests and fixed
// constructions whose parameters are known good.
func MustNewExplicit(n, m, l int) *Explicit {
	c, err := NewExplicit(n, m, l)
	if err != nil {
		panic(err)
	}
	return c
}

// Enumerate builds the explicit form of any condition: each member of
// c.ForEachMember, in that order, recognized by c.Recognize. Unlike Add
// it does not validate the recognized sets (Check reports those); it
// rejects a member of the wrong size or with a value outside
// {1..m}, and it skips a member it has already added. Enumerating a
// max_ℓ or min_ℓ condition walks {1..m}^n, so it is practical at small n
// and m only.
func Enumerate(c Condition) (*Explicit, error) {
	e, _, err := enumerate(c)
	return e, err
}

// enumerate is Enumerate that also returns a copy of the member it
// rejected, for Check's witness.
func enumerate(c Condition) (*Explicit, vector.Vector, error) {
	e, err := NewExplicit(c.N(), c.M(), c.L())
	if err != nil {
		return nil, nil, err
	}
	var bad vector.Vector
	c.ForEachMember(func(i vector.Vector) bool {
		if err = e.checkVector(i); err != nil {
			bad = i.Clone()
			return false
		}
		if !e.Contains(i) {
			e.add(i, c.Recognize(i))
		}
		return true
	})
	if err != nil {
		return nil, bad, err
	}
	return e, nil, nil
}

// Clone returns an independent copy of c: members added to or
// recognized sets changed on either one afterwards do not reach the
// other. kset.New clones an explicit condition, so the caller's handle
// stays theirs to grow while campaign workers read the copy.
func (c *Explicit) Clone() *Explicit {
	ix := c.index
	ix.flat = slices.Clone(ix.flat)
	ix.hs = slices.Clone(ix.hs)
	ix.vals = slices.Clone(ix.vals)
	ix.counts = slices.Clone(ix.counts)
	ix.slots = slices.Clone(ix.slots)
	return &Explicit{ix}
}

// checkVector reports whether i can be a member: size n, values in
// {1..m}.
func (c *Explicit) checkVector(i vector.Vector) error {
	if len(i) != c.n {
		return fmt.Errorf("condition: vector %v has size %d, want %d", i, len(i), c.n)
	}
	for _, v := range i {
		if !v.IsProposable() || v > vector.Value(c.m) {
			return fmt.Errorf("condition: vector %v has value %v outside {1..%d}", i, v, c.m)
		}
	}
	return nil
}

// Add inserts vector i with recognized set h, copying i. It returns an
// error if i has the wrong size, values outside {1..m} or ⊥ entries, if h
// violates the validity property, or if i is already present with a
// different h; re-adding a vector with the same h is a no-op.
func (c *Explicit) Add(i vector.Vector, h vector.Set) error {
	if err := c.checkVector(i); err != nil {
		return err
	}
	want := c.l
	if nv := i.Vals().Len(); nv < want {
		want = nv
	}
	if h.Len() != want || !h.SubsetOf(i.Vals()) {
		return fmt.Errorf("condition: h=%v violates (x,%d)-validity for %v", h, c.l, i)
	}
	if k, ok := c.IndexOf(i); ok {
		if !c.hs[k].Equal(h) {
			return fmt.Errorf("condition: vector %v already present with h=%v", i, c.hs[k])
		}
		return nil
	}
	c.add(i, h)
	return nil
}

// MustAdd is Add that panics on error; for tests and fixed constructions.
func (c *Explicit) MustAdd(i vector.Vector, h vector.Set) {
	if err := c.Add(i, h); err != nil {
		panic(err)
	}
}

// AddAuto inserts i recognized by the given Recognizer.
func (c *Explicit) AddAuto(i vector.Vector, h Recognizer) error { return c.Add(i, h(i)) }
