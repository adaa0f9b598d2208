package condition

import (
	"fmt"

	"kset/internal/vector"
)

// Property identifies one of the three clauses of (x,ℓ)-legality.
type Property int

// The three (x,ℓ)-legality properties of Definition 2.
const (
	Validity Property = iota + 1
	Density
	Distance
)

// String implements fmt.Stringer.
func (p Property) String() string {
	switch p {
	case Validity:
		return "validity"
	case Density:
		return "density"
	case Distance:
		return "distance"
	default:
		return fmt.Sprintf("Property(%d)", int(p))
	}
}

// Violation describes a witnessed failure of one legality property. It
// implements error.
type Violation struct {
	// Property is the violated clause.
	Property Property
	// Vectors are the witnessing member vectors (one for validity and
	// density; z ≥ 2 for distance).
	Vectors []vector.Vector
	// Alpha is the α of the violated distance instance (0 otherwise).
	Alpha int
	// Detail is a human-readable account of the failure.
	Detail string
}

// Error implements error.
func (v *Violation) Error() string {
	return fmt.Sprintf("(x,ℓ)-%s violated: %s", v.Property, v.Detail)
}

// CheckOptions tunes Check. The zero value checks every property clause
// exhaustively, which is exponential in the condition size for the distance
// property (it quantifies over all subsets); cap with MaxSubsetSize for
// larger conditions.
type CheckOptions struct {
	// MaxSubsetSize caps the z of the distance-property subsets
	// {I_1..I_z}. 0 means |C| (fully exhaustive).
	MaxSubsetSize int
}

// Checker holds the reusable scratch of legality checking and recognizer
// search: member and witness buffers, the subset-recursion index stack and
// the intersecting-view scratch. One Checker verifying many conditions —
// a Figure-1 grid sweep above all — allocates nothing per probe on the
// success path (violations allocate their witness). A Checker is not safe
// for concurrent use; the zero value is ready.
type Checker struct {
	members    []vector.Vector
	idx        []int
	inter      vector.Vector
	interStack []vector.Value // per-depth intersecting views of the subset walk

	// Recognizer-search scratch: per-member candidate sets in one flat
	// buffer with offsets, and the value scratch of subset enumeration.
	candFlat []vector.Set
	candOff  []int
}

// NewChecker returns an empty Checker; its buffers grow to the largest
// condition seen and are reused afterwards.
func NewChecker() *Checker { return &Checker{} }

// load resolves c to its explicit form — an *Explicit as it is, any
// other condition through Enumerate, whose rejection of a member comes
// back as a Validity violation witnessed by it — and points the checker's
// member buffer at the stored members.
func (ck *Checker) load(c Condition) (*Explicit, *Violation) {
	e, ok := c.(*Explicit)
	if !ok {
		var bad vector.Vector
		var err error
		if e, bad, err = enumerate(c); err != nil {
			v := &Violation{Property: Validity, Detail: err.Error()}
			if bad != nil {
				v.Vectors = []vector.Vector{bad}
			}
			return nil, v
		}
	}
	ck.members = ck.members[:0]
	for k, size := 0, e.Size(); k < size; k++ {
		ck.members = append(ck.members, e.MemberAt(k))
	}
	return e, nil
}

// Check verifies that the condition c, with its own recognizing function,
// is (x, c.L())-legal, returning a witnessed *Violation if not and nil if
// legal. The distance property is checked over every subset of members of
// size 2..MaxSubsetSize. On an *Explicit the success path performs no
// allocation beyond the checker's amortized scratch growth; any other
// condition is enumerated first.
func (ck *Checker) Check(c Condition, x int, opts CheckOptions) *Violation {
	l := c.L()
	e, v := ck.load(c)
	if v != nil {
		return v
	}

	// Validity and density, per member.
	for k, i := range ck.members {
		h := e.hs[k]
		vals := e.ValsAt(k)
		want := min(l, vals.Len())
		if h.Len() != want || !h.SubsetOf(vals) {
			return &Violation{
				Property: Validity,
				Vectors:  cloneVectors(i),
				Detail:   fmt.Sprintf("h(%v)=%v, want %d values from val=%v", i, h, want, vals),
			}
		}
		if mass := e.Mass(k, h); mass <= x {
			return &Violation{
				Property: Density,
				Vectors:  cloneVectors(i),
				Detail:   fmt.Sprintf("Σ_{v∈h(I)}#_v(I) = %d ≤ x = %d for I=%v, h=%v", mass, x, i, h),
			}
		}
	}

	// Distance, over subsets.
	maxZ := opts.MaxSubsetSize
	if maxZ <= 0 || maxZ > len(ck.members) {
		maxZ = len(ck.members)
	}
	return ck.distanceSubsets(ck.members, e.hs, x, maxZ)
}

// Check verifies (x, c.L())-legality with a one-shot Checker. Sweeps that
// verify many conditions should hold a Checker and call its Check instead.
func Check(c Condition, x int, opts CheckOptions) *Violation {
	return NewChecker().Check(c, x, opts)
}

// distanceSubsets checks the distance property over every subset of size
// 2..maxZ of the given vectors with their recognized sets. The subset walk
// carries the intersecting view, the generalized distance and the
// recognized-set intersection incrementally (one O(n) merge per node
// instead of rebuilding every subset from scratch), and prunes on the
// monotonicity of d_G: members are full vectors, so adding one can only
// grow the distance, and once a subset has d_G > x no superset can ever
// satisfy the property's premise again. All scratch lives in the checker.
func (ck *Checker) distanceSubsets(members []vector.Vector, hs []vector.Set, x, maxZ int) *Violation {
	if len(members) < 2 || maxZ < 2 {
		return nil
	}
	n := len(members[0])
	if cap(ck.interStack) < maxZ*n {
		ck.interStack = make([]vector.Value, maxZ*n)
	}
	ck.idx = ck.idx[:0]
	// rec extends the chosen prefix (ck.idx, its intersection at stack
	// level len(idx)−1, distance dg and recognized intersection common)
	// with members[start..].
	var rec func(start, dg int, common vector.Set) *Violation
	rec = func(start, dg int, common vector.Set) *Violation {
		depth := len(ck.idx)
		cur := ck.interStack[(depth-1)*n : depth*n]
		for j := start; j < len(members); j++ {
			mj := members[j]
			next := ck.interStack[depth*n : (depth+1)*n]
			ndg := dg
			for k := 0; k < n; k++ {
				cv := cur[k]
				if cv != vector.Bottom && cv != mj[k] {
					ndg++
					next[k] = vector.Bottom
				} else {
					next[k] = cv
				}
			}
			if ndg > x {
				continue // no α ∈ [1,x] binds here, nor for any superset
			}
			ncommon := common.Intersect(hs[j])
			// Binding instance α* = min(x, x−ndg+1); see
			// CheckDistanceInstance for why checking it covers all α.
			alpha := x - ndg + 1
			if alpha > x {
				alpha = x
			}
			if alpha >= 1 {
				mass := 0
				for k := 0; k < n; k++ {
					if ncommon.Has(next[k]) {
						mass++
					}
				}
				if mass < alpha {
					ck.idx = append(ck.idx, j)
					return ck.distanceViolation(members, ndg, mass, alpha, ncommon, x)
				}
			}
			if depth+1 < maxZ {
				ck.idx = append(ck.idx, j)
				if v := rec(j+1, ndg, ncommon); v != nil {
					return v
				}
				ck.idx = ck.idx[:len(ck.idx)-1]
			}
		}
		return nil
	}
	for a := 0; a+1 < len(members); a++ {
		copy(ck.interStack[:n], members[a])
		ck.idx = append(ck.idx[:0], a)
		if v := rec(a+1, 0, hs[a]); v != nil {
			return v
		}
	}
	return nil
}

// cloneVectors deep-copies witness vectors out of borrowed or reused
// storage, so a returned Violation is caller-owned: mutating it cannot
// reach back into a condition's index or a checker's scratch.
func cloneVectors(vs ...vector.Vector) []vector.Vector {
	out := make([]vector.Vector, len(vs))
	for k, v := range vs {
		out[k] = v.Clone()
	}
	return out
}

// distanceViolation materializes the witnessed failure of the subset in
// ck.idx — the only allocating path of the subset walk.
func (ck *Checker) distanceViolation(members []vector.Vector, dg, mass, alpha int, common vector.Set, x int) *Violation {
	sub := make([]vector.Vector, len(ck.idx))
	for k, j := range ck.idx {
		sub[k] = members[j].Clone()
	}
	return &Violation{
		Property: Distance,
		Vectors:  sub,
		Alpha:    alpha,
		Detail: fmt.Sprintf(
			"d_G=%d ≥ x−α+1=%d but ⊓ holds only %d entries of ∩h=%v (need ≥ α=%d)",
			dg, x-alpha+1, mass, common, alpha),
	}
}

// distanceInstance is CheckDistanceInstance on the checker's intersection
// scratch: no allocation unless a violation is witnessed.
func (ck *Checker) distanceInstance(vs []vector.Vector, hs []vector.Set, x int) *Violation {
	dg := vector.GeneralizedDistance(vs...)
	if dg > x {
		return nil // no α ∈ [1,x] satisfies d_G ≥ x−α+1
	}
	alpha := x - dg + 1
	if alpha > x {
		alpha = x // α ranges over [1,x]; d_G = 0 still only requires α = x
	}
	if alpha < 1 {
		return nil
	}
	common := hs[0]
	for _, h := range hs[1:] {
		common = common.Intersect(h)
	}
	ck.inter = vector.IntersectInto(ck.inter, vs...)
	if got := ck.inter.MassOf(common); got < alpha {
		return &Violation{
			Property: Distance,
			Vectors:  cloneVectors(vs...),
			Alpha:    alpha,
			Detail: fmt.Sprintf(
				"d_G=%d ≥ x−α+1=%d but ⊓ holds only %d entries of ∩h=%v (need ≥ α=%d)",
				dg, x-alpha+1, got, common, alpha),
		}
	}
	return nil
}

// CheckDistanceInstance checks the distance property for one specific set of
// vectors with their recognized sets: for every α ∈ [1,x] with
// d_G ≤ x−α+1, the intersecting vector must hold at least α entries with
// values of ∩_j h(I_j). Returns a Violation or nil.
//
// For a fixed subset the hypothesis holds exactly for α ≤ x−d_G+1, and the
// conclusion "mass ≥ α" is monotone in α, so checking the single binding
// instance α* = min(x, x−d_G+1) covers all of them.
func CheckDistanceInstance(vs []vector.Vector, hs []vector.Set, x int) *Violation {
	var ck Checker
	return ck.distanceInstance(vs, hs, x)
}

// ExistsRecognizer searches for any recognizing function making the
// enumerated condition (x,ℓ)-legal, by backtracking over the candidate
// recognized sets of each member with pairwise distance pruning and a full
// subset check on completion. It returns the witness assignment (parallel
// to the member order) when one exists. The search is exponential; it is
// intended for the small counterexample conditions of Section 3 and
// Appendix B. Sweeps should hold a Checker and call its ExistsRecognizer.
func ExistsRecognizer(c *Explicit, x int) ([]vector.Set, bool) {
	return NewChecker().ExistsRecognizer(c, x)
}

// ExistsRecognizer is the scratch-reusing form of the package-level
// ExistsRecognizer: candidate sets live in one flat buffer, the pairwise
// pruning probes reuse the checker's witness and intersection scratch, and
// only the returned assignment is freshly allocated.
func (ck *Checker) ExistsRecognizer(c *Explicit, x int) ([]vector.Set, bool) {
	size := c.Size()
	l := c.L()

	// Candidate h-sets per member: subsets of val(I) of size min(ℓ,|val|)
	// whose mass exceeds x (validity + density pre-filter).
	ck.candFlat = ck.candFlat[:0]
	ck.candOff = ck.candOff[:0]
	for k := 0; k < size; k++ {
		ck.candOff = append(ck.candOff, len(ck.candFlat))
		vals := c.ValsAt(k)
		start := len(ck.candFlat)
		ck.candFlat = appendKSubsets(ck.candFlat, vals, min(l, vals.Len()))
		w := start
		for r := start; r < len(ck.candFlat); r++ {
			if c.Mass(k, ck.candFlat[r]) > x {
				ck.candFlat[w] = ck.candFlat[r]
				w++
			}
		}
		ck.candFlat = ck.candFlat[:w]
		if w == start {
			return nil, false
		}
	}
	ck.candOff = append(ck.candOff, len(ck.candFlat))

	ck.load(c)
	members := ck.members
	assign := make([]vector.Set, size)
	var pairV [2]vector.Vector
	var pairH [2]vector.Set
	var rec func(k int) bool
	rec = func(k int) bool {
		if k == size {
			return ck.distanceSubsets(members, assign, x, size) == nil
		}
		for _, s := range ck.candFlat[ck.candOff[k]:ck.candOff[k+1]] {
			assign[k] = s
			ok := true
			// Prune: pairwise distance instances against assigned members.
			for j := 0; j < k && ok; j++ {
				pairV[0], pairV[1] = members[j], members[k]
				pairH[0], pairH[1] = assign[j], assign[k]
				ok = ck.distanceInstance(pairV[:], pairH[:], x) == nil
			}
			if ok && rec(k+1) {
				return true
			}
		}
		assign[k] = vector.Set{}
		return false
	}
	if rec(0) {
		return assign, true
	}
	return nil, false
}

// appendKSubsets appends every subset of s with exactly k elements to dst,
// in lexicographic order of the ascending value lists. It allocates only
// when dst must grow.
func appendKSubsets(dst []vector.Set, s vector.Set, k int) []vector.Set {
	if k < 0 || k > s.Len() {
		return dst
	}
	if k == 0 {
		return append(dst, vector.Set{})
	}
	var vals [int(vector.MaxSetValue)]vector.Value
	nv := 0
	s.ForEach(func(v vector.Value) bool {
		vals[nv] = v
		nv++
		return true
	})
	// Standard next-combination enumeration over positions 0..nv-1.
	var pos [int(vector.MaxSetValue)]int
	for i := 0; i < k; i++ {
		pos[i] = i
	}
	for {
		var sub vector.Set
		for i := 0; i < k; i++ {
			sub = sub.Add(vals[pos[i]])
		}
		dst = append(dst, sub)
		// Advance: find the rightmost position that can move up.
		i := k - 1
		for i >= 0 && pos[i] == nv-k+i {
			i--
		}
		if i < 0 {
			return dst
		}
		pos[i]++
		for j := i + 1; j < k; j++ {
			pos[j] = pos[j-1] + 1
		}
	}
}
