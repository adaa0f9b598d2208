package condition

import (
	"math/bits"

	"kset/internal/vector"
)

// index is Explicit's member store and membership index: the members in
// one flat array in insertion order, their recognized sets and analysis
// tables, and one open-addressing table from a 64-bit hash of a vector's
// entries to its member position. Every hash hit is verified against the
// stored member, so vectors of any size over any values index the same
// way, and a probe never allocates.
type index struct {
	n, m, l int

	flat []vector.Value // member k is flat[k*n : (k+1)*n]
	hs   []vector.Set   // h(member k)
	vals []vector.Set   // val(member k)

	// counts[k*(m+1)+v] = #_v(member k): the mass queries of legality
	// checking and recognizer search read it in O(|set|) instead of O(n).
	counts []uint16

	// slots[s] is a member position plus one, 0 = empty. Its length is a
	// power of two kept at or above twice the member count; a vector's home
	// slot is the top bits of its hash.
	slots []int32
	shift uint
}

// hashMul finishes the entry hash (Fibonacci hashing: the high bits of
// h·2⁶⁴/φ are well mixed).
const hashMul = 0x9e3779b97f4a7c15

// hash mixes the entries with a rotate and an xor each and one closing
// multiply. Seven bits per entry hold every storable value (≤ 64), so
// vectors of up to nine entries hash injectively before the multiply.
func hash(i vector.Vector) uint64 {
	var h uint64
	for _, v := range i {
		h = bits.RotateLeft64(h, 7) ^ uint64(v)
	}
	return h * hashMul
}

// N implements Condition.
func (ix *index) N() int { return ix.n }

// M implements Condition.
func (ix *index) M() int { return ix.m }

// L implements Condition.
func (ix *index) L() int { return ix.l }

// Size returns the number of member vectors.
func (ix *index) Size() int { return len(ix.hs) }

// MemberAt returns member k (0 ≤ k < Size()) in insertion order, as a
// read-only view into the condition's flat storage (zero-copy; do not
// mutate).
func (ix *index) MemberAt(k int) vector.Vector {
	return vector.Vector(ix.flat[k*ix.n : (k+1)*ix.n : (k+1)*ix.n])
}

// RecognizedAt returns h(MemberAt(k)).
func (ix *index) RecognizedAt(k int) vector.Set { return ix.hs[k] }

// IndexOf returns the member position of i: one hash of its entries and a
// near-always-single probe, the hit verified entry by entry. Vectors of the
// wrong size are never members. It does not allocate.
func (ix *index) IndexOf(i vector.Vector) (int, bool) {
	if len(i) != ix.n || len(ix.slots) == 0 {
		return 0, false
	}
	mask := uint64(len(ix.slots) - 1)
	for s := hash(i) >> ix.shift; ; s = (s + 1) & mask {
		k := int(ix.slots[s]) - 1
		if k < 0 {
			return 0, false
		}
		if ix.MemberAt(k).Equal(i) {
			return k, true
		}
	}
}

// Contains implements Condition via one IndexOf probe.
func (ix *index) Contains(i vector.Vector) bool {
	_, ok := ix.IndexOf(i)
	return ok
}

// Recognize implements Condition via one IndexOf probe.
func (ix *index) Recognize(i vector.Vector) vector.Set {
	h, _ := ix.Lookup(i)
	return h
}

// Lookup returns h(i) and whether i is a member, in a single probe — the
// fused Contains+Recognize the view decoder uses per completion.
func (ix *index) Lookup(i vector.Vector) (vector.Set, bool) {
	if k, ok := ix.IndexOf(i); ok {
		return ix.hs[k], true
	}
	return vector.Set{}, false
}

// ForEachMember implements Condition with a zero-copy iteration over the
// flat member storage, in insertion order. The yielded vectors are the
// condition's own storage: Clone to retain or mutate.
func (ix *index) ForEachMember(fn func(vector.Vector) bool) {
	for k := range ix.hs {
		if !fn(ix.MemberAt(k)) {
			return
		}
	}
}

// Members returns an independent deep copy of the member vectors, in
// insertion order — the safe counterpart of MemberAt for callers that
// want to keep or mutate the vectors.
func (ix *index) Members() []vector.Vector {
	out := make([]vector.Vector, len(ix.hs))
	for k := range out {
		out[k] = ix.MemberAt(k).Clone()
	}
	return out
}

// add appends a member the caller has checked is absent and in {1..m}^n,
// copying i into the flat storage, recording its value set and count row,
// and doubling the table whenever it would pass half full.
func (ix *index) add(i vector.Vector, h vector.Set) {
	ix.flat = append(ix.flat, i...)
	ix.hs = append(ix.hs, h)
	ix.vals = append(ix.vals, i.Vals())
	row := len(ix.counts)
	ix.counts = append(ix.counts, make([]uint16, ix.m+1)...)
	for _, v := range i {
		ix.counts[row+int(v)]++
	}
	if 2*len(ix.hs) > len(ix.slots) {
		ix.slots = make([]int32, max(8, 2*len(ix.slots)))
		ix.shift = uint(64 - bits.TrailingZeros(uint(len(ix.slots))))
		for k := range ix.hs {
			ix.place(k)
		}
		return
	}
	ix.place(len(ix.hs) - 1)
}

// ValsAt returns val(MemberAt(k)) from the stored table.
func (ix *index) ValsAt(k int) vector.Set { return ix.vals[k] }

// Mass returns Σ_{v∈s} #_v(I_k) — the density/distance mass of member k
// against the value set s — in O(|s|) table lookups instead of an O(n)
// vector scan, with no allocation. Values of s beyond the condition's
// domain {1..m} contribute nothing (a set may hold values up to 64).
func (ix *index) Mass(k int, s vector.Set) int {
	row := ix.counts[k*(ix.m+1) : (k+1)*(ix.m+1)]
	mass := 0
	s.ForEach(func(v vector.Value) bool {
		if int(v) <= ix.m {
			mass += int(row[v])
		}
		return true
	})
	return mass
}

// place writes member k into the first free slot at or after its home.
func (ix *index) place(k int) {
	mask := uint64(len(ix.slots) - 1)
	s := hash(ix.MemberAt(k)) >> ix.shift
	for ix.slots[s] != 0 {
		s = (s + 1) & mask
	}
	ix.slots[s] = int32(k + 1)
}
