package vector

import (
	"strconv"
	"strings"
)

// Value is a proposed value. The paper's value domain V is modeled as the
// integers 1..m; Bottom (⊥) is smaller than every proposable value, which
// matches the paper's convention that ⊥ < a for every a ∈ V and lets max()
// treat ⊥ as the identity.
type Value int

// Bottom is the default value ⊥: it cannot be proposed, and it marks the
// entries of a view whose process has not been heard from.
const Bottom Value = 0

// IsProposable reports whether v belongs to the value domain V (v ≥ 1).
func (v Value) IsProposable() bool { return v >= 1 }

// String renders a value; ⊥ is rendered as "⊥".
func (v Value) String() string {
	if v == Bottom {
		return "⊥"
	}
	return strconv.Itoa(int(v))
}

// Vector is an input vector or a view: one entry per process.
type Vector []Value

// New returns a view of size n with every entry equal to Bottom.
func New(n int) Vector { return make(Vector, n) }

// OfInts builds a vector from plain ints; 0 means Bottom.
func OfInts(vs ...int) Vector {
	out := make(Vector, len(vs))
	for i, v := range vs {
		out[i] = Value(v)
	}
	return out
}

// Clone returns an independent copy of v.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// Equal reports whether v and w have the same length and entries.
func (v Vector) Equal(w Vector) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if v[i] != w[i] {
			return false
		}
	}
	return true
}

// IsFull reports whether v has no Bottom entry (i.e. it is an input vector,
// not a strict view).
func (v Vector) IsFull() bool {
	for _, x := range v {
		if x == Bottom {
			return false
		}
	}
	return true
}

// Count returns #_a(v), the number of occurrences of a in v. Counting
// Bottom occurrences is allowed (a == Bottom counts ⊥ entries).
func (v Vector) Count(a Value) int {
	n := 0
	for _, x := range v {
		if x == a {
			n++
		}
	}
	return n
}

// BottomCount returns #_⊥(v), the number of ⊥ entries of v.
func (v Vector) BottomCount() int { return v.Count(Bottom) }

// Max returns the greatest non-⊥ value of v, or Bottom if v has none.
// The paper writes this max(V).
func (v Vector) Max() Value {
	best := Bottom
	for _, x := range v {
		if x > best {
			best = x
		}
	}
	return best
}

// Vals returns val(v): the set of non-⊥ values present in v. It is a
// single pass with no allocation.
func (v Vector) Vals() Set {
	var b uint64
	for _, x := range v {
		if x != Bottom {
			b |= setBit(x)
		}
	}
	return Set{b}
}

// ContainedIn reports J ≤ I in the paper's sense: every non-⊥ entry of J
// agrees with I. (Bottom entries of J are "unknown" and match anything.)
func (v Vector) ContainedIn(i Vector) bool {
	if len(v) != len(i) {
		return false
	}
	for k := range v {
		if v[k] != Bottom && v[k] != i[k] {
			return false
		}
	}
	return true
}

// Hamming returns d_H(v, w): the number of entries in which v and w differ.
// It panics if the vectors have different lengths.
func Hamming(v, w Vector) int {
	if len(v) != len(w) {
		panic("vector: Hamming distance of vectors with different lengths")
	}
	d := 0
	for k := range v {
		if v[k] != w[k] {
			d++
		}
	}
	return d
}

// GeneralizedDistance returns d_G(vs...): the number of entry positions at
// which at least two of the given vectors differ. On two vectors it equals
// the Hamming distance. It panics on length mismatch or an empty argument
// list; d_G of a single vector is 0.
func GeneralizedDistance(vs ...Vector) int {
	if len(vs) == 0 {
		panic("vector: generalized distance of empty set")
	}
	n := len(vs[0])
	d := 0
	for k := 0; k < n; k++ {
		for _, v := range vs[1:] {
			if len(v) != n {
				panic("vector: generalized distance of vectors with different lengths")
			}
			if v[k] != vs[0][k] {
				d++
				break
			}
		}
	}
	return d
}

// IntersectInto returns the intersecting vector ⊓(vs...): the view whose
// entry k is the common value vs[j][k] when all vectors agree at k, and
// Bottom at the positions where at least two vectors differ. Its non-⊥
// entry count is n − d_G(vs...). It writes into dst, which is grown when
// too small (nil allocates) and returned resliced to the vector size.
// Sweeps that evaluate many distance instances (the legality checker
// above all) reuse one scratch vector and intersect with no allocation.
func IntersectInto(dst Vector, vs ...Vector) Vector {
	if len(vs) == 0 {
		panic("vector: intersection of empty set")
	}
	n := len(vs[0])
	var out Vector
	if cap(dst) >= n {
		out = dst[:n]
	} else {
		out = make(Vector, n)
	}
	for k := 0; k < n; k++ {
		common := vs[0][k]
		for _, v := range vs[1:] {
			if v[k] != common {
				common = Bottom
				break
			}
		}
		out[k] = common
	}
	return out
}

// MassOf returns Σ_{a∈s} #_a(v): the number of entries of v holding a value
// of s. This is the count the density and distance properties bound. It is
// a single pass with no allocation.
func (v Vector) MassOf(s Set) int {
	n := 0
	for _, x := range v {
		if s.Has(x) {
			n++
		}
	}
	return n
}

// TopL returns max_ℓ(v): the min(ℓ, |val(v)|) greatest distinct values of v,
// as a Set. It is the paper's canonical recognizing function (Section 2.3).
func (v Vector) TopL(l int) Set { return v.Vals().TopN(l) }

// BottomL returns min_ℓ(v): the min(ℓ, |val(v)|) smallest distinct values.
// Every Section 2.3 theorem holds for min_ℓ in place of max_ℓ.
func (v Vector) BottomL(l int) Set { return v.Vals().BottomN(l) }

// Key returns a compact string encoding of v usable as a map key. Short
// vectors of small values (the universal case in this repo) pack one byte
// per entry from a stack buffer; the decimal fallback is tagged with a
// leading 0xff byte — which no packed key contains — so the two encodings
// can never collide.
func (v Vector) Key() string {
	var buf [32]byte
	if len(v) <= len(buf) {
		for i, x := range v {
			if x < 0 || x > 127 {
				return v.slowKey()
			}
			buf[i] = byte(x)
		}
		return string(buf[:len(v)])
	}
	return v.slowKey()
}

func (v Vector) slowKey() string {
	b := make([]byte, 0, 2+4*len(v))
	b = append(b, 0xff)
	for i, x := range v {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(x), 10)
	}
	return string(b)
}

// Key64 packs v into a single integer key: ok when len(v) ≤ 10 and every
// entry lies in 0..63 (⊥ included). The packing is prefixed with a sentinel
// bit, so vectors of different lengths never collide. No library code
// calls it any more (wire frame v2 sends a state triple as three bytes);
// it and Key stay only because the frozen bench/ prices them — ROADMAP 5(d).
func (v Vector) Key64() (uint64, bool) {
	if len(v) > 10 {
		return 0, false
	}
	k := uint64(1)
	for _, x := range v {
		if x < 0 || x > 63 {
			return 0, false
		}
		k = k<<6 | uint64(x)
	}
	return k, true
}

// String renders the vector in the paper's [a b ⊥ c] style.
func (v Vector) String() string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = x.String()
	}
	return "[" + strings.Join(parts, " ") + "]"
}
