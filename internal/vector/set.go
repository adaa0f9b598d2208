package vector

import (
	"math/bits"
	"strings"
)

// MaxSetValue is the largest value a Set can hold. The experimental value
// domains of the paper are tiny (m ≤ 63 everywhere), so sets are
// represented as 64-bit masks; constructors of conditions over {1..m}^n
// reject m > MaxSetValue.
const MaxSetValue Value = 64

// Set is a set of distinct proposable values, represented as a bitmask:
// bit v−1 is set exactly when value v ∈ s. The zero value is the empty
// set. Sets are immutable values: every operation returns a new set and
// never mutates the receiver, so sets can be shared and copied freely
// (copying is a single word). Values must lie in 1..MaxSetValue.
type Set struct {
	bits uint64
}

// SetOf builds a set from the given values, deduplicating.
func SetOf(vs ...Value) Set {
	var s Set
	for _, v := range vs {
		s = s.Add(v)
	}
	return s
}

// setBit returns the mask bit of v, panicking when v is outside the
// representable domain. Bottom is handled by the callers.
func setBit(v Value) uint64 {
	if v < 1 || v > MaxSetValue {
		panic("vector: set value " + v.String() + " outside 1..64")
	}
	return 1 << (uint(v) - 1)
}

// Add returns s ∪ {v}. Adding Bottom is a no-op: sets hold proposable
// values only.
func (s Set) Add(v Value) Set {
	if v == Bottom {
		return s
	}
	return Set{s.bits | setBit(v)}
}

// Has reports whether v ∈ s.
func (s Set) Has(v Value) bool {
	if v < 1 || v > MaxSetValue {
		return false
	}
	return s.bits&(1<<(uint(v)-1)) != 0
}

// Len returns |s|.
func (s Set) Len() int { return bits.OnesCount64(s.bits) }

// Empty reports whether s is the empty set.
func (s Set) Empty() bool { return s.bits == 0 }

// Max returns the greatest value of s, or Bottom if s is empty.
func (s Set) Max() Value { return Value(bits.Len64(s.bits)) }

// Intersect returns s ∩ t.
func (s Set) Intersect(t Set) Set { return Set{s.bits & t.bits} }

// Minus returns s \ t.
func (s Set) Minus(t Set) Set { return Set{s.bits &^ t.bits} }

// SubsetOf reports s ⊆ t.
func (s Set) SubsetOf(t Set) bool { return s.bits&^t.bits == 0 }

// Equal reports whether s and t contain the same values. Sets are
// comparable, so s == t is equivalent.
func (s Set) Equal(t Set) bool { return s == t }

// TopN returns the min(n, |s|) greatest values of s.
func (s Set) TopN(n int) Set {
	for k := bits.OnesCount64(s.bits); k > n; k-- {
		s.bits &= s.bits - 1 // drop the smallest remaining value
	}
	return s
}

// BottomN returns the min(n, |s|) smallest values of s.
func (s Set) BottomN(n int) Set {
	for k := bits.OnesCount64(s.bits); k > n; k-- {
		s.bits &^= 1 << (bits.Len64(s.bits) - 1) // drop the greatest
	}
	return s
}

// ForEach calls fn on each value of s in ascending order, stopping early
// if fn returns false.
func (s Set) ForEach(fn func(Value) bool) {
	for b := s.bits; b != 0; b &= b - 1 {
		if !fn(Value(bits.TrailingZeros64(b) + 1)) {
			return
		}
	}
}

// ForEachDesc calls fn on each value of s in descending order, stopping
// early if fn returns false.
func (s Set) ForEachDesc(fn func(Value) bool) {
	for b := s.bits; b != 0; {
		top := bits.Len64(b) - 1
		if !fn(Value(top + 1)) {
			return
		}
		b &^= 1 << top
	}
}

// String renders the set as {a,b,c}.
func (s Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(v Value) bool {
		if !first {
			b.WriteByte(',')
		}
		first = false
		b.WriteString(v.String())
		return true
	})
	b.WriteByte('}')
	return b.String()
}
