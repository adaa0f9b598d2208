package vector

import (
	"math/rand"
	"sort"
	"testing"
)

// refSet is the pre-bitset reference implementation of Set: a sorted slice
// of distinct values. The property tests below drive it in lockstep with
// the bitmask Set over randomized inputs to pin the representation change.
type refSet []Value

func (r refSet) add(v Value) refSet {
	if v == Bottom {
		return r
	}
	i := sort.Search(len(r), func(k int) bool { return r[k] >= v })
	if i < len(r) && r[i] == v {
		return r
	}
	out := make(refSet, 0, len(r)+1)
	out = append(out, r[:i]...)
	out = append(out, v)
	return append(out, r[i:]...)
}

func (r refSet) has(v Value) bool {
	i := sort.Search(len(r), func(k int) bool { return r[k] >= v })
	return i < len(r) && r[i] == v
}

func (r refSet) intersect(t refSet) refSet {
	var out refSet
	for _, v := range r {
		if t.has(v) {
			out = append(out, v)
		}
	}
	return out
}

func (r refSet) minus(t refSet) refSet {
	var out refSet
	for _, v := range r {
		if !t.has(v) {
			out = append(out, v)
		}
	}
	return out
}

func (r refSet) subsetOf(t refSet) bool {
	for _, v := range r {
		if !t.has(v) {
			return false
		}
	}
	return true
}

func (r refSet) topL(l int) refSet {
	if len(r) <= l {
		return r
	}
	return r[len(r)-l:]
}

func (r refSet) bottomL(l int) refSet {
	if len(r) <= l {
		return r
	}
	return r[:l]
}

// Values returns the values of s in ascending order as a fresh slice:
// the reference sets compare against it.
func (s Set) Values() []Value {
	out := make([]Value, 0, s.Len())
	s.ForEach(func(v Value) bool {
		out = append(out, v)
		return true
	})
	return out
}

func (r refSet) equalTo(s Set) bool {
	vals := s.Values()
	if len(vals) != len(r) {
		return false
	}
	for i := range r {
		if r[i] != vals[i] {
			return false
		}
	}
	return true
}

func randSetPair(r *rand.Rand, m int) (Set, refSet) {
	var s Set
	var ref refSet
	for k := r.Intn(10); k > 0; k-- {
		v := Value(1 + r.Intn(m))
		s = s.Add(v)
		ref = ref.add(v)
	}
	return s, ref
}

// TestPropSetAgainstReference drives the bitmask Set and the reference
// slice implementation through Add/Has/Intersect/Union/Minus/SubsetOf and
// the extrema over randomized inputs, including values near the 64-value
// domain boundary.
func TestPropSetAgainstReference(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 2000; trial++ {
		m := 1 + r.Intn(int(MaxSetValue))
		a, refA := randSetPair(r, m)
		b, refB := randSetPair(r, m)

		if !refA.equalTo(a) || !refB.equalTo(b) {
			t.Fatalf("construction diverged: %v vs %v, %v vs %v", a, refA, b, refB)
		}
		if !refA.intersect(refB).equalTo(a.Intersect(b)) {
			t.Fatalf("Intersect(%v, %v) = %v, reference %v", a, b, a.Intersect(b), refA.intersect(refB))
		}
		if !refA.minus(refB).equalTo(a.Minus(b)) {
			t.Fatalf("Minus(%v, %v) = %v, reference %v", a, b, a.Minus(b), refA.minus(refB))
		}
		if got, want := a.SubsetOf(b), refA.subsetOf(refB); got != want {
			t.Fatalf("SubsetOf(%v, %v) = %v, reference %v", a, b, got, want)
		}
		probe := Value(1 + r.Intn(m))
		if got, want := a.Has(probe), refA.has(probe); got != want {
			t.Fatalf("Has(%v, %v) = %v, reference %v", a, probe, got, want)
		}
		if a.Len() != len(refA) {
			t.Fatalf("Len(%v) = %d, reference %d", a, a.Len(), len(refA))
		}
		if len(refA) > 0 {
			if a.Max() != refA[len(refA)-1] {
				t.Fatalf("Max(%v) = %v, reference %v", a, a.Max(), refA[len(refA)-1])
			}
		} else if a.Max() != Bottom {
			t.Fatalf("Max of empty set: %v", a.Max())
		}
	}
}

// TestPropTopLBottomLAgainstReference pins max_ℓ/min_ℓ — the recognizing
// functions every theorem builds on — against the reference slicing.
func TestPropTopLBottomLAgainstReference(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + r.Intn(12)
		m := 1 + r.Intn(int(MaxSetValue))
		v := New(n)
		var ref refSet
		for i := range v {
			if r.Intn(5) == 0 {
				v[i] = Bottom
				continue
			}
			v[i] = Value(1 + r.Intn(m))
			ref = ref.add(v[i])
		}
		l := r.Intn(5)
		if !ref.equalTo(v.Vals()) {
			t.Fatalf("Vals(%v) = %v, reference %v", v, v.Vals(), ref)
		}
		if !ref.topL(l).equalTo(v.TopL(l)) {
			t.Fatalf("TopL(%v, %d) = %v, reference %v", v, l, v.TopL(l), ref.topL(l))
		}
		if !ref.bottomL(l).equalTo(v.BottomL(l)) {
			t.Fatalf("BottomL(%v, %d) = %v, reference %v", v, l, v.BottomL(l), ref.bottomL(l))
		}
	}
}

// TestKeyInjective checks both Key encodings (packed bytes and the tagged
// decimal fallback) against each other for collisions across a randomized
// vector population that straddles the fast-path boundary.
func TestKeyInjective(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	seen := map[string]Vector{}
	seen64 := map[uint64]Vector{}
	for trial := 0; trial < 5000; trial++ {
		n := 1 + r.Intn(6)
		v := New(n)
		for i := range v {
			v[i] = Value(r.Intn(200)) // some entries force the fallback
		}
		key := v.Key()
		if prior, ok := seen[key]; ok && !prior.Equal(v) {
			t.Fatalf("Key collision %q: %v vs %v", key, prior, v)
		}
		seen[key] = v.Clone()
		if k64, ok := v.Key64(); ok {
			if prior, ok := seen64[k64]; ok && !prior.Equal(v) {
				t.Fatalf("Key64 collision %d: %v vs %v", k64, prior, v)
			}
			seen64[k64] = v.Clone()
		}
	}
}

var (
	allocSinkSet Set
	allocSinkInt int
)

// TestAllocFreeKernels pins the hot vector kernels at zero allocations.
func TestAllocFreeKernels(t *testing.T) {
	v := OfInts(4, 1, 0, 4, 7, 2, 2, 9)
	s := SetOf(1, 2, 7)
	u := SetOf(2, 7, 9)
	checks := []struct {
		name string
		fn   func()
	}{
		{"Vals", func() { allocSinkSet = v.Vals() }},
		{"MassOf", func() { allocSinkInt = v.MassOf(s) }},
		{"Set.Intersect", func() { allocSinkSet = s.Intersect(u) }},
		{"TopL", func() { allocSinkSet = v.TopL(2) }},
		{"BottomL", func() { allocSinkSet = v.BottomL(2) }},
	}
	for _, c := range checks {
		if avg := testing.AllocsPerRun(200, c.fn); avg != 0 {
			t.Errorf("%s allocates %.1f times per run, want 0", c.name, avg)
		}
	}
}
