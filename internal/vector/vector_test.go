package vector

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestValueString(t *testing.T) {
	if got := Bottom.String(); got != "⊥" {
		t.Errorf("Bottom.String() = %q, want ⊥", got)
	}
	if got := Value(7).String(); got != "7" {
		t.Errorf("Value(7).String() = %q, want 7", got)
	}
	if Bottom.IsProposable() {
		t.Error("Bottom must not be proposable")
	}
	if !Value(1).IsProposable() {
		t.Error("Value(1) must be proposable")
	}
}

func TestCounts(t *testing.T) {
	v := OfInts(1, 2, 2, 0, 3, 2)
	tests := []struct {
		name string
		got  int
		want int
	}{
		{"count 2", v.Count(2), 3},
		{"count 1", v.Count(1), 1},
		{"count absent", v.Count(9), 0},
		{"bottoms", v.BottomCount(), 1},
	}
	for _, tc := range tests {
		if tc.got != tc.want {
			t.Errorf("%s: got %d, want %d", tc.name, tc.got, tc.want)
		}
	}
}

func TestMaxMin(t *testing.T) {
	tests := []struct {
		name string
		v    Vector
		max  Value
	}{
		{"plain", OfInts(3, 1, 4, 1, 5), 5},
		{"with bottoms", OfInts(0, 2, 0, 7), 7},
		{"all bottom", OfInts(0, 0), Bottom},
		{"empty", Vector{}, Bottom},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.v.Max(); got != tc.max {
				t.Errorf("Max() = %v, want %v", got, tc.max)
			}
		})
	}
}

func TestVals(t *testing.T) {
	v := OfInts(3, 1, 0, 3, 2)
	want := SetOf(1, 2, 3)
	if got := v.Vals(); !got.Equal(want) {
		t.Errorf("Vals() = %v, want %v", got, want)
	}
	if got := OfInts(0, 0).Vals(); !got.Empty() {
		t.Errorf("Vals of all-⊥ = %v, want empty", got)
	}
}

func TestContainedIn(t *testing.T) {
	i := OfInts(1, 2, 3, 4)
	tests := []struct {
		name string
		j    Vector
		want bool
	}{
		{"itself", i, true},
		{"prefix view", OfInts(1, 2, 0, 0), true},
		{"scattered view", OfInts(0, 2, 0, 4), true},
		{"all bottom", OfInts(0, 0, 0, 0), true},
		{"mismatch", OfInts(1, 9, 0, 0), false},
		{"length mismatch", OfInts(1, 2, 3), false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.j.ContainedIn(i); got != tc.want {
				t.Errorf("ContainedIn = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestHamming(t *testing.T) {
	a := OfInts(1, 2, 3, 4)
	b := OfInts(1, 9, 3, 8)
	if got := Hamming(a, b); got != 2 {
		t.Errorf("Hamming = %d, want 2", got)
	}
	if got := Hamming(a, a); got != 0 {
		t.Errorf("Hamming(a,a) = %d, want 0", got)
	}
}

// TestGeneralizedDistancePaperExample checks the worked example of Section
// 2.1: d_G([a a e b b], [a a e c c], [a f e b c]) = 3 (entries 2, 4, 5
// differ somewhere). With a=1, b=2, c=3, e=5, f=6.
func TestGeneralizedDistancePaperExample(t *testing.T) {
	i1 := OfInts(1, 1, 5, 2, 2)
	i2 := OfInts(1, 1, 5, 3, 3)
	i3 := OfInts(1, 6, 5, 2, 3)
	if got := GeneralizedDistance(i1, i2, i3); got != 3 {
		t.Errorf("d_G = %d, want 3", got)
	}
	// On two vectors d_G is the Hamming distance.
	if got, want := GeneralizedDistance(i1, i2), Hamming(i1, i2); got != want {
		t.Errorf("d_G on pair = %d, want Hamming %d", got, want)
	}
	if got := GeneralizedDistance(i1); got != 0 {
		t.Errorf("d_G of singleton = %d, want 0", got)
	}
}

func TestIntersect(t *testing.T) {
	i1 := OfInts(1, 1, 5, 2, 2)
	i2 := OfInts(1, 1, 5, 3, 3)
	i3 := OfInts(1, 6, 5, 2, 3)
	got := IntersectInto(nil, i1, i2, i3)
	want := OfInts(1, 0, 5, 0, 0)
	if !got.Equal(want) {
		t.Errorf("Intersect = %v, want %v", got, want)
	}
	// |non-⊥ entries of ⊓| = n − d_G.
	if n := len(i1) - got.BottomCount(); n != len(i1)-GeneralizedDistance(i1, i2, i3) {
		t.Errorf("intersecting vector has %d entries, want n-d_G", n)
	}
}

func TestMassOf(t *testing.T) {
	v := OfInts(1, 2, 2, 3, 0)
	if got := v.MassOf(SetOf(2, 3)); got != 3 {
		t.Errorf("MassOf({2,3}) = %d, want 3", got)
	}
	if got := v.MassOf(Set{}); got != 0 {
		t.Errorf("MassOf(∅) = %d, want 0", got)
	}
}

func TestTopLBottomL(t *testing.T) {
	v := OfInts(4, 1, 2, 4, 7)
	tests := []struct {
		l   int
		top Set
		bot Set
	}{
		{1, SetOf(7), SetOf(1)},
		{2, SetOf(4, 7), SetOf(1, 2)},
		{4, SetOf(1, 2, 4, 7), SetOf(1, 2, 4, 7)},
		{9, SetOf(1, 2, 4, 7), SetOf(1, 2, 4, 7)},
	}
	for _, tc := range tests {
		if got := v.TopL(tc.l); !got.Equal(tc.top) {
			t.Errorf("TopL(%d) = %v, want %v", tc.l, got, tc.top)
		}
		if got := v.BottomL(tc.l); !got.Equal(tc.bot) {
			t.Errorf("BottomL(%d) = %v, want %v", tc.l, got, tc.bot)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	v := OfInts(1, 2, 3)
	w := v.Clone()
	w[0] = 9
	if v[0] != 1 {
		t.Error("Clone shares storage with original")
	}
}

func TestKeyDistinct(t *testing.T) {
	// Key must distinguish [1 12] from [11 2].
	a := OfInts(1, 12)
	b := OfInts(11, 2)
	if a.Key() == b.Key() {
		t.Errorf("Key collision: %q", a.Key())
	}
}

func TestStringRendering(t *testing.T) {
	v := OfInts(1, 0, 3)
	if got := v.String(); got != "[1 ⊥ 3]" {
		t.Errorf("String() = %q", got)
	}
}

func randomVector(r *rand.Rand, n, m int, bottoms bool) Vector {
	v := New(n)
	for i := range v {
		if bottoms && r.Intn(4) == 0 {
			v[i] = Bottom
		} else {
			v[i] = Value(1 + r.Intn(m))
		}
	}
	return v
}

// Property: d_G(vs) equals the number of ⊥ entries Intersect introduces on
// full vectors.
func TestPropIntersectDistanceAgree(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		n := 1 + r.Intn(8)
		z := 1 + r.Intn(4)
		vs := make([]Vector, z)
		for i := range vs {
			vs[i] = randomVector(r, n, 4, false)
		}
		inter := IntersectInto(nil, vs...)
		if got, want := inter.BottomCount(), GeneralizedDistance(vs...); got != want {
			t.Fatalf("⊓ bottoms = %d, d_G = %d for %v", got, want, vs)
		}
		for _, v := range vs {
			if !inter.ContainedIn(v) {
				t.Fatalf("⊓ %v not contained in %v", inter, v)
			}
		}
	}
}

// Property: d_G is monotone — adding a vector cannot decrease it, and it is
// bounded by the sum of pairwise Hamming distances to the first vector.
func TestPropGeneralizedDistanceMonotone(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 500; trial++ {
		n := 1 + r.Intn(8)
		a := randomVector(r, n, 3, false)
		b := randomVector(r, n, 3, false)
		c := randomVector(r, n, 3, false)
		dab := GeneralizedDistance(a, b)
		dabc := GeneralizedDistance(a, b, c)
		if dabc < dab {
			t.Fatalf("d_G decreased: %d -> %d", dab, dabc)
		}
		if dabc > dab+Hamming(a, c) {
			t.Fatalf("d_G(a,b,c)=%d exceeds d_G(a,b)+d_H(a,c)=%d", dabc, dab+Hamming(a, c))
		}
	}
}

// Property: containment is a partial order and Intersect is its meet lower
// bound.
func TestPropContainmentPartialOrder(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(3))}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(7)
		i := randomVector(r, n, 4, false)
		j := i.Clone()
		// Erase a random subset: j ≤ i must hold.
		for k := range j {
			if r.Intn(2) == 0 {
				j[k] = Bottom
			}
		}
		if !j.ContainedIn(i) {
			return false
		}
		// Reflexivity and antisymmetry on the pair.
		if !i.ContainedIn(i) || !j.ContainedIn(j) {
			return false
		}
		if i.ContainedIn(j) && !i.Equal(j) {
			return false
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestSetOps(t *testing.T) {
	a := SetOf(3, 1, 2, 3) // dedup + sort
	if !a.Equal(SetOf(1, 2, 3)) {
		t.Errorf("SetOf dedup failed: %v", a)
	}
	b := SetOf(2, 3, 4)
	if got := a.Intersect(b); !got.Equal(SetOf(2, 3)) {
		t.Errorf("Intersect = %v", got)
	}
	if got := a.Minus(b); !got.Equal(SetOf(1)) {
		t.Errorf("Minus = %v", got)
	}
	if !SetOf(1, 2).SubsetOf(a) || a.SubsetOf(SetOf(1, 2)) {
		t.Error("SubsetOf wrong")
	}
	if a.Max() != 3 {
		t.Error("Max wrong")
	}
	var empty Set
	if empty.Max() != Bottom || !empty.Empty() {
		t.Error("empty-set extrema wrong")
	}
	if got := SetOf(1, 2).String(); got != "{1,2}" {
		t.Errorf("Set.String() = %q", got)
	}
}

func TestSetAddBottomNoop(t *testing.T) {
	s := SetOf(1).Add(Bottom)
	if !s.Equal(SetOf(1)) {
		t.Errorf("adding ⊥ changed set: %v", s)
	}
}

func TestSetImmutability(t *testing.T) {
	a := SetOf(1, 3)
	b := a.Add(2)
	if !a.Equal(SetOf(1, 3)) {
		t.Errorf("Add mutated receiver: %v", a)
	}
	if !b.Equal(SetOf(1, 2, 3)) {
		t.Errorf("Add result wrong: %v", b)
	}
}

// Property: set operations agree with a map-based model.
func TestPropSetModel(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for trial := 0; trial < 500; trial++ {
		model := map[Value]bool{}
		var s Set
		for op := 0; op < 20; op++ {
			v := Value(1 + r.Intn(6))
			model[v] = true
			s = s.Add(v)
		}
		if s.Len() != len(model) {
			t.Fatalf("size mismatch: set %d, model %d", s.Len(), len(model))
		}
		for v := range model {
			if !s.Has(v) {
				t.Fatalf("missing %v", v)
			}
		}
		vals := s.Values()
		for i := 1; i < len(vals); i++ {
			if vals[i-1] >= vals[i] {
				t.Fatalf("not sorted: %v", s)
			}
		}
	}
}

func TestForEachCountsAllVectors(t *testing.T) {
	tests := []struct {
		n, m, want int
	}{
		{0, 3, 1}, {1, 3, 3}, {2, 3, 9}, {3, 2, 8}, {4, 3, 81},
	}
	for _, tc := range tests {
		count := 0
		seen := map[string]bool{}
		ForEach(tc.n, tc.m, func(v Vector) bool {
			count++
			seen[v.Key()] = true
			if !v.IsFull() {
				t.Fatalf("ForEach produced non-full vector %v", v)
			}
			return true
		})
		if count != tc.want || len(seen) != tc.want {
			t.Errorf("ForEach(%d,%d): %d vectors (%d distinct), want %d",
				tc.n, tc.m, count, len(seen), tc.want)
		}
	}
}

func TestEnumResumableAndEdgeCases(t *testing.T) {
	// The zero Enum is empty, as documented.
	var zero Enum
	if v, ok := zero.Next(); ok {
		t.Fatalf("zero Enum yielded %v", v)
	}
	// Degenerate domains are empty; n=0 over a non-empty domain yields
	// exactly the one empty vector (m^0 = 1).
	if _, ok := NewEnum(2, 0).Next(); ok {
		t.Fatal("m=0 enumeration yielded a vector")
	}
	if v, ok := NewEnum(0, 3).Next(); !ok || len(v) != 0 {
		t.Fatalf("n=0 first yield = %v, %v; want empty vector, true", v, ok)
	}
	// Suspending and resuming mid-stream matches ForEach, and Reset
	// rewinds to the start.
	var viaForEach []string
	ForEach(3, 2, func(v Vector) bool {
		viaForEach = append(viaForEach, v.Key())
		return true
	})
	e := NewEnum(3, 2)
	var viaEnum []string
	for i := 0; i < 3; i++ { // pull a prefix, then keep going
		v, ok := e.Next()
		if !ok {
			t.Fatal("enumeration ended early")
		}
		viaEnum = append(viaEnum, v.Key())
	}
	for v, ok := e.Next(); ok; v, ok = e.Next() {
		viaEnum = append(viaEnum, v.Key())
	}
	if !reflect.DeepEqual(viaEnum, viaForEach) {
		t.Fatalf("Enum stream %v != ForEach stream %v", viaEnum, viaForEach)
	}
	e.Reset()
	if v, ok := e.Next(); !ok || v.Key() != viaForEach[0] {
		t.Fatalf("after Reset: %v, %v; want %s, true", v, ok, viaForEach[0])
	}
}

func TestForEachEarlyStop(t *testing.T) {
	count := 0
	ForEach(3, 3, func(Vector) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Errorf("early stop after %d, want 5", count)
	}
}

func TestForEachCompletion(t *testing.T) {
	j := OfInts(1, 0, 2, 0)
	count := 0
	ForEachCompletion(j, 3, func(i Vector) bool {
		count++
		if !j.ContainedIn(i) || !i.IsFull() {
			t.Fatalf("bad completion %v of %v", i, j)
		}
		return true
	})
	if count != 9 { // 3^2 holes
		t.Errorf("completions = %d, want 9", count)
	}
	// A full vector has exactly one completion: itself.
	full := OfInts(1, 2)
	count = 0
	ForEachCompletion(full, 5, func(i Vector) bool {
		count++
		if !i.Equal(full) {
			t.Fatalf("completion of full vector = %v", i)
		}
		return true
	})
	if count != 1 {
		t.Errorf("completions of full vector = %d, want 1", count)
	}
}

func TestForEachView(t *testing.T) {
	i := OfInts(1, 2, 3)
	count := 0
	ForEachView(i, 2, func(j Vector) bool {
		count++
		if !j.ContainedIn(i) {
			t.Fatalf("view %v not ≤ %v", j, i)
		}
		if j.BottomCount() > 2 {
			t.Fatalf("view %v has too many ⊥", j)
		}
		return true
	})
	want := 1 + 3 + 3 // C(3,0)+C(3,1)+C(3,2)
	if count != want {
		t.Errorf("views = %d, want %d", count, want)
	}
}

// TestEnumSeekSerializedResume pins the cross-process resume contract:
// for every cut position of every domain — the m=1 and n=0 edge cases
// included — NewEnum + SeekTo(pos) yields exactly the suffix a live
// enumerator that had yielded pos vectors would.
func TestEnumSeekSerializedResume(t *testing.T) {
	domains := []struct{ n, m int }{
		{3, 2}, {2, 3}, {4, 1}, {1, 1}, {0, 3}, {0, 1}, {1, 5},
	}
	for _, d := range domains {
		var full []string
		ForEach(d.n, d.m, func(v Vector) bool {
			full = append(full, v.Key())
			return true
		})
		for pos := 0; pos <= len(full); pos++ {
			// The "dying" process: yield pos vectors, then persist pos.
			live := NewEnum(d.n, d.m)
			for i := 0; i < pos; i++ {
				if _, ok := live.Next(); !ok {
					t.Fatalf("(%d,%d) stream ended at %d < %d", d.n, d.m, i, pos)
				}
			}
			// The "fresh" process: seek to the persisted cursor and drain.
			resumed := NewEnum(d.n, d.m)
			resumed.SeekTo(int64(pos))
			var suffix []string
			for v, ok := resumed.Next(); ok; v, ok = resumed.Next() {
				suffix = append(suffix, v.Key())
			}
			if want := full[pos:]; !reflect.DeepEqual(suffix, append([]string(nil), want...)) {
				t.Fatalf("(%d,%d) SeekTo(%d) suffix = %v, want %v", d.n, d.m, pos, suffix, want)
			}
		}
	}
}

// TestEnumSeekBeyondAndRewind covers the cursor's boundary semantics:
// seeking past the end exhausts the enumeration, negative or zero seeks
// rewind, and empty domains stay empty.
func TestEnumSeekBeyondAndRewind(t *testing.T) {
	e := NewEnum(2, 3) // 9 vectors
	e.SeekTo(9)
	if v, ok := e.Next(); ok {
		t.Fatalf("SeekTo(size) then Next yielded %v", v)
	}
	e.SeekTo(1 << 40)
	if v, ok := e.Next(); ok {
		t.Fatalf("far overshoot then Next yielded %v", v)
	}
	// Rewind after exhaustion.
	e.SeekTo(0)
	if v, ok := e.Next(); !ok || !v.Equal(OfInts(1, 1)) {
		t.Fatalf("SeekTo(0) then Next = %v, %v; want first vector", v, ok)
	}
	e.SeekTo(-5)
	if v, ok := e.Next(); !ok || !v.Equal(OfInts(1, 1)) {
		t.Fatalf("negative seek then Next = %v, %v; want first vector", v, ok)
	}
	// Degenerate domains remain empty wherever the cursor points.
	empty := NewEnum(2, 0)
	empty.SeekTo(3)
	if _, ok := empty.Next(); ok {
		t.Fatal("empty domain yielded after SeekTo")
	}
}
