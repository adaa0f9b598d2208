package condition

import (
	"fmt"
	"math/rand"
	"testing"

	"kset/internal/vector"
)

// randomVector draws a vector of {1..m}^n.
func randomVector(r *rand.Rand, n, m int) vector.Vector {
	i := make(vector.Vector, n)
	for k := range i {
		i[k] = vector.Value(1 + r.Intn(m))
	}
	return i
}

// TestCompileKeepsRecognizedSets is the regression test for a snapshot
// re-validating what SetRecognized deliberately accepts: a condition whose
// recognized set was edited into a validity violation must clone and
// enumerate without panicking, and Check must report the same violation
// on every copy.
func TestCompileKeepsRecognizedSets(t *testing.T) {
	e := MustNewExplicit(3, 3, 1)
	i := vector.OfInts(2, 2, 1)
	e.MustAdd(i, vector.SetOf(2))
	if err := e.SetRecognized(i, vector.SetOf(3)); err != nil {
		t.Fatal(err)
	}
	enumerated, err := Enumerate(e)
	if err != nil {
		t.Fatal(err)
	}
	for k, c := range []*Explicit{e, e.Clone(), enumerated} {
		if h, ok := c.Lookup(i); !ok || !h.Equal(vector.SetOf(3)) {
			t.Fatalf("copy %d: Lookup = %v, %v; want {3}, true", k, h, ok)
		}
		if v := Check(c, 0, CheckOptions{}); v == nil || v.Property != Validity {
			t.Errorf("copy %d: want validity violation, got %v", k, v)
		}
	}
}

// TestIndexAgreement drives the shared index through every vector shape
// that used to take a different key path — n up to and past the old
// 10-entry packing limit, values up to 64 — and at least 10k members, so
// the table doubles a dozen times. Explicit, its Clone and a reference
// map must agree on IndexOf/Contains/Lookup for every member and for
// near-miss non-members (including, from n = 10 up, a twin with the same
// 64-bit hash, which only the entry-by-entry verification tells apart);
// duplicate Add and SetRecognized keep their contracts; and no probe
// allocates.
func TestIndexAgreement(t *testing.T) {
	const m, l, count = 64, 2, 10000
	for _, n := range []int{3, 10, 11, 16, 48} {
		r := rand.New(rand.NewSource(int64(n)))
		e := MustNewExplicit(n, m, l)
		ref := make(map[string]int, count)
		for e.Size() < count {
			i := randomVector(r, n, m)
			if n >= 10 {
				i[0], i[9] = 1, 1 // room for the colliding twin below
			}
			_, dup := ref[i.Key()]
			if err := e.AddAuto(i, MaxL(l)); err != nil {
				t.Fatal(err)
			}
			if !dup {
				ref[i.Key()] = e.Size() - 1
			}
			// Across growth: the newest member and a random older one.
			for _, k := range []int{e.Size() - 1, r.Intn(e.Size())} {
				if got, ok := e.IndexOf(e.MemberAt(k)); !ok || got != k {
					t.Fatalf("n=%d size=%d: IndexOf(member %d) = %d, %v", n, e.Size(), k, got, ok)
				}
			}
		}
		if len(ref) != count {
			t.Fatalf("n=%d: %d distinct vectors for %d members", n, len(ref), count)
		}
		c := e.Clone()

		check := func(i vector.Vector) {
			t.Helper()
			wantK, want := ref[i.Key()]
			for _, p := range []*Explicit{e, c} {
				k, ok := p.IndexOf(i)
				h, okL := p.Lookup(i)
				if ok != want || okL != want || p.Contains(i) != want || (want && k != wantK) {
					t.Fatalf("n=%d %T: probe of %v = (%d, %v), want (%d, %v)", n, p, i, k, ok, wantK, want)
				}
				if want && !h.Equal(i.TopL(l)) {
					t.Fatalf("n=%d %T: Lookup(%v) = %v", n, p, i, h)
				}
			}
		}
		for k := 0; k < count; k++ {
			i := e.MemberAt(k).Clone()
			check(i)
			j := r.Intn(n)
			i[j] = i[j]%m + 1 // one entry off
			check(i)
			i[j], i[(j+1)%n] = i[(j+1)%n], i[j] // and two swapped
			check(i)
		}
		if n >= 10 {
			// Entries 0 and 9 sit one bit apart in the rotate-xor hash, so
			// flipping twice the bits in the first cancels the second.
			i := e.MemberAt(0)
			twin := i.Clone()
			twin[0], twin[9] = 7, 2
			if hash(i) != hash(twin) {
				t.Fatalf("n=%d: twin does not collide; the hash changed, rebuild this case", n)
			}
			check(twin)
		}
		check(make(vector.Vector, n)) // all ⊥

		// Duplicate Add: a no-op with the same h, an error with another.
		first := e.MemberAt(0).Clone()
		if err := e.Add(first, first.TopL(l)); err != nil || e.Size() != count {
			t.Fatalf("n=%d: same-h re-add: err=%v size=%d", n, err, e.Size())
		}
		if err := e.Add(first, first.BottomL(l)); err == nil && !first.TopL(l).Equal(first.BottomL(l)) {
			t.Fatalf("n=%d: re-add with a different h accepted", n)
		}
		// SetRecognized reaches the member, the snapshot keeps the old
		// set, a fresh Clone carries the new one; non-members err.
		other := vector.Set{} // never a max_ℓ set
		if err := e.SetRecognized(first, other); err != nil {
			t.Fatal(err)
		}
		if h, _ := e.Lookup(first); !h.Equal(other) {
			t.Fatalf("n=%d: SetRecognized not visible: %v", n, h)
		}
		if h, _ := c.Lookup(first); !h.Equal(first.TopL(l)) {
			t.Fatalf("n=%d: snapshot changed under SetRecognized: %v", n, h)
		}
		if h, _ := e.Clone().Lookup(first); !h.Equal(other) {
			t.Fatalf("n=%d: re-clone lost SetRecognized: %v", n, h)
		}
		if err := e.SetRecognized(make(vector.Vector, n), other); err == nil {
			t.Fatalf("n=%d: SetRecognized accepted a non-member", n)
		}

		member, miss := e.MemberAt(count/2).Clone(), e.MemberAt(count/2).Clone()
		miss[n-1] = miss[n-1]%m + 1
		_, missIn := ref[miss.Key()]
		for _, p := range []*Explicit{e, c} {
			if got := testing.AllocsPerRun(100, func() {
				if _, ok := p.Lookup(member); !ok || p.Contains(miss) != missIn {
					t.Fatal("probe broken")
				}
			}); got != 0 {
				t.Errorf("n=%d %T: probe allocates %.1f/op, want 0", n, p, got)
			}
		}
	}
}

// BenchmarkConditionIndex prices one membership probe of a 4096-member
// explicit condition — hits and near misses alternating — at a vector size
// inside the old packed-key range and one past it. scripts/benchgate.sh
// holds both arms at 0 allocs/op.
func BenchmarkConditionIndex(b *testing.B) {
	for _, n := range []int{8, 16} {
		r := rand.New(rand.NewSource(13))
		e := MustNewExplicit(n, 4, 1)
		for e.Size() < 4096 {
			if err := e.AddAuto(randomVector(r, n, 4), MaxL(1)); err != nil {
				b.Fatal(err)
			}
		}
		probes := e.Members()
		for k := 1; k < len(probes); k += 2 {
			probes[k][k%n] = probes[k][k%n]%4 + 1
		}
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			b.ReportAllocs()
			hits := 0
			for i := 0; i < b.N; i++ {
				if e.Contains(probes[i%len(probes)]) {
					hits++
				}
			}
			if hits == 0 && b.N > 1 {
				b.Fatal("no probe hit")
			}
		})
	}
}
