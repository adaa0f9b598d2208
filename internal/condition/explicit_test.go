package condition

import (
	"fmt"
	"math/rand"
	"testing"

	"kset/internal/vector"
)

// SetRecognized replaces the recognized set of an existing member. It
// accepts any set, so the tests can build the validity violations Check
// reports.
func (c *Explicit) SetRecognized(i vector.Vector, h vector.Set) error {
	k, ok := c.IndexOf(i)
	if !ok {
		return fmt.Errorf("condition: %v is not a member", i)
	}
	c.hs[k] = h
	return nil
}

// randomExplicit builds an explicit condition from count distinct random
// vectors of {1..m}^n recognized by max_ℓ.
func randomExplicit(t *testing.T, r *rand.Rand, n, m, l, count int) *Explicit {
	t.Helper()
	c := MustNewExplicit(n, m, l)
	for c.Size() < count {
		i := make(vector.Vector, n)
		for k := range i {
			i[k] = vector.Value(1 + r.Intn(m))
		}
		if err := c.AddAuto(i, MaxL(l)); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// TestCompiledMatchesExplicit pins Explicit.Clone, the snapshot kset.New
// compiles a System's condition into, as independent: across randomized (n, m, ℓ) grids — including n > 10 and
// value-64 shapes — Contains, Recognize, Lookup, the tables and member
// enumeration agree between a condition and its clone, and growing or
// relabelling either one afterwards leaves the other as it was.
func TestCompiledMatchesExplicit(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, tc := range []struct{ n, m, l, count int }{
		{3, 2, 1, 4},
		{4, 3, 1, 20},
		{4, 3, 2, 35},
		{5, 4, 2, 60},
		{6, 3, 3, 100},
		{12, 5, 2, 40}, // n > 10: the hash wraps past 64 bits
		{4, 64, 1, 30}, // value 64: the widest entry the hash must hold
	} {
		e := randomExplicit(t, r, tc.n, tc.m, tc.l, tc.count)
		c := e.Clone()
		if c.N() != e.N() || c.M() != e.M() || c.L() != e.L() || c.Size() != e.Size() {
			t.Fatalf("(%d,%d,%d): dims diverge", tc.n, tc.m, tc.l)
		}
		// Every member, positionally and by probe.
		for k := 0; k < e.Size(); k++ {
			i := e.MemberAt(k)
			if !c.MemberAt(k).Equal(i) {
				t.Fatalf("member %d diverges", k)
			}
			if !c.RecognizedAt(k).Equal(e.RecognizedAt(k)) {
				t.Fatalf("recognized %d diverges", k)
			}
			if !c.Contains(i) || !c.Recognize(i).Equal(e.Recognize(i)) {
				t.Fatalf("probe of member %d diverges", k)
			}
			if h, ok := c.Lookup(i); !ok || !h.Equal(e.Recognize(i)) {
				t.Fatalf("lookup of member %d diverges", k)
			}
			if !c.ValsAt(k).Equal(i.Vals()) || c.Mass(k, i.Vals()) != tc.n {
				t.Fatalf("tables of member %d diverge", k)
			}
		}
		// Random probes, members and non-members alike.
		for trial := 0; trial < 2000; trial++ {
			i := randomVector(r, tc.n, tc.m)
			if c.Contains(i) != e.Contains(i) {
				t.Fatalf("(%d,%d,%d): Contains(%v) diverges", tc.n, tc.m, tc.l, i)
			}
			if !c.Recognize(i).Equal(e.Recognize(i)) {
				t.Fatalf("(%d,%d,%d): Recognize(%v) diverges", tc.n, tc.m, tc.l, i)
			}
		}
		// Wrong-length and short probes must miss, not panic.
		if c.Contains(make(vector.Vector, tc.n+1)) || c.Contains(vector.Vector{}) {
			t.Fatal("wrong-length vector contained")
		}
		// Enumeration in identical order, both styles.
		var got []vector.Vector
		c.ForEachMember(func(i vector.Vector) bool {
			got = append(got, i.Clone())
			return true
		})
		k := 0
		e.ForEachMember(func(i vector.Vector) bool {
			if !got[k].Equal(i) {
				t.Fatalf("enumeration order diverges at %d", k)
			}
			k++
			return true
		})
		se, sc := NewStream(e), NewStream(c)
		for {
			ve, oke := se.Next()
			vc, okc := sc.Next()
			if oke != okc || (oke && !ve.Equal(vc)) {
				t.Fatal("streams diverge")
			}
			if !oke {
				break
			}
		}

		// Independence: grow and relabel the original, then the clone.
		size, first := e.Size(), e.MemberAt(0).Clone()
		h0 := e.RecognizedAt(0)
		for e.Size() == size {
			if err := e.AddAuto(randomVector(r, tc.n, tc.m), MaxL(tc.l)); err != nil {
				t.Fatal(err)
			}
		}
		added := e.MemberAt(size).Clone()
		if err := e.SetRecognized(first, vector.Set{}); err != nil {
			t.Fatal(err)
		}
		if c.Size() != size || c.Contains(added) || !c.Recognize(first).Equal(h0) {
			t.Fatalf("(%d,%d,%d): the clone saw the original change", tc.n, tc.m, tc.l)
		}
		if err := c.SetRecognized(first, h0.Add(64)); err != nil {
			t.Fatal(err)
		}
		if !e.Recognize(first).Empty() || !e.Contains(added) {
			t.Fatalf("(%d,%d,%d): the original saw the clone change", tc.n, tc.m, tc.l)
		}
	}
}

// TestCompiledTables pins the per-member value-set and mass tables, which
// Explicit compiles member by member as it grows, against direct vector
// scans.
func TestCompiledTables(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	c := randomExplicit(t, r, 6, 4, 2, 80)
	for k := 0; k < c.Size(); k++ {
		i := c.MemberAt(k)
		if !c.ValsAt(k).Equal(i.Vals()) {
			t.Fatalf("ValsAt(%d) = %v, want %v", k, c.ValsAt(k), i.Vals())
		}
		for trial := 0; trial < 20; trial++ {
			var s vector.Set
			for b := 0; b < 3; b++ {
				s = s.Add(vector.Value(1 + r.Intn(4)))
			}
			if got, want := c.Mass(k, s), i.MassOf(s); got != want {
				t.Fatalf("Mass(%d, %v) = %d, want %d", k, s, got, want)
			}
		}
	}
}

// TestEnumerateMaxMin pins Enumerate on the analytic max/min conditions
// over the full vector domain: the same members with the same recognized
// sets, and for max_ℓ the lexicographic member order of a direct
// {1..m}^n walk.
func TestEnumerateMaxMin(t *testing.T) {
	for _, tc := range []struct{ n, m, x, l int }{
		{4, 3, 1, 1}, {4, 3, 2, 2}, {5, 2, 2, 1}, {3, 4, 1, 2},
	} {
		maxRef := MustNewMax(tc.n, tc.m, tc.x, tc.l)
		minRef := MustNewMin(tc.n, tc.m, tc.x, tc.l)
		emax, err := Enumerate(maxRef)
		if err != nil {
			t.Fatal(err)
		}
		emin, err := Enumerate(minRef)
		if err != nil {
			t.Fatal(err)
		}
		count := 0
		vector.ForEach(tc.n, tc.m, func(i vector.Vector) bool {
			if emax.Contains(i) != maxRef.Contains(i) || emin.Contains(i) != minRef.Contains(i) {
				t.Fatalf("%+v: membership diverges at %v", tc, i)
			}
			if emax.Contains(i) {
				if !emax.MemberAt(count).Equal(i) {
					t.Fatalf("%+v: member %d is %v, want %v", tc, count, emax.MemberAt(count), i)
				}
				if !emax.RecognizedAt(count).Equal(i.TopL(tc.l)) {
					t.Fatalf("%+v: recognized diverges at %v", tc, i)
				}
				count++
			}
			if emin.Contains(i) && !emin.Recognize(i).Equal(minRef.Recognize(i)) {
				t.Fatalf("%+v: min recognized diverges at %v", tc, i)
			}
			return true
		})
		if count != emax.Size() {
			t.Fatalf("%+v: size %d, enumerated %d", tc, emax.Size(), count)
		}
		if emax.N() != tc.n || emax.M() != tc.m || emax.L() != tc.l {
			t.Fatalf("%+v: dims (%d,%d,%d)", tc, emax.N(), emax.M(), emax.L())
		}
	}
}

// TestExplicitAddContract pins Explicit.Add's error behavior — the contract
// every hand-built condition is built through — and that Clone carries
// the accepted members over.
func TestExplicitAddContract(t *testing.T) {
	b := MustNewExplicit(3, 3, 1)
	i := vector.OfInts(2, 2, 1)
	if err := b.Add(i, vector.SetOf(2)); err != nil {
		t.Fatal(err)
	}
	if err := b.Add(i, vector.SetOf(2)); err != nil || b.Size() != 1 {
		t.Errorf("same-h re-add: err=%v size=%d", err, b.Size())
	}
	if err := b.Add(i, vector.SetOf(1)); err == nil {
		t.Error("want error re-adding with different h")
	}
	if err := b.Add(vector.OfInts(1, 2), vector.SetOf(1)); err == nil {
		t.Error("want error for wrong size")
	}
	if err := b.Add(vector.OfInts(1, 2, 9), vector.SetOf(9)); err == nil {
		t.Error("want error for out-of-domain value")
	}
	if err := b.Add(vector.OfInts(1, 2, 3), vector.SetOf(1, 2)); err == nil {
		t.Error("want error for validity-violating h")
	}
	c := b.Clone()
	if c.Size() != 1 || !c.Contains(i) {
		t.Errorf("clone size=%d", c.Size())
	}
	if _, err := NewExplicit(2, 200, 1); err == nil {
		t.Error("want domain-cap error")
	}
}

// TestMembersAreCopies pins the Members() leak fix: mutating the returned
// vectors must not corrupt condition state.
func TestMembersAreCopies(t *testing.T) {
	e := MustNewExplicit(3, 3, 1)
	e.MustAdd(vector.OfInts(2, 2, 1), vector.SetOf(2))
	ms := e.Members()
	orig := ms[0].Clone()
	ms[0][0] = 3 // a caller scribbling on the returned slice
	if !e.Contains(orig) {
		t.Error("mutation of Members() result corrupted the condition")
	}
	if e.Contains(ms[0]) {
		t.Error("mutated copy unexpectedly a member")
	}
	if !e.MemberAt(0).Equal(orig) {
		t.Error("stored member changed")
	}
}

// TestCheckerMatchesReference compares the pruned incremental subset walk
// of Checker.Check against a direct Definition-2 reference built on the
// exported CheckDistanceInstance, across random conditions (legal and
// illegal alike, with random recognizers to produce violations).
func TestCheckerMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	ck := NewChecker()
	for trial := 0; trial < 150; trial++ {
		n := 3 + r.Intn(3)
		m := 2 + r.Intn(3)
		l := 1 + r.Intn(2)
		e := MustNewExplicit(n, m, l)
		for e.Size() < 2+r.Intn(6) {
			i := make(vector.Vector, n)
			for k := range i {
				i[k] = vector.Value(1 + r.Intn(m))
			}
			// Random (sometimes invalid) recognizers: pick a random subset
			// of val(I) of the valid size to keep validity holding, so the
			// distance/density clauses carry the divergence risk.
			subs := appendKSubsets(nil, i.Vals(), min(l, i.Vals().Len()))
			// A redrawn duplicate vector may carry a different random h;
			// that Add error just means "retry with a fresh vector".
			_ = e.Add(i, subs[r.Intn(len(subs))])
		}
		for x := 0; x <= n-1; x++ {
			got := ck.Check(e, x, CheckOptions{})
			want := referenceCheck(e, x)
			if (got == nil) != (want == nil) {
				t.Fatalf("n=%d m=%d ℓ=%d x=%d: checker=%v reference=%v", n, m, l, x, got, want)
			}
			if got != nil && want != nil && got.Property != want.Property {
				// Both witness a violation; the clause may differ only when
				// the walk orders differ, but validity/density precede
				// distance identically in both.
				t.Fatalf("n=%d m=%d ℓ=%d x=%d: property %v vs %v", n, m, l, x, got.Property, want.Property)
			}
		}
	}
}

// referenceCheck is a direct, allocation-heavy transcription of
// Definition 2 used as the oracle for TestCheckerMatchesReference.
func referenceCheck(c *Explicit, x int) *Violation {
	members := c.Members()
	l := c.L()
	for _, i := range members {
		h := c.Recognize(i)
		want := min(l, i.Vals().Len())
		if h.Len() != want || !h.SubsetOf(i.Vals()) {
			return &Violation{Property: Validity}
		}
		if i.MassOf(h) <= x {
			return &Violation{Property: Density}
		}
	}
	size := len(members)
	var idx []int
	var rec func(start int) *Violation
	rec = func(start int) *Violation {
		if len(idx) >= 2 {
			sub := make([]vector.Vector, len(idx))
			subH := make([]vector.Set, len(idx))
			for k, j := range idx {
				sub[k] = members[j]
				subH[k] = c.Recognize(members[j])
			}
			if v := CheckDistanceInstance(sub, subH, x); v != nil {
				return v
			}
		}
		if len(idx) == size {
			return nil
		}
		for j := start; j < size; j++ {
			idx = append(idx, j)
			if v := rec(j + 1); v != nil {
				return v
			}
			idx = idx[:len(idx)-1]
		}
		return nil
	}
	return rec(0)
}

// TestExistsRecognizerWitnessIsLegal runs the recognizer search on a
// Checker reused across conditions and checks that every witness it
// returns is a legal assignment.
func TestExistsRecognizerWitnessIsLegal(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	ck := NewChecker()
	for trial := 0; trial < 60; trial++ {
		n := 3 + r.Intn(2)
		m := 2 + r.Intn(3)
		l := 1 + r.Intn(2)
		e := randomExplicit(t, r, n, m, l, 2+r.Intn(4))
		for x := 0; x < n; x++ {
			w, ok := ck.ExistsRecognizer(e, x)
			if !ok {
				continue
			}
			for k := range w {
				if err := e.SetRecognized(e.MemberAt(k), w[k]); err != nil {
					t.Fatal(err)
				}
			}
			if v := Check(e, x, CheckOptions{}); v != nil {
				t.Fatalf("n=%d m=%d ℓ=%d: witness not legal at x=%d: %v", n, m, l, x, v)
			}
			// Restore max_ℓ for the next x.
			for k := 0; k < e.Size(); k++ {
				i := e.MemberAt(k)
				if err := e.SetRecognized(i, i.TopL(l)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// TestMassOutOfDomain pins that Mass ignores probe values beyond the
// condition's domain instead of panicking (a Set may hold values up to 64
// regardless of m).
func TestMassOutOfDomain(t *testing.T) {
	c := MustNewExplicit(3, 3, 1)
	c.MustAdd(vector.OfInts(2, 2, 1), vector.SetOf(2))
	if got := c.Mass(0, vector.SetOf(2, 64)); got != 2 {
		t.Errorf("Mass with out-of-domain value = %d, want 2", got)
	}
	if got := c.Mass(0, vector.SetOf(64)); got != 0 {
		t.Errorf("Mass of out-of-domain set = %d, want 0", got)
	}
}

// TestViolationWitnessIsOwned pins that a returned Violation carries
// caller-owned vector copies: scribbling on the witness must not corrupt
// the condition it came from.
func TestViolationWitnessIsOwned(t *testing.T) {
	e := MustNewExplicit(3, 3, 1)
	e.MustAdd(vector.OfInts(1, 2, 3), vector.SetOf(3)) // density fails for x ≥ 1
	e.MustAdd(vector.OfInts(1, 2, 2), vector.SetOf(2))
	v := Check(e, 1, CheckOptions{})
	if v == nil || len(v.Vectors) == 0 {
		t.Fatal("want a violation with witnesses")
	}
	orig := v.Vectors[0].Clone()
	v.Vectors[0][0] = 3
	if !e.Contains(orig) {
		t.Error("mutating the violation witness corrupted the condition")
	}
}

// TestExplicitLookupAllocFree is the allocation-budget gate of the
// enumerated condition: membership probes, the mass table and whole
// legality checks on an explicit condition allocate nothing.
func TestExplicitLookupAllocFree(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	c := randomExplicit(t, r, 6, 4, 2, 120)
	member := c.MemberAt(7).Clone()
	outside := vector.OfInts(1, 1, 1, 1, 1, 2)
	for outside != nil && c.Contains(outside) {
		outside[5]++
	}
	if got := testing.AllocsPerRun(200, func() {
		if !c.Contains(member) || c.Contains(outside) {
			t.Fatal("membership broken")
		}
		if c.Recognize(member).Empty() {
			t.Fatal("recognize broken")
		}
		if _, ok := c.Lookup(member); !ok {
			t.Fatal("lookup broken")
		}
		c.ForEachMember(func(i vector.Vector) bool { return true })
		if c.Mass(7, c.RecognizedAt(7)) <= 0 {
			t.Fatal("tables broken")
		}
	}); got != 0 {
		t.Errorf("explicit probes allocate %.1f/op, want 0", got)
	}

	ck := NewChecker()
	ck.Check(c, 1, CheckOptions{MaxSubsetSize: 3}) // warm the scratch
	if got := testing.AllocsPerRun(50, func() {
		ck.Check(c, 1, CheckOptions{MaxSubsetSize: 3})
	}); got != 0 {
		t.Errorf("warm Checker.Check allocates %.1f/op, want 0", got)
	}
}
