package condition

import (
	"math/rand"
	"testing"

	"kset/internal/vector"
)

func TestExplicitAddValidation(t *testing.T) {
	c := MustNewExplicit(3, 4, 2)
	tests := []struct {
		name    string
		v       vector.Vector
		h       vector.Set
		wantErr bool
	}{
		{"ok", vector.OfInts(1, 2, 3), vector.SetOf(2, 3), false},
		{"duplicate same h", vector.OfInts(1, 2, 3), vector.SetOf(2, 3), false},
		{"duplicate different h", vector.OfInts(1, 2, 3), vector.SetOf(1, 2), true},
		{"wrong size", vector.OfInts(1, 2), vector.SetOf(1, 2), true},
		{"value out of domain", vector.OfInts(1, 2, 9), vector.SetOf(1, 2), true},
		{"bottom entry", vector.OfInts(1, 0, 3), vector.SetOf(1, 3), true},
		{"h not subset", vector.OfInts(1, 1, 2), vector.SetOf(2, 3), true},
		{"h too small", vector.OfInts(1, 2, 3), vector.SetOf(2), true},
		{"h too large", vector.OfInts(1, 1, 1), vector.SetOf(1), false}, // min(2,1)=1
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			err := c.Add(tc.v, tc.h)
			if (err != nil) != tc.wantErr {
				t.Errorf("Add(%v,%v) error = %v, wantErr %v", tc.v, tc.h, err, tc.wantErr)
			}
		})
	}
	if c.Size() != 2 {
		t.Errorf("Size = %d, want 2", c.Size())
	}
	if !c.Contains(vector.OfInts(1, 2, 3)) || c.Contains(vector.OfInts(3, 2, 1)) {
		t.Error("Contains wrong")
	}
	if got := c.Recognize(vector.OfInts(1, 2, 3)); !got.Equal(vector.SetOf(2, 3)) {
		t.Errorf("Recognize = %v", got)
	}
	if got := c.Recognize(vector.OfInts(3, 2, 1)); !got.Empty() {
		t.Errorf("Recognize of non-member = %v, want empty", got)
	}
}

func TestNewMaxValidation(t *testing.T) {
	tests := []struct {
		name       string
		n, m, x, l int
		wantErr    bool
	}{
		{"ok", 4, 3, 2, 1, false},
		{"x zero", 4, 3, 0, 2, false},
		{"n too small", 0, 3, 0, 1, true},
		{"m too small", 4, 0, 0, 1, true},
		{"l too small", 4, 3, 0, 0, true},
		{"x negative", 4, 3, -1, 1, true},
		{"x = n", 4, 3, 4, 1, true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewMax(tc.n, tc.m, tc.x, tc.l)
			if (err != nil) != tc.wantErr {
				t.Errorf("NewMax(%d,%d,%d,%d) error = %v, wantErr %v",
					tc.n, tc.m, tc.x, tc.l, err, tc.wantErr)
			}
		})
	}
}

func TestMaxConditionMembership(t *testing.T) {
	c := MustNewMax(4, 3, 2, 1)
	tests := []struct {
		v    vector.Vector
		want bool
	}{
		{vector.OfInts(3, 3, 3, 1), true},  // max value 3 occupies 3 > 2 entries
		{vector.OfInts(3, 3, 1, 1), false}, // 2 entries, not > 2
		{vector.OfInts(2, 2, 2, 2), true},
		{vector.OfInts(1, 2, 3, 3), false},
		{vector.OfInts(1, 2, 3, 0), false}, // views are never members
		{vector.OfInts(1, 2, 3), false},    // wrong size
	}
	for _, tc := range tests {
		if got := c.Contains(tc.v); got != tc.want {
			t.Errorf("Contains(%v) = %v, want %v", tc.v, got, tc.want)
		}
	}
}

// TestTheorem2MaxConditionIsLegal verifies Theorem 2: the condition
// generated by max_ℓ (vectors satisfying validity + density with h = max_ℓ)
// is (x,ℓ)-legal. Distance instances are checked over every subset of size
// 2 and 3 of the members (exhaustive subsets are exponential; size-3
// already exercises the generalized distance beyond pairs).
func TestTheorem2MaxConditionIsLegal(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive subset check")
	}
	for _, tc := range []struct{ n, m, x, l int }{
		{3, 3, 1, 1}, {4, 2, 1, 1}, {4, 3, 2, 1},
		{4, 3, 1, 2}, {4, 3, 2, 2}, {5, 2, 2, 2}, {4, 4, 3, 2}, {5, 3, 3, 3},
	} {
		c := MustNewMax(tc.n, tc.m, tc.x, tc.l)
		if v := Check(c, tc.x, CheckOptions{MaxSubsetSize: 3}); v != nil {
			t.Errorf("max condition (n=%d,m=%d,x=%d,ℓ=%d) not legal: %v",
				tc.n, tc.m, tc.x, tc.l, v)
		}
	}
}

// TestTheorem2MinCondition mirrors Theorem 2 for min_ℓ, which the paper
// notes satisfies all the same results.
func TestTheorem2MinCondition(t *testing.T) {
	n, m, x, l := 4, 3, 2, 2
	c := MustNewExplicit(n, m, l)
	vector.ForEach(n, m, func(i vector.Vector) bool {
		if i.MassOf(i.BottomL(l)) > x {
			c.MustAdd(i.Clone(), i.BottomL(l))
		}
		return true
	})
	if c.Size() == 0 {
		t.Fatal("empty min condition")
	}
	if v := Check(c, x, CheckOptions{MaxSubsetSize: 3}); v != nil {
		t.Errorf("min condition not legal: %v", v)
	}
}

func TestCheckReportsViolations(t *testing.T) {
	// Density violation: h = {1} but 1 appears only once and x = 1.
	c := MustNewExplicit(3, 3, 1)
	c.MustAdd(vector.OfInts(1, 2, 2), vector.SetOf(2))
	if err := c.SetRecognized(vector.OfInts(1, 2, 2), vector.SetOf(1)); err != nil {
		t.Fatal(err)
	}
	v := Check(c, 1, CheckOptions{})
	if v == nil || v.Property != Density {
		t.Errorf("want density violation, got %v", v)
	}

	// Distance violation: two close vectors decoded to different values.
	c2 := MustNewExplicit(4, 3, 1)
	c2.MustAdd(vector.OfInts(1, 1, 1, 2), vector.SetOf(1))
	c2.MustAdd(vector.OfInts(1, 1, 1, 3), vector.SetOf(3)) // mass(3)=1 ≤ x… use x=0? no: x=0 has no distance clause.
	// With x = 0 density requires mass ≥ 1 (holds), and there is no
	// distance clause, so this is (0,1)-legal.
	if v := Check(c2, 0, CheckOptions{}); v != nil {
		t.Errorf("want legal at x=0, got %v", v)
	}

	// At x = 1: density of the second vector fails first (mass(3) = 1 ≤ 1).
	v = Check(c2, 1, CheckOptions{})
	if v == nil || v.Property != Density {
		t.Errorf("want density violation at x=1, got %v", v)
	}

	// Pure distance violation at x = 1: both dense, d_H = 1 ≤ x−α+1 with
	// α = 1, but ∩h = ∅.
	c3 := MustNewExplicit(5, 3, 1)
	c3.MustAdd(vector.OfInts(1, 1, 2, 2, 2), vector.SetOf(2))
	c3.MustAdd(vector.OfInts(1, 1, 1, 2, 2), vector.SetOf(1))
	v = Check(c3, 1, CheckOptions{})
	if v == nil || v.Property != Distance {
		t.Errorf("want distance violation, got %v", v)
	}
	if v != nil && len(v.Vectors) != 2 {
		t.Errorf("distance witness has %d vectors, want 2", len(v.Vectors))
	}

	// Validity violation caught by Check when a recognized set was edited
	// out from under the condition.
	c4 := MustNewExplicit(3, 3, 1)
	c4.MustAdd(vector.OfInts(2, 2, 2), vector.SetOf(2))
	if err := c4.SetRecognized(vector.OfInts(2, 2, 2), vector.SetOf(1, 2)); err != nil {
		t.Fatal(err)
	}
	v = Check(c4, 0, CheckOptions{})
	if v == nil || v.Property != Validity {
		t.Errorf("want validity violation, got %v", v)
	}
	for _, p := range []Property{Validity, Density, Distance, Property(9)} {
		if p.String() == "" {
			t.Errorf("empty String for %d", int(p))
		}
	}
}

// listCondition is a user-defined Condition — neither Max, Min nor
// Explicit — over a member list that may repeat a vector or hold one
// outside {1..m}^n, with a recognizing function that may break validity.
type listCondition struct {
	n, m, l int
	members []vector.Vector
	h       func(vector.Vector) vector.Set
}

func (c *listCondition) N() int { return c.n }
func (c *listCondition) M() int { return c.m }
func (c *listCondition) L() int { return c.l }

func (c *listCondition) Contains(i vector.Vector) bool {
	for _, j := range c.members {
		if j.Equal(i) {
			return true
		}
	}
	return false
}

func (c *listCondition) Recognize(i vector.Vector) vector.Set { return c.h(i) }

func (c *listCondition) ForEachMember(fn func(vector.Vector) bool) {
	for _, i := range c.members {
		if !fn(i) {
			return
		}
	}
}

// TestCheckForeignCondition drives Check through Enumerate: a member
// outside the domain is a Validity violation witnessed by that member (as
// an owned copy), an invalid recognized set is one witnessed by its
// member, and on in-domain members with duplicates Check agrees with
// referenceCheck on the explicit twin.
func TestCheckForeignCondition(t *testing.T) {
	bad := vector.OfInts(1, 4, 1) // 4 ∉ {1..3}
	c := &listCondition{n: 3, m: 3, l: 1, h: MaxL(1), members: []vector.Vector{
		vector.OfInts(2, 2, 1), vector.OfInts(2, 2, 1), bad, vector.OfInts(3, 3, 3),
	}}
	v := Check(c, 0, CheckOptions{})
	if v == nil || v.Property != Validity || len(v.Vectors) != 1 || !v.Vectors[0].Equal(bad) {
		t.Fatalf("out-of-domain member: got %v, want a validity violation witnessed by %v", v, bad)
	}
	v.Vectors[0][0] = 2
	if !c.members[2].Equal(vector.OfInts(1, 4, 1)) {
		t.Fatal("the witness aliases the condition's member")
	}
	if _, err := Enumerate(c); err == nil {
		t.Fatal("Enumerate accepted an out-of-domain member")
	}

	c.members = c.members[:2] // the duplicated member alone
	c.h = func(vector.Vector) vector.Set { return vector.SetOf(3) }
	v = Check(c, 0, CheckOptions{})
	if v == nil || v.Property != Validity || len(v.Vectors) != 1 || !v.Vectors[0].Equal(c.members[0]) {
		t.Fatalf("invalid h: got %v, want a validity violation witnessed by %v", v, c.members[0])
	}

	r := rand.New(rand.NewSource(12))
	for trial := 0; trial < 100; trial++ {
		n, m, l := 3+r.Intn(2), 2+r.Intn(2), 1+r.Intn(2)
		hs := map[string]vector.Set{}
		c := &listCondition{n: n, m: m, l: l, h: func(i vector.Vector) vector.Set { return hs[i.Key()] }}
		twin := MustNewExplicit(n, m, l)
		for len(c.members) < 2+r.Intn(5) {
			i := randomVector(r, n, m)
			if _, seen := hs[i.Key()]; !seen {
				subs := appendKSubsets(nil, i.Vals(), min(l, i.Vals().Len()))
				h := subs[r.Intn(len(subs))]
				if r.Intn(8) == 0 {
					h = h.Add(vector.Value(m)) // sometimes break validity
				}
				hs[i.Key()] = h
				twin.add(i, h)
			}
			c.members = append(c.members, i, i) // every member twice
		}
		for x := 0; x < n; x++ {
			got, want := Check(c, x, CheckOptions{}), referenceCheck(twin, x)
			if (got == nil) != (want == nil) || (got != nil && got.Property != want.Property) {
				t.Fatalf("n=%d m=%d ℓ=%d x=%d: Check=%v reference=%v", n, m, l, x, got, want)
			}
		}
	}
}

// TestRemarkXLegalityReduction checks the paper's Remark (Section 2.2): at
// ℓ = 1 the framework reduces to x-legality, whose distance property is
// h(I1) ≠ h(I2) ⟹ d_H(I1, I2) > x. We verify both directions on the
// max_1-generated condition: any two members decoded differently are far
// apart, and the checker accepts the condition.
func TestRemarkXLegalityReduction(t *testing.T) {
	n, m, x := 5, 3, 2
	c := MustNewMax(n, m, x, 1)
	var members []vector.Vector
	c.ForEachMember(func(i vector.Vector) bool {
		members = append(members, i.Clone())
		return true
	})
	for _, a := range members {
		for _, b := range members {
			if !a.TopL(1).Equal(b.TopL(1)) && vector.Hamming(a, b) <= x {
				t.Fatalf("x-legality distance broken: %v vs %v", a, b)
			}
		}
	}
}

func TestPredicateFastPathMatchesEnumeration(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 400; trial++ {
		n := 3 + r.Intn(3)
		m := 2 + r.Intn(3)
		l := 1 + r.Intn(2)
		x := r.Intn(n - 1)
		c := MustNewMax(n, m, x, l)
		j := vector.New(n)
		for i := range j {
			if r.Intn(3) == 0 {
				j[i] = vector.Bottom
			} else {
				j[i] = vector.Value(1 + r.Intn(m))
			}
		}
		fast := c.P(j)
		slow := false
		vector.ForEachCompletion(j, m, func(i vector.Vector) bool {
			if c.Contains(i) {
				slow = true
				return false
			}
			return true
		})
		if fast != slow {
			t.Fatalf("P(%v) fast=%v enum=%v (n=%d m=%d x=%d ℓ=%d)", j, fast, slow, n, m, x, l)
		}
	}
}

func TestPredicateGenericPath(t *testing.T) {
	// Explicit condition has no analytic P; Predicate must enumerate.
	c := MustNewExplicit(3, 3, 1)
	c.MustAdd(vector.OfInts(1, 1, 2), vector.SetOf(1))
	if !Predicate(c, vector.OfInts(1, 0, 2)) {
		t.Error("P should hold for a view of a member")
	}
	if Predicate(c, vector.OfInts(2, 0, 2)) {
		t.Error("P should fail for a view of no member")
	}
	if !Predicate(c, vector.OfInts(0, 0, 0)) {
		t.Error("P should hold for the all-⊥ view of a nonempty condition")
	}
}

func TestDecodeViewDefinition4(t *testing.T) {
	// Table-1 style condition: every vector decoded to a single value.
	c := MustNewExplicit(4, 4, 1)
	c.MustAdd(vector.OfInts(1, 1, 3, 4), vector.SetOf(1)) // I1, h=a
	c.MustAdd(vector.OfInts(2, 2, 3, 4), vector.SetOf(2)) // I2, h=b
	c.MustAdd(vector.OfInts(1, 2, 3, 3), vector.SetOf(3)) // I3, h=c
	c.MustAdd(vector.OfInts(1, 2, 4, 4), vector.SetOf(4)) // I4, h=d

	tests := []struct {
		name   string
		j      vector.Vector
		want   vector.Set
		wantOK bool
	}{
		{"full member", vector.OfInts(1, 1, 3, 4), vector.SetOf(1), true},
		{"view of I1 only", vector.OfInts(1, 1, 0, 4), vector.SetOf(1), true},
		{"view of I3 and I4", vector.OfInts(1, 2, 0, 0), vector.Set{}, true}, // ∩{c}{d} = ∅… see below
		{"view of nothing", vector.OfInts(4, 4, 0, 0), vector.Set{}, false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got, ok := DecodeView(c, tc.j)
			if ok != tc.wantOK {
				t.Fatalf("ok = %v, want %v", ok, tc.wantOK)
			}
			if ok && !got.Equal(tc.want) {
				t.Errorf("h(%v) = %v, want %v", tc.j, got, tc.want)
			}
		})
	}
}

// TestTheorem1DecodeBounds verifies Theorem 1 on the max_ℓ condition: for
// every member I and every view J ≤ I with #_⊥(J) ≤ x, the extended
// decoding satisfies 1 ≤ |h_ℓ(J)| ≤ ℓ.
func TestTheorem1DecodeBounds(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive view enumeration")
	}
	for _, tc := range []struct{ n, m, x, l int }{
		{4, 3, 1, 1}, {4, 3, 2, 2}, {5, 2, 2, 1}, {4, 4, 2, 2},
	} {
		c := MustNewMax(tc.n, tc.m, tc.x, tc.l)
		c.ForEachMember(func(i vector.Vector) bool {
			full := i.Clone()
			vector.ForEachView(full, tc.x, func(j vector.Vector) bool {
				h, ok := DecodeView(c, j)
				if !ok {
					t.Fatalf("view %v of member %v decodes to nothing", j, full)
				}
				if h.Len() < 1 || h.Len() > tc.l {
					t.Fatalf("|h(%v)| = %d ∉ [1,%d] (member %v, params %+v)",
						j, h.Len(), tc.l, full, tc)
				}
				return true
			})
			return true
		})
	}
}

// TestDecodeMonotone verifies the containment step the agreement proof's
// Case 1 relies on: J ≤ J' ⟹ h_ℓ(J) ⊆ h_ℓ(J').
func TestDecodeMonotone(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	c := MustNewMax(5, 3, 2, 2)
	for trial := 0; trial < 300; trial++ {
		var full vector.Vector
		// Draw a random member.
		for {
			cand := vector.New(5)
			for i := range cand {
				cand[i] = vector.Value(1 + r.Intn(3))
			}
			if c.Contains(cand) {
				full = cand
				break
			}
		}
		// Two nested views: erase e' ⊇ e positions.
		jBig := full.Clone()
		jSmall := full.Clone()
		for i := 0; i < 2; i++ {
			p := r.Intn(5)
			jBig[p] = vector.Bottom
			jSmall[p] = vector.Bottom
		}
		jSmall[r.Intn(5)] = vector.Bottom
		if !jSmall.ContainedIn(jBig) {
			continue // erased position already ⊥ in a conflicting spot
		}
		hSmall, okS := DecodeView(c, jSmall)
		hBig, okB := DecodeView(c, jBig)
		if !okS || !okB {
			t.Fatalf("views of a member must decode: %v %v", jSmall, jBig)
		}
		if !hSmall.SubsetOf(hBig) {
			t.Fatalf("monotonicity broken: h(%v)=%v ⊄ h(%v)=%v", jSmall, hSmall, jBig, hBig)
		}
	}
}

func TestExistsRecognizerFindsAndRejects(t *testing.T) {
	// The max_1 condition restricted to a few members: a recognizer exists.
	c := MustNewExplicit(4, 3, 1)
	c.MustAdd(vector.OfInts(3, 3, 3, 1), vector.SetOf(3))
	c.MustAdd(vector.OfInts(3, 3, 3, 2), vector.SetOf(3))
	c.MustAdd(vector.OfInts(2, 2, 2, 2), vector.SetOf(2))
	assign, ok := ExistsRecognizer(c, 2)
	if !ok {
		t.Fatal("recognizer must exist")
	}
	for k, m := range c.Members() {
		if err := c.SetRecognized(m, assign[k]); err != nil {
			t.Fatal(err)
		}
	}
	if v := Check(c, 2, CheckOptions{}); v != nil {
		t.Errorf("witness assignment does not check out: %v", v)
	}

	// Two adjacent vectors with disjoint dense values: no (2,1) recognizer.
	c2 := MustNewExplicit(4, 3, 1)
	c2.MustAdd(vector.OfInts(1, 1, 1, 2), vector.SetOf(1))
	c2.MustAdd(vector.OfInts(1, 1, 1, 3), vector.SetOf(1))
	// h must pick a value with mass > 2: only 1 qualifies in both — fine.
	if _, ok := ExistsRecognizer(c2, 2); !ok {
		t.Error("recognizer must exist (decode both to 1)")
	}
	c3 := MustNewExplicit(4, 3, 1)
	c3.MustAdd(vector.OfInts(1, 1, 1, 1), vector.SetOf(1))
	c3.MustAdd(vector.OfInts(2, 2, 2, 2), vector.SetOf(2))
	// d_H = 4 > x = 3? No: x=3 ⇒ need d_H > 3 for different values: holds.
	if _, ok := ExistsRecognizer(c3, 3); !ok {
		t.Error("recognizer must exist at x=3 (d_H = 4 > 3)")
	}
	// At x = 4 density is impossible (mass 4 ≤ 4).
	if _, ok := ExistsRecognizer(c3, 4); ok {
		t.Error("no recognizer may exist at x=4")
	}
}

func TestKSubsets(t *testing.T) {
	s := vector.SetOf(1, 2, 3, 4)
	if got := len(appendKSubsets(nil, s, 2)); got != 6 {
		t.Errorf("C(4,2) subsets = %d, want 6", got)
	}
	if got := len(appendKSubsets(nil, s, 0)); got != 1 {
		t.Errorf("C(4,0) subsets = %d, want 1", got)
	}
	if got := len(appendKSubsets(nil, s, 4)); got != 1 {
		t.Errorf("C(4,4) subsets = %d, want 1", got)
	}
	// Every emitted subset has exactly k elements drawn from s, with no
	// duplicates.
	subs := appendKSubsets(nil, s, 2)
	seen := map[vector.Set]bool{}
	for _, sub := range subs {
		if sub.Len() != 2 || !sub.SubsetOf(s) || seen[sub] {
			t.Errorf("bad subset %v", sub)
		}
		seen[sub] = true
	}
}
