package condition

import (
	"math/rand"
	"testing"
	"testing/quick"

	"kset/internal/vector"
)

// Property: a random subset of a max_ℓ condition is still (x,ℓ)-legal with
// the restricted recognizer — legality's properties are universally
// quantified over members, so they survive deletion.
func TestQuickSubconditionsStayLegal(t *testing.T) {
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(81))}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(2)
		m := 2 + r.Intn(2)
		x := r.Intn(n - 1)
		l := 1 + r.Intn(2)
		full := MustNewMax(n, m, x, l)
		sub := MustNewExplicit(n, m, l)
		full.ForEachMember(func(i vector.Vector) bool {
			if r.Intn(3) == 0 {
				sub.MustAdd(i.Clone(), i.TopL(l))
			}
			return true
		})
		return Check(sub, x, CheckOptions{MaxSubsetSize: 3}) == nil
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: for any member I of a max_ℓ condition and any view J ≤ I with
// at most x missing entries, the decoded set satisfies Theorem 1's bounds
// and is a subset of max_ℓ(I).
func TestQuickDecodeWithinRecognized(t *testing.T) {
	cfg := &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(82))}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(4)
		m := 2 + r.Intn(3)
		x := r.Intn(n - 1)
		l := 1 + r.Intn(2)
		c := MustNewMax(n, m, x, l)
		// Draw a random member.
		var full vector.Vector
		for tries := 0; tries < 200; tries++ {
			cand := vector.New(n)
			for i := range cand {
				cand[i] = vector.Value(1 + r.Intn(m))
			}
			if c.Contains(cand) {
				full = cand
				break
			}
		}
		if full == nil {
			return true // condition too sparse to sample; vacuous
		}
		j := full.Clone()
		erase := r.Intn(x + 1)
		for i := 0; i < erase; i++ {
			j[r.Intn(n)] = vector.Bottom
		}
		h, ok := DecodeView(c, j)
		if !ok || h.Empty() || h.Len() > l {
			return false
		}
		return h.SubsetOf(c.Recognize(full))
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: the distance property's binding-α check agrees with checking
// every α ∈ [1, x] literally.
func TestQuickDistanceBindingAlpha(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(83))}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(3)
		m := 2 + r.Intn(3)
		x := 1 + r.Intn(n-1)
		l := 1 + r.Intn(2)
		z := 2 + r.Intn(2)
		vs := make([]vector.Vector, z)
		hs := make([]vector.Set, z)
		for i := range vs {
			v := vector.New(n)
			for k := range v {
				v[k] = vector.Value(1 + r.Intn(m))
			}
			vs[i] = v
			hs[i] = v.TopL(l)
		}
		binding := CheckDistanceInstance(vs, hs, x) == nil

		// Literal check of every α.
		literal := true
		dg := vector.GeneralizedDistance(vs...)
		common := hs[0]
		for _, h := range hs[1:] {
			common = common.Intersect(h)
		}
		inter := vector.IntersectInto(nil, vs...)
		for alpha := 1; alpha <= x; alpha++ {
			if dg <= x-alpha+1 && inter.MassOf(common) < alpha {
				literal = false
				break
			}
		}
		return binding == literal
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
