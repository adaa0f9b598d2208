package count

import (
	"math/big"
	"sync"
	"testing"
)

// refNB recomputes NB(x,ℓ) straight from the Appendix-A organization with
// plain big.Int arithmetic and no memo tables — the independent oracle for
// the memoized implementation.
func refNB(n, m, x, l int) *big.Int {
	comb := func(a, b int) *big.Int {
		if b < 0 || b > a {
			return big.NewInt(0)
		}
		return new(big.Int).Binomial(int64(a), int64(b))
	}
	p := func(b, e int) *big.Int {
		return new(big.Int).Exp(big.NewInt(int64(b)), big.NewInt(int64(e)), nil)
	}
	surj := func(s, j int) *big.Int {
		if j < 0 || s < j {
			return big.NewInt(0)
		}
		if j == 0 {
			if s == 0 {
				return big.NewInt(1)
			}
			return big.NewInt(0)
		}
		total := new(big.Int)
		for i := 0; i <= j; i++ {
			term := new(big.Int).Mul(p(j-i, s), comb(j, i))
			if i%2 == 0 {
				total.Add(total, term)
			} else {
				total.Sub(total, term)
			}
		}
		return total
	}
	a := new(big.Int)
	for j := 1; j < l; j++ {
		a.Add(a, new(big.Int).Mul(comb(m, j), surj(n, j)))
	}
	b := new(big.Int)
	sMin := max(x+1, l)
	for w := 1; w <= m; w++ {
		upper := comb(m-w, l-1)
		if upper.Sign() == 0 {
			continue
		}
		inner := new(big.Int)
		for s := sMin; s <= n; s++ {
			term := new(big.Int).Mul(comb(n, s), surj(s, l))
			inner.Add(inner, term.Mul(term, p(w-1, n-s)))
		}
		b.Add(b, inner.Mul(inner, upper))
	}
	return a.Add(a, b)
}

// TestMemoConcurrentNB hammers NB from many goroutines over a shared memo
// table; run under -race this pins the guard on the package-level
// binomial, surjection and power tables, and every result must agree with
// the unmemoized reference computation — a poisoned memo entry fails the
// comparison.
func TestMemoConcurrentNB(t *testing.T) {
	type q struct{ n, m, x, l int }
	cases := []q{
		{12, 5, 3, 1}, {12, 5, 3, 2}, {12, 5, 7, 2}, {15, 6, 4, 3},
		{15, 6, 9, 1}, {20, 7, 10, 2}, {20, 7, 5, 3}, {9, 4, 2, 2},
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				c := cases[(g+rep)%len(cases)]
				if _, err := NB(c.n, c.m, c.x, c.l); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	for _, c := range cases {
		got := MustNB(c.n, c.m, c.x, c.l)
		want := refNB(c.n, c.m, c.x, c.l)
		if got.Cmp(want) != 0 {
			t.Errorf("NB(%d,%d,%d,%d) = %v, unmemoized reference %v", c.n, c.m, c.x, c.l, got, want)
		}
	}
}

// TestExportedCopiesAreOwned pins the public contract that the exported
// counts return freshly owned values a caller may mutate without
// corrupting the memo tables they are built from.
func TestExportedCopiesAreOwned(t *testing.T) {
	for name, nb := range map[string]func() *big.Int{
		"NB":          func() *big.Int { return MustNB(6, 3, 1, 2) },
		"NBConsensus": func() *big.Int { return NBConsensus(6, 3, 1) },
	} {
		a := nb()
		want := a.Int64()
		a.SetInt64(-1)
		if got := nb().Int64(); got != want {
			t.Errorf("%s corrupted by caller mutation: %d, want %d", name, got, want)
		}
	}
	if got := combShared(10, 4).Int64(); got != 210 {
		t.Errorf("memoized C(10,4) corrupted: %d", got)
	}
}
