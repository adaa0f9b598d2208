package adversary

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"kset/internal/rounds"
)

// randomFamilyCase is one RandomFamily shape and the patterns it must
// yield: pattern i is the one a fresh generator seeded with seed+i draws.
type randomFamilyCase struct {
	seed              int64
	n, t, rmax, count int
}

func (c randomFamilyCase) family() Family {
	return RandomFamily(c.seed, c.n, c.t, c.rmax, c.count)
}

func (c randomFamilyCase) want(i int) rounds.FailurePattern {
	return Random(rand.New(rand.NewSource(c.seed+int64(i))), c.n, c.t, c.rmax)
}

var randomFamilyCases = []randomFamilyCase{
	{seed: 7, n: 8, t: 5, rmax: 4, count: 64},
	{seed: -3, n: 13, t: 6, rmax: 3, count: 48},
}

// TestRandomFamilyStream pins RandomFamily's patterns to a fresh source
// per pattern, though every pattern is drawn from one shared generator:
// for one family walked on its own, for two families walked index by index
// in turn — each draw reseeding the generator the other just used — and
// for one family read by 8 goroutines at once.
func TestRandomFamilyStream(t *testing.T) {
	check := func(t *testing.T, c randomFamilyCase, i int, got rounds.FailurePattern) {
		t.Helper()
		if want := c.want(i); !reflect.DeepEqual(got, want) {
			t.Errorf("RandomFamily(%d, %d, %d, %d, %d).Pattern(%d) = %+v, want %+v", c.seed, c.n, c.t, c.rmax, c.count, i, got, want)
		}
	}

	t.Run("alone", func(t *testing.T) {
		for _, c := range randomFamilyCases {
			f := c.family()
			for i := 0; i < c.count; i++ {
				check(t, c, i, f.Pattern(i))
			}
			f.ForEach(func(i int, fp rounds.FailurePattern) bool {
				check(t, c, i, fp)
				return true
			})
		}
	})

	t.Run("interleaved", func(t *testing.T) {
		a, b := randomFamilyCases[0], randomFamilyCases[1]
		fa, fb := a.family(), b.family()
		for i := 0; i < max(a.count, b.count); i++ {
			if i < a.count {
				check(t, a, i, fa.Pattern(i))
			}
			if i < b.count {
				check(t, b, i, fb.Pattern(i))
			}
		}
	})

	t.Run("concurrent", func(t *testing.T) {
		const goroutines = 8
		c := randomFamilyCases[0]
		f := c.family()
		got := make([][]rounds.FailurePattern, goroutines)
		var wg sync.WaitGroup
		for g := range got {
			got[g] = make([]rounds.FailurePattern, c.count)
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				// Each goroutine starts at its own index, so the shared
				// generator is reseeded out of order.
				for k := 0; k < c.count; k++ {
					i := (k + g*c.count/goroutines) % c.count
					got[g][i] = f.Pattern(i)
				}
			}(g)
		}
		wg.Wait()
		for _, fps := range got {
			for i, fp := range fps {
				check(t, c, i, fp)
			}
		}
	})
}
