package adversary

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"kset/internal/rounds"
)

// countPatterns returns the number of patterns Enumerate generates.
func countPatterns(n, t, maxRounds int) int64 {
	perProcess := int64(maxRounds) * int64(n+1)
	total := int64(0)
	// Σ_{f=0..t} C(n,f) · perProcess^f.
	comb := int64(1)
	pow := int64(1)
	for f := 0; f <= t; f++ {
		if f > 0 {
			comb = comb * int64(n-f+1) / int64(f)
			pow *= perProcess
		}
		total += comb * pow
	}
	return total
}

func TestNone(t *testing.T) {
	if got := None().NumCrashes(); got != 0 {
		t.Errorf("None has %d crashes", got)
	}
}

func TestInitialLast(t *testing.T) {
	fp := InitialLast(6, 2)
	if fp.NumCrashes() != 2 || fp.InitialCrashes() != 2 {
		t.Fatalf("bad pattern %+v", fp)
	}
	for _, id := range []rounds.ProcessID{5, 6} {
		cr, ok := fp.Crashes[id]
		if !ok || cr.Round != 1 || cr.AfterSends != 0 {
			t.Errorf("p%d crash = %+v, want initial", id, cr)
		}
	}
	if err := fp.Validate(6); err != nil {
		t.Error(err)
	}
}

func TestStagger(t *testing.T) {
	n, tt := 8, 5
	fp := Stagger(n, tt, 3, 2, 4)
	if got := fp.NumCrashes(); got != tt {
		t.Errorf("crashes = %d, want %d", got, tt)
	}
	if err := fp.Validate(n); err != nil {
		t.Error(err)
	}
	round1 := 0
	for _, cr := range fp.Crashes {
		if cr.Round == 1 {
			round1++
		}
	}
	if round1 != 3 {
		t.Errorf("round-1 crashes = %d, want 3", round1)
	}
	// Never exceeds t even when asked for more.
	fp = Stagger(4, 2, 3, 3, 5)
	if got := fp.NumCrashes(); got != 2 {
		t.Errorf("crashes = %d, want capped at 2", got)
	}
}

func TestRandomValid(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		n := 2 + r.Intn(6)
		tt := r.Intn(n)
		fp := Random(r, n, tt, 4)
		if fp.NumCrashes() > tt {
			t.Fatalf("too many crashes: %+v", fp)
		}
		if err := fp.Validate(n); err != nil {
			t.Fatalf("invalid pattern: %v", err)
		}
	}
}

// Enumerate is the reference oracle of ExhaustiveFamily: it calls fn on
// every prefix-send failure pattern with at most t crashes in rounds
// 1..maxRounds over n processes by recursion, depth first — the pattern,
// then its extensions by the next crashed id, round and sends — stopping
// early if fn returns false. One pattern and its Crashes map are reused
// across every step.
func Enumerate(n, t, maxRounds int, fn func(rounds.FailurePattern) bool) error {
	if n < 1 || t < 0 || t > n || maxRounds < 1 {
		return fmt.Errorf("adversary: bad enumeration domain n=%d t=%d rounds=%d", n, t, maxRounds)
	}
	fp := rounds.FailurePattern{Crashes: make(map[rounds.ProcessID]rounds.Crash)}
	var rec func(firstID int) bool
	rec = func(firstID int) bool {
		if !fn(fp) {
			return false
		}
		if len(fp.Crashes) == t {
			return true
		}
		for id := firstID; id <= n; id++ {
			for r := 1; r <= maxRounds; r++ {
				for sends := 0; sends <= n; sends++ {
					fp.Crashes[rounds.ProcessID(id)] = rounds.Crash{Round: r, AfterSends: sends}
					if !rec(id + 1) {
						return false
					}
					delete(fp.Crashes, rounds.ProcessID(id))
				}
			}
		}
		return true
	}
	rec(1)
	return nil
}

// TestEnumerateMatchesCount pins ExhaustiveFamily to the oracle at every
// n ≤ 5, t ≤ min(n, 3) and r ≤ 3: its size is countPatterns' formula, and
// Pattern(i) is the oracle's i-th pattern, a valid one, in the oracle's
// order.
func TestEnumerateMatchesCount(t *testing.T) {
	for n := 1; n <= 5; n++ {
		for tt := 0; tt <= min(n, 3); tt++ {
			for r := 1; r <= 3; r++ {
				fam, err := ExhaustiveFamily(n, tt, r)
				if err != nil {
					t.Fatal(err)
				}
				if want := countPatterns(n, tt, r); int64(fam.Size()) != want {
					t.Fatalf("ExhaustiveFamily(%d, %d, %d).Size() = %d, countPatterns = %d", n, tt, r, fam.Size(), want)
				}
				i := 0
				err = Enumerate(n, tt, r, func(want rounds.FailurePattern) bool {
					got := fam.Pattern(i)
					if !maps.Equal(got.Crashes, want.Crashes) || got.Orders != nil {
						t.Fatalf("ExhaustiveFamily(%d, %d, %d).Pattern(%d) = %+v, oracle %+v", n, tt, r, i, got, want)
					}
					if err := got.Validate(n); err != nil {
						t.Fatalf("ExhaustiveFamily(%d, %d, %d).Pattern(%d): %v", n, tt, r, i, err)
					}
					i++
					return true
				})
				if err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// TestEnumerateEarlyStop: walking the exhaustive family stops where the
// walker says.
func TestEnumerateEarlyStop(t *testing.T) {
	fam, err := ExhaustiveFamily(3, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	var seen int
	fam.ForEach(func(int, rounds.FailurePattern) bool {
		seen++
		return seen < 10
	})
	if seen != 10 {
		t.Errorf("early stop after %d", seen)
	}
}

// TestEnumerateErrors: both exhaustive families refuse a bad domain and
// a size past the int range — which, where int is 32 bits, includes
// ExhaustiveFamily(10, 5, 3)'s 9.9·10⁹ patterns.
func TestEnumerateErrors(t *testing.T) {
	for _, tc := range []struct{ n, t, r int }{
		{0, 0, 1}, {3, -1, 1}, {3, 4, 1}, {3, 1, 0}, {60, 30, 10}, {255, 254, 255},
	} {
		if _, err := ExhaustiveFamily(tc.n, tc.t, tc.r); err == nil {
			t.Errorf("ExhaustiveFamily(%+v): want error", tc)
		}
		if _, err := ExhaustiveOrdersFamily(tc.n, tc.t, tc.r); err == nil {
			t.Errorf("ExhaustiveOrdersFamily(%+v): want error", tc)
		}
	}
	want := countPatterns(10, 5, 3)
	if want <= math.MaxInt32 {
		t.Fatalf("countPatterns(10, 5, 3) = %d fits 32 bits", want)
	}
	fam, err := ExhaustiveFamily(10, 5, 3)
	switch {
	case strconv.IntSize == 32 && err == nil:
		t.Errorf("ExhaustiveFamily(10, 5, 3) = %d patterns with a 32-bit int", fam.Size())
	case strconv.IntSize == 64 && (err != nil || int64(fam.Size()) != want):
		t.Errorf("ExhaustiveFamily(10, 5, 3) = %d patterns, %v; want %d", fam.Size(), err, want)
	}
}

func TestCountSmall(t *testing.T) {
	// n=2, t=1, r=1: 1 + C(2,1)·(1·3) = 7.
	if got := countPatterns(2, 1, 1); got != 7 {
		t.Errorf("Count = %d, want 7", got)
	}
}
