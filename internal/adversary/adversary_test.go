package adversary

import (
	"math/rand"
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

func TestEnumerateMatchesCount(t *testing.T) {
	for _, tc := range []struct{ n, t, r int }{
		{2, 1, 2}, {3, 1, 2}, {3, 2, 2}, {4, 2, 1},
	} {
		var got int64
		err := Enumerate(tc.n, tc.t, tc.r, func(fp rounds.FailurePattern) bool {
			got++
			if err := fp.Validate(tc.n); err != nil {
				t.Fatalf("enumerated invalid pattern: %v", err)
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if want := countPatterns(tc.n, tc.t, tc.r); got != want {
			t.Errorf("Enumerate(n=%d,t=%d,r=%d) = %d patterns, Count = %d",
				tc.n, tc.t, tc.r, got, want)
		}
	}
}

func TestEnumerateEarlyStop(t *testing.T) {
	var seen int
	if err := Enumerate(3, 2, 2, func(rounds.FailurePattern) bool {
		seen++
		return seen < 10
	}); err != nil {
		t.Fatal(err)
	}
	if seen != 10 {
		t.Errorf("early stop after %d", seen)
	}
}

func TestEnumerateErrors(t *testing.T) {
	for _, tc := range []struct{ n, t, r int }{
		{0, 0, 1}, {3, -1, 1}, {3, 4, 1}, {3, 1, 0},
	} {
		if err := Enumerate(tc.n, tc.t, tc.r, func(rounds.FailurePattern) bool { return true }); err == nil {
			t.Errorf("Enumerate(%+v): want error", tc)
		}
	}
}

func TestCountSmall(t *testing.T) {
	// n=2, t=1, r=1: 1 + C(2,1)·(1·3) = 7.
	if got := countPatterns(2, 1, 1); got != 7 {
		t.Errorf("Count = %d, want 7", got)
	}
}
