package adversary

import (
	"fmt"
	"testing"

	"kset/internal/rounds"
)

// countWithOrders returns the number of patterns EnumerateWithOrders
// generates. It enumerates crash placements (cheap: no protocol runs) to
// count the order variants exactly.
func countWithOrders(n, t, maxRounds int) (int64, error) {
	if n < 1 || t < 0 || t > n || maxRounds < 1 {
		return 0, fmt.Errorf("adversary: bad enumeration domain n=%d t=%d rounds=%d", n, t, maxRounds)
	}
	var total int64
	err := Enumerate(n, t, maxRounds, func(fp rounds.FailurePattern) bool {
		partial := 0
		for _, cr := range fp.Crashes {
			if cr.Round >= 2 && cr.AfterSends > 0 && cr.AfterSends < n {
				partial++
			}
		}
		total += int64(1) << partial
		return true
	})
	return total, err
}

func TestReversedOrder(t *testing.T) {
	got := reversedOrder(4)
	want := []rounds.ProcessID{4, 3, 2, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("reversedOrder = %v, want %v", got, want)
		}
	}
}

func TestEnumerateWithOrdersMatchesCount(t *testing.T) {
	for _, tc := range []struct{ n, t, r int }{
		{2, 1, 2}, {3, 1, 2}, {3, 2, 2}, {4, 2, 2},
	} {
		var got int64
		err := EnumerateWithOrders(tc.n, tc.t, tc.r, func(fp rounds.FailurePattern) bool {
			got++
			if err := fp.Validate(tc.n); err != nil {
				t.Fatalf("invalid pattern %+v: %v", fp, err)
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		want, err := countWithOrders(tc.n, tc.t, tc.r)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("n=%d t=%d r=%d: enumerated %d, counted %d", tc.n, tc.t, tc.r, got, want)
		}
		// Strictly more patterns than the identity-only enumeration
		// whenever late partial crashes exist.
		if plain := countPatterns(tc.n, tc.t, tc.r); got <= plain {
			t.Errorf("n=%d t=%d r=%d: with-orders %d ≤ plain %d", tc.n, tc.t, tc.r, got, plain)
		}
	}
}

func TestEnumerateWithOrdersEmitsReversals(t *testing.T) {
	seenReversed := false
	err := EnumerateWithOrders(3, 1, 2, func(fp rounds.FailurePattern) bool {
		if len(fp.Orders) > 0 {
			seenReversed = true
			for id, byRound := range fp.Orders {
				cr := fp.Crashes[id]
				if _, ok := byRound[cr.Round]; !ok {
					t.Fatalf("order for p%d not at its crash round", id)
				}
			}
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if !seenReversed {
		t.Error("no reversed-order variant emitted")
	}
}

func TestEnumerateWithOrdersEarlyStop(t *testing.T) {
	count := 0
	if err := EnumerateWithOrders(3, 2, 2, func(rounds.FailurePattern) bool {
		count++
		return count < 7
	}); err != nil {
		t.Fatal(err)
	}
	if count != 7 {
		t.Errorf("early stop after %d", count)
	}
}

func TestCountWithOrdersErrors(t *testing.T) {
	if _, err := countWithOrders(0, 0, 1); err == nil {
		t.Error("want error")
	}
}
