package adversary

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"kset/internal/rounds"
)

// countWithOrders returns the number of patterns ExhaustiveOrdersFamily
// holds. It enumerates crash placements (cheap: no protocol runs) to
// count the order variants exactly.
func countWithOrders(n, t, maxRounds int) (int64, error) {
	if n < 1 || t < 0 || t > n || maxRounds < 1 {
		return 0, fmt.Errorf("adversary: bad enumeration domain n=%d t=%d rounds=%d", n, t, maxRounds)
	}
	var total int64
	err := Enumerate(n, t, maxRounds, func(fp rounds.FailurePattern) bool {
		total += int64(1) << latePartial(fp, n)
		return true
	})
	return total, err
}

// latePartial counts the crashers whose delivery order matters: crashes
// in rounds ≥ 2 with 0 < AfterSends < n.
func latePartial(fp rounds.FailurePattern, n int) int {
	partial := 0
	for _, cr := range fp.Crashes {
		if cr.Round >= 2 && cr.AfterSends > 0 && cr.AfterSends < n {
			partial++
		}
	}
	return partial
}

// patternKey renders a pattern's crashes as id@round:after by process id,
// each suffixed "r" when the process sends in the reversed order in its
// crash round; base drops the suffixes.
func patternKey(fp rounds.FailurePattern, base bool) string {
	ids := make([]rounds.ProcessID, 0, len(fp.Crashes))
	for id := range fp.Crashes {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	var b strings.Builder
	for _, id := range ids {
		cr := fp.Crashes[id]
		fmt.Fprintf(&b, "%d@%d:%d", id, cr.Round, cr.AfterSends)
		if _, ok := fp.Orders[id][cr.Round]; ok && !base {
			b.WriteString("r")
		}
		b.WriteString(",")
	}
	return b.String()
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

// TestEnumerateWithOrdersMatchesCount holds ExhaustiveOrdersFamily to the
// set it stands for: countWithOrders patterns, each valid, none twice,
// every order a reversal at a late partial crasher's crash round, and
// with the orders stripped each of the oracle's patterns 2^p times for
// its p late partial crashers.
func TestEnumerateWithOrdersMatchesCount(t *testing.T) {
	for _, tc := range []struct{ n, t, r int }{
		{1, 1, 2}, {2, 1, 2}, {3, 1, 2}, {3, 2, 2}, {4, 2, 2}, {4, 3, 2}, {5, 2, 3},
	} {
		fam, err := ExhaustiveOrdersFamily(tc.n, tc.t, tc.r)
		if err != nil {
			t.Fatal(err)
		}
		want, err := countWithOrders(tc.n, tc.t, tc.r)
		if err != nil {
			t.Fatal(err)
		}
		if int64(fam.Size()) != want {
			t.Errorf("n=%d t=%d r=%d: family of %d, counted %d", tc.n, tc.t, tc.r, fam.Size(), want)
		}
		seen := make(map[string]bool, fam.Size())
		bases := make(map[string]int)
		rev := reversedOrder(tc.n)
		for i, fp := range fam.Patterns() {
			if err := fp.Validate(tc.n); err != nil {
				t.Fatalf("n=%d t=%d r=%d: pattern %d %+v: %v", tc.n, tc.t, tc.r, i, fp, err)
			}
			for id, byRound := range fp.Orders {
				cr := fp.Crashes[id]
				late := cr.Round >= 2 && cr.AfterSends > 0 && cr.AfterSends < tc.n
				if !late || len(byRound) != 1 || !slices.Equal(byRound[cr.Round], rev) {
					t.Fatalf("n=%d t=%d r=%d: pattern %d orders p%d %v, crash %+v", tc.n, tc.t, tc.r, i, id, byRound, cr)
				}
			}
			key := patternKey(fp, false)
			if seen[key] {
				t.Fatalf("n=%d t=%d r=%d: pattern %d (%s) repeats", tc.n, tc.t, tc.r, i, key)
			}
			seen[key] = true
			bases[patternKey(fp, true)]++
		}
		plain := 0
		err = Enumerate(tc.n, tc.t, tc.r, func(fp rounds.FailurePattern) bool {
			plain++
			if got, want := bases[patternKey(fp, true)], 1<<latePartial(fp, tc.n); got != want {
				t.Fatalf("n=%d t=%d r=%d: base %s appears %d times, want %d", tc.n, tc.t, tc.r, patternKey(fp, true), got, want)
			}
			return true
		})
		if err != nil || plain != len(bases) {
			t.Errorf("n=%d t=%d r=%d: %d base patterns, oracle %d (%v)", tc.n, tc.t, tc.r, len(bases), plain, err)
		}
	}
}

// TestEnumerateWithOrdersEmitsReversals: the orders family holds
// reversed-order variants, each order at its process's crash round.
func TestEnumerateWithOrdersEmitsReversals(t *testing.T) {
	fam, err := ExhaustiveOrdersFamily(3, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	seenReversed := false
	for _, fp := range fam.Patterns() {
		if len(fp.Orders) > 0 {
			seenReversed = true
			for id, byRound := range fp.Orders {
				cr := fp.Crashes[id]
				if _, ok := byRound[cr.Round]; !ok {
					t.Fatalf("order for p%d not at its crash round", id)
				}
			}
		}
	}
	if !seenReversed {
		t.Error("no reversed-order variant emitted")
	}
}

// TestEnumerateWithOrdersEarlyStop: walking the orders family stops where
// the walker says.
func TestEnumerateWithOrdersEarlyStop(t *testing.T) {
	fam, err := ExhaustiveOrdersFamily(3, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	fam.ForEach(func(int, rounds.FailurePattern) bool {
		count++
		return count < 7
	})
	if count != 7 {
		t.Errorf("early stop after %d", count)
	}
}

func TestCountWithOrdersErrors(t *testing.T) {
	if _, err := countWithOrders(0, 0, 1); err == nil {
		t.Error("want error")
	}
}
