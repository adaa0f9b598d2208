package rounds

import (
	"testing"

	"kset/internal/vector"
)

// decodePattern deterministically maps raw fuzz bytes onto a
// FailurePattern over n processes — crashes (round, send prefix) and
// per-round order permutations — covering both the valid space and the
// malformed inputs Validate must reject.
func decodePattern(data []byte, n, maxRounds int) FailurePattern {
	fp := FailurePattern{}
	pop := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	for c := pop() % 8; c > 0; c-- {
		if fp.Crashes == nil {
			fp.Crashes = make(map[ProcessID]Crash)
		}
		// Raw byte-derived values, deliberately allowed out of range.
		id := ProcessID(pop()%(n+3) - 1)
		fp.Crashes[id] = Crash{Round: pop()%(maxRounds+3) - 1, AfterSends: pop()%(n+4) - 2}
	}
	for o := pop() % 4; o > 0; o-- {
		if fp.Orders == nil {
			fp.Orders = make(map[ProcessID]map[int][]ProcessID)
		}
		id := ProcessID(pop()%(n+2) - 1)
		round := pop()%(maxRounds+2) - 1
		order := make([]ProcessID, pop()%(n+3))
		for i := range order {
			order[i] = ProcessID(pop()%(n+3) - 1)
		}
		if fp.Orders[id] == nil {
			fp.Orders[id] = make(map[int][]ProcessID)
		}
		fp.Orders[id][round] = order
	}
	return fp
}

// FuzzFailurePatternValidate throws byte-derived failure patterns —
// crashes and order permutations, valid and malformed — at Validate and
// runs the engine on whatever passes: Validate must never panic, must
// reject what the engine cannot execute, and every accepted pattern must
// drive a run to a bounded, crash-consistent result.
func FuzzFailurePatternValidate(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 1, 3, 0})
	f.Add([]byte{2, 1, 1, 0, 4, 2, 4, 1, 0, 1, 4, 1, 2, 3, 4})
	f.Add([]byte{7, 9, 9, 9, 0, 0, 0, 3, 250, 250, 3, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		const n, maxRounds = 4, 3
		fp := decodePattern(data, n, maxRounds)
		vals := make([]vector.Value, n)
		for i := range vals {
			vals[i] = vector.Value(i + 1)
		}
		res, err := run(newFloodRun(vals, maxRounds), fp, Options{MaxRounds: maxRounds})
		if verr := fp.Validate(n); verr != nil {
			if err == nil {
				t.Fatalf("Run accepted a pattern Validate rejects (%v)\n%+v", verr, fp)
			}
			return
		}
		if err != nil {
			t.Fatalf("validated pattern rejected by Run: %v\n%+v", err, fp)
		}
		if res.Rounds > maxRounds {
			t.Fatalf("run overran the round limit: %d > %d", res.Rounds, maxRounds)
		}
		for id := range res.Decisions {
			if res.Crashed[id] {
				t.Fatalf("p%d both decided and crashed", id)
			}
		}
		if len(res.Decisions)+len(res.Crashed) > n {
			t.Fatalf("%d decisions + %d crashes exceed n=%d", len(res.Decisions), len(res.Crashed), n)
		}
	})
}
