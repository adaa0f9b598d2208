package rounds

import (
	"testing"

	"kset/internal/vector"
)

// floodMin is a minimal test protocol: processes flood the smallest value
// seen and decide it at a fixed round.
type floodMin struct {
	min      vector.Value
	decideAt int
}

func (f *floodMin) Send(int) any { return f.min }

func (f *floodMin) Step(round int, recv []any) (vector.Value, bool) {
	for _, p := range recv {
		if p == nil {
			continue
		}
		if v := p.(vector.Value); v < f.min {
			f.min = v
		}
	}
	return f.min, round >= f.decideAt
}

func newFloodRun(vals []vector.Value, decideAt int) []Process {
	procs := make([]Process, len(vals))
	for i, v := range vals {
		procs[i] = &floodMin{min: v, decideAt: decideAt}
	}
	return procs
}

// run executes the processes on a one-shot engine into a fresh Result.
func run(procs []Process, fp FailurePattern, opts Options) (*Result, error) {
	return NewEngine().RunInto(nil, procs, fp, opts)
}

func TestRunFailureFree(t *testing.T) {
	procs := newFloodRun([]vector.Value{4, 2, 7, 5}, 2)
	res, err := run(procs, FailurePattern{}, Options{MaxRounds: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 2 {
		t.Errorf("rounds = %d, want 2 (early stop)", res.Rounds)
	}
	if len(res.Decisions) != 4 {
		t.Fatalf("%d decisions, want 4", len(res.Decisions))
	}
	for id, v := range res.Decisions {
		if v != 2 {
			t.Errorf("p%d decided %v, want 2", id, v)
		}
		if res.DecisionRound[id-1] != 2 {
			t.Errorf("p%d decided at round %d, want 2", id, res.DecisionRound[id-1])
		}
	}
	if got := res.DistinctDecisions(); !got.Equal(vector.SetOf(2)) {
		t.Errorf("distinct = %v", got)
	}
	if res.MaxDecisionRound() != 2 {
		t.Errorf("MaxDecisionRound = %d", res.MaxDecisionRound())
	}
	// Round 1: 4 senders × 4 recipients; round 2 same.
	if res.MessagesDelivered != 32 {
		t.Errorf("messages = %d, want 32", res.MessagesDelivered)
	}
}

func TestRunCrashPrefix(t *testing.T) {
	// p1 holds the minimum and crashes in round 1 after delivering to
	// exactly p1 and p2. Only p2 learns value 1 (p1 is crashed); everyone
	// else decides 2 — no further rounds spread it because p2 relays it
	// in round 2 to all.
	vals := []vector.Value{1, 2, 3, 4}
	fp := FailurePattern{Crashes: map[ProcessID]Crash{1: {Round: 1, AfterSends: 2}}}

	// Decide at round 1: p2 has 1, p3 and p4 have their own values
	// reduced only by what they received in round 1 (nothing from p1).
	procs := newFloodRun(vals, 1)
	res, err := run(procs, fp, Options{MaxRounds: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashed[1] != true || len(res.Crashed) != 1 {
		t.Errorf("crashed = %v", res.Crashed)
	}
	if _, ok := res.Decisions[1]; ok {
		t.Error("crashed process decided")
	}
	want := map[ProcessID]vector.Value{2: 1, 3: 2, 4: 2}
	for id, v := range want {
		if res.Decisions[id] != v {
			t.Errorf("p%d decided %v, want %v", id, res.Decisions[id], v)
		}
	}

	// With one more round the min reaches everyone through p2.
	procs = newFloodRun(vals, 2)
	res, err = run(procs, fp, Options{MaxRounds: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []ProcessID{2, 3, 4} {
		if res.Decisions[id] != 1 {
			t.Errorf("round 2: p%d decided %v, want 1", id, res.Decisions[id])
		}
	}
}

func TestRunInitialCrashSendsNothing(t *testing.T) {
	vals := []vector.Value{1, 9, 9}
	fp := FailurePattern{Crashes: map[ProcessID]Crash{1: {Round: 1, AfterSends: 0}}}
	procs := newFloodRun(vals, 3)
	res, err := run(procs, fp, Options{MaxRounds: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []ProcessID{2, 3} {
		if res.Decisions[id] != 9 {
			t.Errorf("p%d decided %v, want 9 (p1's value must be lost)", id, res.Decisions[id])
		}
	}
}

func TestRunLaterRoundOrderOverride(t *testing.T) {
	// p1 gets a fresh minimum at round 2 (via its own state) and crashes in
	// round 2 after 1 send under a reversed order: only p4 receives it.
	vals := []vector.Value{1, 5, 6, 7}
	fp := FailurePattern{
		Crashes: map[ProcessID]Crash{1: {Round: 2, AfterSends: 1}},
		Orders:  map[ProcessID]map[int][]ProcessID{1: {2: {4, 3, 2, 1}}},
	}
	// Block round-1 spreading of p1's value: impossible with a round-2
	// crash (round 1 delivers everywhere), so instead verify the reversed
	// prefix by message counting: round 2 delivers 3×4 + 1 = 13 messages.
	procs := newFloodRun(vals, 2)
	res, err := run(procs, fp, Options{MaxRounds: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.MessagesDelivered; got != 16+13 {
		t.Errorf("messages = %d, want 29", got)
	}
}

func TestValidate(t *testing.T) {
	tests := []struct {
		name    string
		fp      FailurePattern
		wantErr bool
	}{
		{"empty", FailurePattern{}, false},
		{"ok crash", FailurePattern{Crashes: map[ProcessID]Crash{2: {Round: 1, AfterSends: 3}}}, false},
		{"crash past any last round", FailurePattern{Crashes: map[ProcessID]Crash{2: {Round: 1 << 30}}}, false},
		{"unknown process", FailurePattern{Crashes: map[ProcessID]Crash{9: {Round: 1}}}, true},
		{"bad round", FailurePattern{Crashes: map[ProcessID]Crash{1: {Round: 0}}}, true},
		{"bad sends", FailurePattern{Crashes: map[ProcessID]Crash{1: {Round: 1, AfterSends: 5}}}, true},
		{"order round 1", FailurePattern{Orders: map[ProcessID]map[int][]ProcessID{1: {1: {1, 2, 3, 4}}}}, true},
		{"order not a permutation", FailurePattern{Orders: map[ProcessID]map[int][]ProcessID{1: {2: {1, 1, 3, 4}}}}, true},
		{"order wrong length", FailurePattern{Orders: map[ProcessID]map[int][]ProcessID{1: {2: {1, 2}}}}, true},
		{"order unknown process", FailurePattern{Orders: map[ProcessID]map[int][]ProcessID{7: {2: {1, 2, 3, 4}}}}, true},
		{"ok order", FailurePattern{Orders: map[ProcessID]map[int][]ProcessID{1: {2: {4, 3, 2, 1}}}}, false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.fp.Validate(4)
			if (err != nil) != tc.wantErr {
				t.Errorf("Validate = %v, wantErr %v", err, tc.wantErr)
			}
		})
	}
}

func TestRunConfigErrors(t *testing.T) {
	if _, err := run(nil, FailurePattern{}, Options{MaxRounds: 1}); err == nil {
		t.Error("want error for no processes")
	}
	if _, err := run([]Process{nil}, FailurePattern{}, Options{MaxRounds: 1}); err == nil {
		t.Error("want error for nil process")
	}
	if _, err := run(newFloodRun([]vector.Value{1}, 1), FailurePattern{}, Options{}); err == nil {
		t.Error("want error for MaxRounds < 1")
	}
}

func TestFailurePatternStats(t *testing.T) {
	fp := FailurePattern{Crashes: map[ProcessID]Crash{
		1: {Round: 1, AfterSends: 0},
		2: {Round: 1, AfterSends: 2},
		3: {Round: 3, AfterSends: 0},
	}}
	if got := fp.NumCrashes(); got != 3 {
		t.Errorf("NumCrashes = %d", got)
	}
	if got := fp.InitialCrashes(); got != 1 {
		t.Errorf("InitialCrashes = %d", got)
	}
	if got := fp.CrashesByEndOfRound(1); got != 2 {
		t.Errorf("CrashesByEndOfRound(1) = %d", got)
	}
	if got := fp.CrashesByEndOfRound(3); got != 3 {
		t.Errorf("CrashesByEndOfRound(3) = %d", got)
	}
}

func TestAllCrashStops(t *testing.T) {
	vals := []vector.Value{3, 4}
	fp := FailurePattern{Crashes: map[ProcessID]Crash{
		1: {Round: 1, AfterSends: 0},
		2: {Round: 1, AfterSends: 0},
	}}
	procs := newFloodRun(vals, 5)
	res, err := run(procs, fp, Options{MaxRounds: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 1 {
		t.Errorf("rounds = %d, want 1 (everyone crashed)", res.Rounds)
	}
	if len(res.Decisions) != 0 {
		t.Errorf("decisions = %v, want none", res.Decisions)
	}
}
