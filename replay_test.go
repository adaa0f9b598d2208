package kset

import (
	"context"
	"encoding/json"
	"testing"

	"kset/internal/core"
)

// TestCampaignReplaysByRunScenario pins the contract that stands in for
// per-run campaign outputs: a campaign run is a pure function of its
// scenario — inputs, crash patterns, fault seeds and async seeds are all
// deterministic — so sequential RunScenario calls over the same source,
// each observed the way runOne observes it, fold into the campaign's
// accumulator byte for byte, whatever the executor, crash pattern or fault
// plan.
func TestCampaignReplaysByRunScenario(t *testing.T) {
	p := Params{N: 6, T: 3, K: 2, D: 1, L: 1}
	cond, err := NewMaxCondition(p.N, 4, p.X(), p.L)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(WithParams(p), WithCondition(cond), WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	const seed = 31
	src := FaultSchedules(
		CrossExecutors(
			FailureSchedules(
				RandomInputs(seed, p.N, 4, 30),
				RandomCrashFamily(seed+1, p.N, p.T, p.RMax(), 3),
			),
			Figure2, EarlyDeciding, Classical, Asynchronous,
		),
		StormFamily(seed+2, 3, 2, 0.3),
	)
	ctx := context.Background()
	st, err := sys.RunSource(ctx, src, VerifyRuns())
	if err != nil {
		t.Fatal(err)
	}
	if st.Runs != 30*3*4*3 || st.Errors != 0 || st.Metrics.Faults == nil {
		t.Fatalf("campaign: %d runs, %d errors, faults %v; want 1080 runs, no errors, some faults",
			st.Runs, st.Errors, st.Metrics.Faults)
	}

	replay := NewAccumulator()
	src.ForEach(func(sc Scenario) bool {
		var o Observation
		res, err := sys.RunScenario(ctx, sc)
		if err != nil {
			o.Err = true
		} else {
			o = core.Observe(res)
			o.InCondition = cond.Contains(sc.Input)
			if u := len(sc.Input) - len(res.Decisions) - len(res.Crashed); u > 0 {
				o.Undecided = u
			}
			if sc.Executor.synchronous() {
				o.Verified = true
				o.Violation = !Verify(sc.Input, sc.FP, res, p.K).OK()
			}
		}
		o.Executor, o.Label = sc.Executor.Name(), sc.Label
		replay.Observe(o)
		return true
	})

	got, err := json.Marshal(st.Metrics)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(replay)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("campaign accumulator differs from its RunScenario replay:\n%s\nvs\n%s", got, want)
	}
}
