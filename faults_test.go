package kset_test

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"kset"
)

// stormPlan is a fault plan exercising every random fault kind at once.
func stormPlan(seed int64) *kset.FaultPlan {
	return &kset.FaultPlan{
		Seed:    seed,
		Default: kset.LinkFaults{Loss: 0.15, DelayProb: 0.2, MaxDelay: 2, Duplicate: 0.1},
		Reorder: 0.25,
	}
}

// TestFaultPlanEndToEnd drives a lossy plan through the full stack:
// scenario plan, per-run Result counters, campaign accumulator tallies
// and the undecided-runs outcome, with no hangs and no panics.
func TestFaultPlanEndToEnd(t *testing.T) {
	p := testParams()
	sys := testSystem(t, kset.WithParams(p), kset.WithCondition(testCondition(t, p)))
	plan := &kset.FaultPlan{Seed: 9, Default: kset.LinkFaults{Loss: 0.9}}

	res, err := sys.RunScenario(context.Background(), kset.Scenario{Input: kset.VectorOf(4, 4, 4, 2, 1, 2), Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	if res.Lost == 0 {
		t.Error("a 50% loss plan lost no copies")
	}

	stats, err := sys.RunSource(context.Background(),
		kset.CrossFaults(kset.RandomInputs(11, p.N, 4, 60), plan), kset.VerifyRuns())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Runs != 60 || stats.Errors != 0 {
		t.Fatalf("runs=%d errors=%d", stats.Runs, stats.Errors)
	}
	ft := stats.Metrics.Faults
	if ft == nil || ft.Lost.Sum == 0 {
		t.Fatalf("campaign under a lossy plan recorded no fault tally: %+v", ft)
	}
	if stats.UndecidedRuns == 0 {
		t.Error("90% loss on every link left every run fully decided (suspicious)")
	}
	if stats.UndecidedRuns != stats.Metrics.UndecidedRuns {
		t.Errorf("flat UndecidedRuns %d != accumulator %d", stats.UndecidedRuns, stats.Metrics.UndecidedRuns)
	}
}

// TestScenarioFaultsOverride: a fault-free system runs a scenario's plan
// for that scenario alone.
func TestScenarioFaultsOverride(t *testing.T) {
	p := testParams()
	sys := testSystem(t, kset.WithParams(p), kset.WithCondition(testCondition(t, p)))
	input := kset.VectorOf(4, 4, 4, 2, 1, 2)

	res, err := sys.RunScenario(context.Background(), kset.Scenario{Input: input})
	if err != nil {
		t.Fatal(err)
	}
	if res.Lost != 0 || res.Delayed != 0 || res.Duplicated != 0 {
		t.Fatalf("fault-free run carries fault counters: %+v", res)
	}
	res, err = sys.RunScenario(context.Background(), kset.Scenario{
		Input:  input,
		Faults: &kset.FaultPlan{Seed: 2, Default: kset.LinkFaults{Loss: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MessagesDelivered != 0 || res.Lost == 0 {
		t.Fatalf("loss-everything scenario plan delivered %d, lost %d", res.MessagesDelivered, res.Lost)
	}
}

// TestFaultPlanValidation: an invalid scenario plan is rejected with
// ErrBadParams when its run starts.
func TestFaultPlanValidation(t *testing.T) {
	p := testParams()
	bad := &kset.FaultPlan{Default: kset.LinkFaults{Loss: 1.5}}
	sys := testSystem(t, kset.WithParams(p), kset.WithCondition(testCondition(t, p)))
	_, err := sys.RunScenario(context.Background(), kset.Scenario{
		Input:  kset.VectorOf(4, 4, 4, 2, 1, 2),
		Faults: bad,
	})
	if !errors.Is(err, kset.ErrBadParams) {
		t.Errorf("RunScenario with a bad plan: %v, want ErrBadParams", err)
	}
	// A plan naming a process outside 1..n fails against this system.
	oob := &kset.FaultPlan{Scheduled: []kset.ScheduledFault{{Round: 1, From: 1, To: kset.ProcessID(p.N + 1), Kind: kset.FaultDrop}}}
	_, err = sys.RunScenario(context.Background(), kset.Scenario{
		Input:  kset.VectorOf(4, 4, 4, 2, 1, 2),
		Faults: oob,
	})
	if !errors.Is(err, kset.ErrBadParams) {
		t.Errorf("RunScenario with an out-of-range link: %v, want ErrBadParams", err)
	}
}

// TestZeroFaultPlansLeaveTheSeam: a plan that injects nothing is validated
// and then run as if there were none — the campaign's stats JSON is
// byte-identical to the plan-free campaign's at any worker count, with no
// fault tally — while an invalid plan whose profiles are all zero still
// fails. On a wire system such a plan leaves the plan-less wire run.
func TestZeroFaultPlansLeaveTheSeam(t *testing.T) {
	p := testParams()
	cond := testCondition(t, p)
	const seed = 31
	report := func(workers int, plans ...*kset.FaultPlan) []byte {
		sys := testSystem(t, kset.WithParams(p), kset.WithCondition(cond), kset.WithWorkers(workers))
		src := kset.CrossFaults(
			kset.CrossExecutors(
				kset.FailureSchedules(
					kset.RandomInputs(seed, p.N, 4, 40),
					kset.RandomCrashFamily(seed+1, p.N, p.T, p.RMax(), 3),
				),
				kset.Figure2, kset.EarlyDeciding, kset.Classical,
			), plans...)
		stats, err := sys.RunSource(context.Background(), src, kset.VerifyRuns())
		if err != nil {
			t.Fatal(err)
		}
		if want := int64(40 * 3 * 3 * 2); stats.Runs != want || stats.Errors != 0 {
			t.Fatalf("workers=%d: runs=%d (want %d) errors=%d", workers, stats.Runs, want, stats.Errors)
		}
		if stats.Metrics.Faults != nil {
			t.Fatalf("workers=%d: fault tally %+v without a fault", workers, stats.Metrics.Faults)
		}
		raw, err := json.Marshal(stats)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	want := report(1, nil, nil)
	for _, workers := range []int{1, 4} {
		got := report(workers, &kset.FaultPlan{}, &kset.FaultPlan{Seed: seed, Default: kset.LinkFaults{Loss: 0}})
		if string(got) != string(want) {
			t.Fatalf("workers=%d: zero-plan campaign diverged from the plan-free one:\n%s\nvs\n%s", workers, got, want)
		}
	}

	sys := testSystem(t, kset.WithParams(p), kset.WithCondition(cond))
	input := kset.VectorOf(4, 4, 4, 2, 1, 2)
	for name, bad := range map[string]*kset.FaultPlan{
		"link beyond n":     {Links: map[kset.FaultLink]kset.LinkFaults{{From: 1, To: kset.ProcessID(p.N + 1)}: {}}},
		"negative MaxDelay": {Default: kset.LinkFaults{MaxDelay: -1}},
	} {
		if !bad.Zero() {
			t.Fatalf("%s: the plan is meant to inject nothing", name)
		}
		_, err := sys.RunScenario(context.Background(), kset.Scenario{Input: input, Faults: bad})
		if !errors.Is(err, kset.ErrBadParams) {
			t.Errorf("%s: err = %v, want ErrBadParams", name, err)
		}
	}
	wired := testSystem(t, kset.WithParams(p), kset.WithCondition(cond), kset.WithTransport(pipeWire))
	want1, err := wired.RunScenario(context.Background(), kset.Scenario{Input: input})
	if err != nil {
		t.Fatal(err)
	}
	got1, err := wired.RunScenario(context.Background(), kset.Scenario{Input: input, Faults: &kset.FaultPlan{}})
	if err != nil || !reflect.DeepEqual(got1, want1) {
		t.Errorf("zero plan on a wire system: %+v, %v; want the plan-less wire run %+v", got1, err, want1)
	}
}

// TestFaultCampaignAcrossSystemSizes runs a reordering fault campaign on
// an n=8 System, one on an n=48 System, then the n=8 one again. Every
// System draws its workers from one shared pool, so the third campaign
// runs on engines the second grew: a send order left at 48 entries would
// have the reordering transport deliver to processes an 8-process run
// lacks. No run may error, and the two n=8 reports must be identical.
func TestFaultCampaignAcrossSystemSizes(t *testing.T) {
	plan := &kset.FaultPlan{Seed: 5, Reorder: 0.5}
	report := func(n int) []byte {
		sys := testSystem(t, kset.WithParams(kset.Params{N: n, T: n / 2, K: 2, L: 1}),
			kset.WithExecutor(kset.Classical))
		stats, err := sys.RunSource(context.Background(), kset.CrossFaults(kset.RandomInputs(3, n, 4, 200), plan))
		if err != nil {
			t.Fatal(err)
		}
		if stats.Runs != 200 || stats.Errors != 0 {
			t.Fatalf("n=%d: runs=%d errors=%d", n, stats.Runs, stats.Errors)
		}
		raw, err := json.Marshal(stats)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}

	first := report(8)
	report(48)
	if again := report(8); string(again) != string(first) {
		t.Fatalf("n=8 report changed after an n=48 campaign:\n%s\nvs\n%s", first, again)
	}
}

// TestFaultGenerators pins the generator combinators: sizes, plan
// pointer stability across FaultSchedules iterations, and SweepFaults
// keys.
func TestFaultGenerators(t *testing.T) {
	inputs := kset.Inputs(kset.VectorOf(1, 1, 1, 1, 1, 1), kset.VectorOf(2, 2, 2, 2, 2, 2))

	crossed := kset.CrossFaults(inputs, nil, &kset.FaultPlan{Seed: 1, Default: kset.LinkFaults{Loss: 0.5}})
	if n, ok := crossed.Size(); !ok || n != 4 {
		t.Errorf("CrossFaults size = %d, %v, want 4", n, ok)
	}
	var plans []*kset.FaultPlan
	crossed.ForEach(func(sc kset.Scenario) bool {
		plans = append(plans, sc.Faults)
		return true
	})
	if len(plans) != 4 || plans[0] != nil || plans[1] == nil || plans[1] != plans[3] {
		t.Errorf("CrossFaults plan sequence wrong: %v", plans)
	}

	fam := kset.LossSweepFamily(7, 3, 0.3)
	sched := kset.FaultSchedules(inputs, fam)
	if n, ok := sched.Size(); !ok || n != 6 {
		t.Errorf("FaultSchedules size = %d, %v, want 6", n, ok)
	}
	plans = plans[:0]
	sched.ForEach(func(sc kset.Scenario) bool {
		plans = append(plans, sc.Faults)
		return true
	})
	// One materialization per iteration: both inputs share plan pointers.
	if len(plans) != 6 || plans[0] != plans[3] || plans[2] != plans[5] {
		t.Errorf("FaultSchedules must materialize the family once per iteration")
	}
	if !plans[0].Zero() {
		t.Error("loss sweep index 0 must be fault-free")
	}
	if plans[2].Default.Loss != 0.3 {
		t.Errorf("loss sweep last index rate = %v, want 0.3", plans[2].Default.Loss)
	}

	points := kset.SweepFaults(kset.SweepPoint{Key: "base", Source: inputs}, kset.DelaySweepFamily(3, 3, 0.5))
	if len(points) != 3 || points[0].Key != "base/delay=0" || points[2].Key != "base/delay=2" {
		t.Fatalf("SweepFaults keys wrong: %+v", points)
	}
	if n, ok := points[1].Source.Size(); !ok || n != 2 {
		t.Errorf("SweepFaults point source size = %d, %v, want 2", n, ok)
	}

	storm := kset.StormFamily(5, 4, 2, 0.4)
	if storm.Size() != 4 || !storm.Plan(0).Zero() || storm.Plan(3).Reorder != 0.4 {
		t.Errorf("StormFamily shape wrong: %+v", storm.Plan(3))
	}
}

// TestAsyncIgnoresFaults: the asynchronous executor has no synchronous
// transport; a fault plan must be silently inapplicable, not an error.
func TestAsyncIgnoresFaults(t *testing.T) {
	p := testParams()
	sys := testSystem(t, kset.WithParams(p), kset.WithCondition(testCondition(t, p)),
		kset.WithExecutor(kset.Asynchronous))
	res, err := sys.RunScenario(context.Background(), kset.Scenario{
		Input:  kset.VectorOf(4, 4, 4, 2, 1, 2),
		Faults: &kset.FaultPlan{Default: kset.LinkFaults{Loss: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Decisions) == 0 {
		t.Error("async run under an (ignored) loss-everything plan decided nothing")
	}
	if res.Lost != 0 {
		t.Errorf("async run reports %d lost copies, want 0", res.Lost)
	}
}
