package kset_test

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"kset"
	"kset/internal/adversary"
)

// TestCampaignStats runs a small fixed scenario set and pins every
// aggregate field.
func TestCampaignStats(t *testing.T) {
	p := testParams()
	cond := testCondition(t, p)
	sys := testSystem(t, kset.WithParams(p), kset.WithCondition(cond), kset.WithWorkers(2))

	inC := kset.VectorOf(4, 4, 4, 2, 1, 2)  // in the condition
	outC := kset.VectorOf(1, 2, 3, 4, 1, 2) // outside it
	scenarios := []kset.Scenario{
		{Input: inC, FP: kset.NoFailures()},
		{Input: inC, FP: kset.InitialCrashes(p.N, 2)},
		{Input: inC, FP: kset.NoFailures(), Executor: kset.EarlyDeciding},
		{Input: outC, FP: kset.NoFailures()},
		{Input: outC, FP: kset.NoFailures(), Executor: kset.Classical},
		{Input: kset.VectorOf(1, 2), FP: kset.NoFailures()}, // bad input: an error, not a stop
	}

	stats, err := sys.RunCampaign(context.Background(), scenarios, kset.VerifyRuns())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Runs != int64(len(scenarios)) {
		t.Errorf("Runs = %d, want %d", stats.Runs, len(scenarios))
	}
	if stats.Errors != 1 {
		t.Errorf("Errors = %d, want 1", stats.Errors)
	}
	if stats.ConditionHits != 3 {
		t.Errorf("ConditionHits = %d, want 3", stats.ConditionHits)
	}
	if stats.Violations != 0 {
		t.Errorf("Violations = %d, want 0", stats.Violations)
	}
	if stats.MessagesDelivered == 0 {
		t.Error("MessagesDelivered = 0")
	}
	var histRuns int64
	for _, c := range stats.DecisionRounds {
		histRuns += c
	}
	if histRuns != stats.Runs-stats.Errors {
		t.Errorf("histogram covers %d runs, want %d", histRuns, stats.Runs-stats.Errors)
	}
	// The failure-free in-condition runs decide at round 2; nothing can
	// decide at round 1 or beyond RMax.
	if stats.DecisionRounds[2] < 2 {
		t.Errorf("histogram %v: want ≥ 2 two-round decisions", stats.DecisionRounds)
	}
	if len(stats.DecisionRounds) > p.RMax()+1 {
		t.Errorf("histogram %v extends past RMax=%d", stats.DecisionRounds, p.RMax())
	}
	if hr := stats.HitRate(); hr != 0.5 {
		t.Errorf("HitRate = %v, want 0.5", hr)
	}
	if m := stats.MeanDecisionRound(); m < 2 || m > float64(p.RMax()) {
		t.Errorf("MeanDecisionRound = %v outside [2, RMax]", m)
	}
}

// throttle is a Collector whose every Observe hands the test a token over
// an unbuffered channel, so the workers run only as fast as the test takes
// tokens; closing release lets them through for good.
type throttle struct {
	tokens  chan struct{}
	release chan struct{}
}

func (th throttle) Observe(kset.Observation) {
	select {
	case th.tokens <- struct{}{}:
	case <-th.release:
	}
}

func (th throttle) Fork() kset.Collector { return th }
func (th throttle) Join(kset.Collector)  {}

// TestCampaignCancellation cancels mid-campaign: the workers stop, Wait
// reports the context error, and the stats cover only what ran.
func TestCampaignCancellation(t *testing.T) {
	p := testParams()
	sys := testSystem(t, kset.WithParams(p), kset.WithCondition(testCondition(t, p)), kset.WithWorkers(2))
	ctx, cancel := context.WithCancel(context.Background())
	th := throttle{tokens: make(chan struct{}), release: make(chan struct{})}
	camp := sys.NewCampaign(ctx, kset.CollectInto(th))

	const total = 10000
	scs := make([]kset.Scenario, total)
	for i := range scs {
		scs[i] = kset.Scenario{Input: kset.VectorOf(4, 4, 4, 2, 1, 2), FP: kset.NoFailures()}
	}
	submitErr := make(chan error, 1)
	go func() { submitErr <- camp.SubmitAll(scs) }()

	// Let a handful of runs through the throttle, then pull the plug and
	// release the workers.
	for i := 0; i < 5; i++ {
		<-th.tokens
	}
	cancel()
	close(th.release)

	if err := <-submitErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("SubmitAll error = %v, want context.Canceled", err)
	}
	stats, err := camp.Wait()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait error = %v, want context.Canceled", err)
	}
	if stats.Runs == 0 || stats.Runs >= total {
		t.Fatalf("stats.Runs = %d, want partial progress in (0, %d)", stats.Runs, total)
	}
	// Runs the cancellation aborted mid-flight (the engine now honors the
	// context at round boundaries) did not run: they must not surface as
	// campaign errors.
	if stats.Errors != 0 {
		t.Fatalf("stats.Errors = %d after cancellation, want 0", stats.Errors)
	}
}

// TestCampaignSubmitAfterClose pins the closed-campaign error: Wait closes
// the campaign, and a later SubmitAll is refused.
func TestCampaignSubmitAfterClose(t *testing.T) {
	p := testParams()
	sys := testSystem(t, kset.WithParams(p), kset.WithCondition(testCondition(t, p)))
	camp := sys.NewCampaign(context.Background())
	if _, err := camp.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := camp.SubmitAll([]kset.Scenario{{Input: kset.VectorOf(4, 4, 4, 2, 1, 2)}}); !errors.Is(err, kset.ErrCampaignClosed) {
		t.Fatalf("SubmitAll after Wait: %v, want ErrCampaignClosed", err)
	}
}

// seededScenarios builds the determinism test's workload: seeded random
// inputs, adversaries and executor mix.
func seededScenarios(p kset.Params, m, runs int, seed int64) []kset.Scenario {
	rng := rand.New(rand.NewSource(seed))
	execs := []kset.Executor{kset.Figure2, kset.EarlyDeciding, kset.Classical}
	scs := make([]kset.Scenario, runs)
	for i := range scs {
		input := make(kset.Vector, p.N)
		for j := range input {
			input[j] = kset.Value(1 + rng.Intn(m))
		}
		scs[i] = kset.Scenario{
			Input:    input,
			FP:       adversary.Random(rng, p.N, p.T, p.RMax()),
			Executor: execs[rng.Intn(len(execs))],
		}
	}
	return scs
}

// TestCampaignDeterminism: the same seed must yield byte-identical
// CampaignStats regardless of worker parallelism and scheduling.
func TestCampaignDeterminism(t *testing.T) {
	p := testParams()
	cond := testCondition(t, p)
	const runs, seed = 2000, 7

	run := func(workers int) *kset.CampaignStats {
		sys := testSystem(t, kset.WithParams(p), kset.WithCondition(cond), kset.WithWorkers(workers))
		stats, err := sys.RunCampaign(context.Background(), seededScenarios(p, 4, runs, seed), kset.VerifyRuns())
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}

	first := run(4)
	if first.Runs != runs || first.Errors != 0 {
		t.Fatalf("campaign ran %d/%d scenarios with %d errors", first.Runs, runs, first.Errors)
	}
	if first.Violations != 0 {
		t.Fatalf("%d specification violations", first.Violations)
	}
	for _, workers := range []int{4, 1, 7} {
		if again := run(workers); !reflect.DeepEqual(first, again) {
			t.Fatalf("same seed diverged at workers=%d:\n%+v\nvs\n%+v", workers, first, again)
		}
	}
}
