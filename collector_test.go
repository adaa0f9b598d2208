package kset_test

import (
	"context"
	"encoding/json"
	"sync/atomic"
	"testing"

	"kset"
)

// invarianceSource builds the worker-invariance workload: a generated
// scenario stream (seeded random inputs × a seeded crash family × two
// executors) identical across calls.
func invarianceSource(p kset.Params, seed int64) kset.ScenarioSource {
	return kset.CrossExecutors(
		kset.FailureSchedules(
			kset.RandomInputs(seed, p.N, 4, 150),
			kset.RandomCrashFamily(seed+1, p.N, p.T, p.RMax(), 5),
		),
		kset.Figure2, kset.EarlyDeciding,
	)
}

// TestCampaignWorkerCountInvariance is the results-plane determinism
// gate: the same seed and source must produce a byte-identical JSON
// report — flat stats, histogram, summaries and every breakdown — for
// workers ∈ {1, 4, 16}.
func TestCampaignWorkerCountInvariance(t *testing.T) {
	p := testParams()
	cond := testCondition(t, p)
	const seed = 23

	report := func(workers int) []byte {
		sys := testSystem(t, kset.WithParams(p), kset.WithCondition(cond), kset.WithWorkers(workers))
		stats, err := sys.RunSource(context.Background(), invarianceSource(p, seed), kset.VerifyRuns())
		if err != nil {
			t.Fatal(err)
		}
		if stats.Runs != 150*5*2 || stats.Errors != 0 || stats.Violations != 0 {
			t.Fatalf("workers=%d: runs=%d errors=%d violations=%d",
				workers, stats.Runs, stats.Errors, stats.Violations)
		}
		raw, err := json.Marshal(stats)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}

	first := report(1)
	for _, workers := range []int{4, 16} {
		if got := report(workers); string(got) != string(first) {
			t.Fatalf("JSON report diverged between workers=1 and workers=%d:\n%s\nvs\n%s",
				workers, first, got)
		}
	}
}

// shardCounter is a minimal custom Collector for the shard protocol
// tests: worker-local shards count observations without locks (the
// campaign contract guarantees single-goroutine access), Join folds them
// back, and a global counter cross-checks under -race that Observe calls
// really were shard-confined.
type shardCounter struct {
	observed int64
	errs     int64
	joined   int64 // number of shards folded in (root only)
	global   *atomic.Int64
}

func (s *shardCounter) Observe(o kset.Observation) {
	s.observed++ // intentionally unsynchronized: must be race-free by construction
	if o.Err {
		s.errs++
	}
	if s.global != nil {
		s.global.Add(1)
	}
}

func (s *shardCounter) Fork() kset.Collector { return &shardCounter{global: s.global} }

func (s *shardCounter) Join(shard kset.Collector) {
	sh := shard.(*shardCounter)
	s.observed += sh.observed
	s.errs += sh.errs
	s.joined++
}

// TestCampaignCollectorShards exercises the concurrent collector-shard
// pipeline with a custom Collector on a many-worker campaign — under
// -race this is the proof that Observe stays shard-local while Fork/Join
// carry everything back: counts must match the campaign's own stats.
func TestCampaignCollectorShards(t *testing.T) {
	p := testParams()
	sys := testSystem(t, kset.WithParams(p), kset.WithCondition(testCondition(t, p)), kset.WithWorkers(8))

	const runs = 2000
	scs := make([]kset.Scenario, runs)
	for i := range scs {
		scs[i] = kset.Scenario{Input: kset.VectorOf(4, 4, 4, 2, 1, 2), FP: kset.InitialCrashes(p.N, i%(p.T+1))}
	}
	var global atomic.Int64
	counter := &shardCounter{global: &global}
	extra := kset.NewAccumulator()
	stats, err := sys.RunCampaign(context.Background(), scs, kset.CollectInto(counter), kset.CollectInto(extra))
	if err != nil {
		t.Fatal(err)
	}
	if counter.observed != runs || counter.observed != stats.Runs {
		t.Errorf("custom collector observed %d runs, stats %d, want %d", counter.observed, stats.Runs, runs)
	}
	if counter.joined != 8 {
		t.Errorf("joined %d shards, want 8 (one per worker)", counter.joined)
	}
	if global.Load() != runs {
		t.Errorf("global observation count %d, want %d", global.Load(), runs)
	}
	// The CollectInto accumulator sees the same stream the campaign's own
	// accumulator folded.
	if extra.Runs != stats.Runs || extra.Errors != stats.Errors ||
		extra.MessagesDelivered() != stats.MessagesDelivered ||
		extra.MaxDecisionRound() != stats.MaxDecisionRound() {
		t.Errorf("CollectInto accumulator diverged: %+v vs stats %+v", extra, stats)
	}
}

// TestCampaignRunAllocations pins the per-run allocation budget of a
// stats-only campaign with the Collector pipeline in place: the scenario
// hand-off, the run — the round engine's or the async scheduler's — and
// the observe path (Observation construction, collector fold, histogram
// and breakdowns) allocate nothing; what is left is the campaign's own
// set-up, spread over 2048 runs.
func TestCampaignRunAllocations(t *testing.T) {
	p := testParams()
	ctx := context.Background()
	for _, ex := range []kset.Executor{kset.Figure2, kset.Asynchronous} {
		t.Run(ex.Name(), func(t *testing.T) {
			sys := testSystem(t, kset.WithParams(p), kset.WithCondition(testCondition(t, p)),
				kset.WithExecutor(ex), kset.WithWorkers(1))

			const runs = 2048
			scs := make([]kset.Scenario, runs)
			for i := range scs {
				scs[i] = kset.Scenario{Input: kset.VectorOf(4, 4, 4, 2, 1, 2), FP: kset.InitialCrashes(p.N, i%2), Seed: int64(i)}
			}
			// Warm the pooled worker state.
			if _, err := sys.RunCampaign(ctx, scs); err != nil {
				t.Fatal(err)
			}
			avg := testing.AllocsPerRun(3, func() {
				stats, err := sys.RunCampaign(ctx, scs)
				if err != nil {
					t.Fatal(err)
				}
				if stats.Runs != runs {
					t.Fatalf("ran %d/%d", stats.Runs, runs)
				}
			})
			perRun := avg / runs
			if perRun > 0.1 {
				t.Errorf("stats-only campaign allocates %.2f/run (%.0f total), want ≤ 0.1 — "+
					"a campaign run must stay allocation-free", perRun, avg)
			}
		})
	}
}
