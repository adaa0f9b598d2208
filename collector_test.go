package kset_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"kset"
)

// TestCampaignWorkerCountInvariance is the results-plane determinism
// gate: the same seed and source must produce a byte-identical JSON
// report — flat stats, histogram, summaries and every breakdown — for
// workers ∈ {1, 4, 16}, on each plane:
//   - sync: seeded random inputs × a seeded crash family × two executors;
//   - lossy: the fault plane — under a lossy, delaying, duplicating,
//     reordering transport the fault tallies and undecided counts agree
//     too, because fault draws are seeded per scenario, never per worker;
//   - async: asynchronous campaigns are a pure function of their scenario
//     list — the virtual scheduler replaces wall-clock jitter, so one
//     worker or sixteen racing through it give the same stats.
func TestCampaignWorkerCountInvariance(t *testing.T) {
	p := testParams()
	cond := testCondition(t, p)
	ap := kset.Params{N: 6, T: 2, K: 2, D: 0, L: 2} // x = ℓ = 2
	acond, err := kset.NewMaxCondition(ap.N, 4, ap.X(), ap.L)
	if err != nil {
		t.Fatal(err)
	}
	rows := []struct {
		name  string
		opts  []kset.Option
		src   kset.ScenarioSource
		runs  int64
		check func(*kset.CampaignStats) string // a row's own check; "" passes
	}{
		{"sync", []kset.Option{kset.WithParams(p), kset.WithCondition(cond)},
			kset.CrossExecutors(
				kset.FailureSchedules(
					kset.RandomInputs(23, p.N, 4, 150),
					kset.RandomCrashFamily(24, p.N, p.T, p.RMax(), 5),
				),
				kset.Figure2, kset.EarlyDeciding,
			), 150 * 5 * 2,
			func(st *kset.CampaignStats) string {
				if st.Violations != 0 {
					return fmt.Sprintf("%d violations", st.Violations)
				}
				return ""
			}},
		{"lossy", []kset.Option{kset.WithParams(p), kset.WithCondition(cond)},
			kset.CrossFaults(
				kset.CrossExecutors(
					kset.FailureSchedules(
						kset.RandomInputs(29, p.N, 4, 40),
						kset.RandomCrashFamily(30, p.N, p.T, p.RMax(), 3),
					),
					kset.Figure2, kset.EarlyDeciding, kset.Classical,
				),
				nil, stormPlan(31),
			), 40 * 3 * 3 * 2,
			func(st *kset.CampaignStats) string {
				if st.Metrics.Faults == nil {
					return "no fault tally under a storm plan"
				}
				return ""
			}},
		{"async", []kset.Option{kset.WithParams(ap), kset.WithCondition(acond), kset.WithExecutor(kset.Asynchronous)},
			kset.ScenariosOf(asyncScenarios(ap.N, 4, ap.X(), 600, 23)...), 600,
			func(st *kset.CampaignStats) string {
				if st.UndecidedRuns == 0 {
					return "the workload never exercised the give-up path: too weak to pin invariance"
				}
				return ""
			}},
	}
	for _, row := range rows {
		row := row
		t.Run(row.name, func(t *testing.T) {
			var first []byte
			for _, workers := range []int{1, 4, 16} {
				sys := testSystem(t, append(row.opts, kset.WithWorkers(workers))...)
				st, err := sys.RunSource(context.Background(), row.src, kset.VerifyRuns())
				if err != nil {
					t.Fatal(err)
				}
				if st.Runs != row.runs || st.Errors != 0 {
					t.Fatalf("workers=%d: runs=%d (want %d) errors=%d", workers, st.Runs, row.runs, st.Errors)
				}
				if msg := row.check(st); msg != "" {
					t.Fatalf("workers=%d: %s", workers, msg)
				}
				raw, err := json.Marshal(st)
				if err != nil {
					t.Fatal(err)
				}
				if first == nil {
					first = raw
				} else if !bytes.Equal(raw, first) {
					t.Fatalf("JSON report diverged between workers=1 and workers=%d:\n%s\nvs\n%s", workers, first, raw)
				}
			}
		})
	}
}

// asyncScenarios builds a seeded asynchronous workload of n-process runs
// over values 1..m: in-condition and arbitrary inputs, up to x crashes at
// random crash points, and a scheduling seed per run.
func asyncScenarios(n, m, x, runs int, seed int64) []kset.Scenario {
	rng := rand.New(rand.NewSource(seed))
	scs := make([]kset.Scenario, runs)
	for i := range scs {
		input := make(kset.Vector, n)
		for j := range input {
			input[j] = kset.Value(1 + rng.Intn(m))
		}
		var crashes map[int]kset.CrashPoint
		if k := rng.Intn(x + 1); k > 0 {
			crashes = make(map[int]kset.CrashPoint, k)
			for len(crashes) < k {
				id := 1 + rng.Intn(n)
				if rng.Intn(2) == 0 {
					crashes[id] = kset.CrashBeforeWrite
				} else {
					crashes[id] = kset.CrashAfterWrite
				}
			}
		}
		scs[i] = kset.Scenario{Input: input, Seed: rng.Int63(), AsyncCrashes: crashes}
	}
	return scs
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
// set-up, spread over the arm's runs. The slice-fed arms hold that at
// ≤ 0.1/run over 2048 runs. The source-fed arms hold the generator path
// to ≤ 0.01/run (sourceBound): a pulled campaign's worker draws every
// input into its own vector with its own reseeded generator.
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
			perRun := allocsPerRun(t, runs, func() (*kset.CampaignStats, error) {
				return sys.RunCampaign(ctx, scs)
			})
			if perRun > 0.1 {
				t.Errorf("stats-only campaign allocates %.4f/run, want ≤ 0.1 — "+
					"a campaign run must stay allocation-free", perRun)
			}
		})
	}

	// One seeded random stream per executor: 1024 inputs × a 4-pattern
	// crash family, pulled by one worker.
	fam := kset.RandomCrashFamily(11, p.N, p.X(), p.RMax(), 4)
	for _, ex := range []kset.Executor{kset.Figure2, kset.EarlyDeciding, kset.Classical, kset.Asynchronous} {
		t.Run("random/"+ex.Name(), func(t *testing.T) {
			sys := testSystem(t, kset.WithParams(p), kset.WithCondition(testCondition(t, p)),
				kset.WithExecutor(ex), kset.WithWorkers(1))
			src := kset.FailureSchedules(kset.RandomInputs(3, p.N, 4, 1024), fam)
			sourceAllocs(t, src, func() (*kset.CampaignStats, error) {
				return sys.RunSource(ctx, src)
			})
		})
	}

	// The Figure-2 stream again, with a progress handle attached and no
	// reader: a worker's one atomic load per run allocates nothing.
	t.Run("random/progress", func(t *testing.T) {
		sys := testSystem(t, kset.WithParams(p), kset.WithCondition(testCondition(t, p)), kset.WithWorkers(1))
		src := kset.FailureSchedules(kset.RandomInputs(3, p.N, 4, 1024), fam)
		sourceAllocs(t, src, func() (*kset.CampaignStats, error) {
			return sys.RunSource(ctx, src, kset.TrackProgress(new(kset.Progress)))
		})
	})

	// The other builders and the combinators, at n = 8.
	wp := kset.Params{N: 8, T: 5, K: 2, D: 3, L: 1}
	cond, err := kset.NewMaxCondition(wp.N, 4, wp.X(), wp.L)
	if err != nil {
		t.Fatal(err)
	}
	sys := testSystem(t, kset.WithParams(wp), kset.WithCondition(cond), kset.WithWorkers(1))
	for _, arm := range []struct {
		name string
		src  kset.ScenarioSource
	}{
		{"exhaustive", kset.ExhaustiveInputs(wp.N, 3)},
		{"members", kset.ConditionMembers(cond)},
		{"composite", kset.Concat(
			kset.Labeled(kset.Range(kset.RandomInputs(5, wp.N, 4, 8192), 1000, 5096), "random"),
			kset.Labeled(kset.ExhaustiveInputs(wp.N, 2), "exhaustive"))},
	} {
		t.Run(arm.name, func(t *testing.T) {
			sourceAllocs(t, arm.src, func() (*kset.CampaignStats, error) {
				return sys.RunSource(ctx, arm.src)
			})
		})
	}

	// RunCheckpointed's one campaign costs a few dozen allocations of
	// set-up and breakdown groups, and each chunk its claims' iterator
	// closures, whatever feeds it; the generator path's share is what the
	// source-fed stream costs over the same scenarios, materialized, in
	// the same chunks.
	t.Run("checkpointed", func(t *testing.T) {
		src := kset.FailureSchedules(kset.RandomInputs(7, wp.N, 4, 1024), kset.RandomCrashFamily(13, wp.N, wp.X(), wp.RMax(), 4))
		var scs []kset.Scenario
		src.ForEach(func(sc kset.Scenario) bool {
			scs = append(scs, sc)
			return true
		})
		slice := kset.ScenariosOf(scs...)
		runs := int64(len(scs))
		const every = 1024
		generated := allocsPerRun(t, runs, func() (*kset.CampaignStats, error) {
			return sys.RunCheckpointed(ctx, src, nil, every, nil)
		})
		materialized := allocsPerRun(t, runs, func() (*kset.CampaignStats, error) {
			return sys.RunCheckpointed(ctx, slice, nil, every, nil)
		})
		if perRun, bound := generated-materialized, sourceBound(); perRun > bound {
			t.Errorf("checkpointed generation allocates %.4f/run over the slice-fed chunks (%.4f vs %.4f), want ≤ %g",
				perRun, generated, materialized, bound)
		}
	})
}

// sourceAllocs holds a source-fed campaign to sourceBound allocations
// per run of src.
func sourceAllocs(t *testing.T, src kset.ScenarioSource, run func() (*kset.CampaignStats, error)) {
	t.Helper()
	runs, _ := src.Size()
	if perRun, bound := allocsPerRun(t, runs, run), sourceBound(); perRun > bound {
		t.Errorf("source-fed campaign allocates %.4f/run over %d runs, want ≤ %g — "+
			"a pulled run must draw its input into the worker's storage", perRun, runs, bound)
	}
}

// sourceBound is the source-fed arms' budget per run: 0.01, or the
// slice-fed arms' 0.1 under the race detector, whose sync.Pool drops a
// quarter of the workers campaigns put back, so a campaign may warm a
// new one — a cost per campaign that a normal build never pays. A fresh
// vector per input (1/run) or per four runs (0.25) fails either bound.
func sourceBound() float64 {
	if raceEnabled {
		return 0.1
	}
	return 0.01
}

// allocsPerRun returns run's allocations per campaign run, after a call
// that warms the pooled worker state; every call must run all runs
// scenarios without an error.
func allocsPerRun(t *testing.T, runs int64, run func() (*kset.CampaignStats, error)) float64 {
	t.Helper()
	check := func() {
		stats, err := run()
		if err != nil {
			t.Fatal(err)
		}
		if stats.Runs != runs || stats.Errors != 0 {
			t.Fatalf("ran %d/%d with %d errors", stats.Runs, runs, stats.Errors)
		}
	}
	check()
	return testing.AllocsPerRun(3, check) / float64(runs)
}
