// Benchmarks: one per experiment/table of the paper (E1–E10, see
// DESIGN.md's index) plus micro-benchmarks of the kernels they rest on.
// Regenerate the full human-readable artifacts with cmd/experiments; these
// benchmarks time the computations that produce them.
package kset_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"kset"
	"kset/internal/adversary"
	"kset/internal/async"
	"kset/internal/condition"
	"kset/internal/core"
	"kset/internal/count"
	"kset/internal/faultnet"
	"kset/internal/lattice"
	"kset/internal/rounds"
	"kset/internal/vector"
)

// BenchmarkE1Lattice verifies one Figure-1 cell (all six theorem checks).
func BenchmarkE1Lattice(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := lattice.VerifyCell(4, 3, 1, 1)
		if !f.Verified() {
			b.Fatal("cell failed")
		}
	}
}

// BenchmarkE2Table1 proves and refutes the Table-1 condition's legality
// (Theorem 14: the refutation exhausts every (2,2)-recognizer).
func BenchmarkE2Table1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := lattice.Table1Condition()
		if condition.Check(c, 1, condition.CheckOptions{}) != nil {
			b.Fatal("not (1,1)-legal")
		}
		if _, ok := condition.ExistsRecognizer(lattice.WithL(c, 2), 2); ok {
			b.Fatal("unexpectedly (2,2)-legal")
		}
	}
}

// BenchmarkE3Count computes a full Theorem-13 size table at a scale far
// beyond enumeration (10^18-vector domain).
func BenchmarkE3Count(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for x := 0; x < 30; x += 5 {
			for l := 1; l <= 3; l++ {
				if _, err := count.NB(30, 8, x, l); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// BenchmarkE4Bounds runs the headline scenario: input in the condition,
// more than t−d staggered crashes, decision by RCond. Parameters are
// validated once, as System construction does; each run on the held
// Runner allocates the Result it returns.
func BenchmarkE4Bounds(b *testing.B) {
	p := core.Params{N: 8, T: 5, K: 2, D: 3, L: 1}
	c := condition.MustNewMax(p.N, 4, p.X(), p.L)
	input := vector.OfInts(4, 4, 4, 2, 1, 2, 3, 1)
	fp := adversary.Stagger(p.N, p.T, p.X()+1, p.K, p.RMax())
	if err := p.ValidateWith(c); err != nil {
		b.Fatal(err)
	}
	runner := core.NewRunner()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := runner.RunCond(p, c, input, fp, false, nil, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		if !core.Verify(input, fp, res, p.K).OK() {
			b.Fatal("spec violated")
		}
	}
}

// BenchmarkE5Tradeoff sweeps the degree d, timing one full size/rounds
// tradeoff series (counting + validation + protocol runs on one Runner).
func BenchmarkE5Tradeoff(b *testing.B) {
	n, m, t, k, l := 8, 4, 5, 2, 1
	input := vector.OfInts(4, 4, 4, 4, 4, 4, 4, 4)
	runner := core.NewRunner()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for d := 0; d <= t-l; d++ {
			p := core.Params{N: n, T: t, K: k, D: d, L: l}
			if _, err := count.NB(n, m, p.X(), l); err != nil {
				b.Fatal(err)
			}
			c := condition.MustNewMax(n, m, p.X(), l)
			fp := adversary.Stagger(n, t, p.X()+1, k, p.RMax())
			if err := p.ValidateWith(c); err != nil {
				b.Fatal(err)
			}
			if _, err := runner.RunCond(p, c, input, fp, false, nil, nil, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkE6Dividing runs the k-sweep that exhibits the ⌊(d+ℓ−1)/k⌋+1
// dividing behavior, validating and running each k on one Runner.
func BenchmarkE6Dividing(b *testing.B) {
	n, m, t, d := 12, 4, 9, 6
	input := vector.New(n)
	for i := range input {
		input[i] = 4
	}
	runner := core.NewRunner()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 1; k <= 4; k++ {
			p := core.Params{N: n, T: t, K: k, D: d, L: 1}
			c := condition.MustNewMax(n, m, p.X(), 1)
			fp := adversary.Stagger(n, t, p.X()+1, k, p.RMax())
			if err := p.ValidateWith(c); err != nil {
				b.Fatal(err)
			}
			if _, err := runner.RunCond(p, c, input, fp, false, nil, nil, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkE7Early times the early-deciding variant on a failure-free run,
// its best case (2–3 rounds instead of ⌊t/k⌋+1), on a held Runner.
func BenchmarkE7Early(b *testing.B) {
	p := core.Params{N: 8, T: 6, K: 1, D: 6, L: 1}
	c := condition.MustNewMax(p.N, 4, p.X(), p.L)
	input := vector.OfInts(4, 3, 2, 1, 1, 2, 3, 1)
	if err := p.ValidateWith(c); err != nil {
		b.Fatal(err)
	}
	runner := core.NewRunner()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runner.RunEarly(p, c, input, rounds.FailurePattern{}, false, nil, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE8Baseline contrasts per-run cost of the condition-based
// algorithm (2 rounds on in-condition inputs) and the classical baseline
// (⌊t/k⌋+1 rounds always), each on one held Runner.
func BenchmarkE8Baseline(b *testing.B) {
	n, m, t, k := 8, 4, 6, 2
	inC := vector.OfInts(4, 4, 4, 4, 4, 4, 3, 1)
	p := core.Params{N: n, T: t, K: k, D: 2, L: 1}
	c := condition.MustNewMax(n, m, p.X(), 1)
	if err := p.ValidateWith(c); err != nil {
		b.Fatal(err)
	}
	runner := core.NewRunner()
	b.Run("condition", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := runner.RunCond(p, c, inC, rounds.FailurePattern{}, false, nil, nil, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("classical", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := runner.RunClassical(n, t, k, inC, rounds.FailurePattern{}, false, nil, nil, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE9Adversary times an exhaustive safety sweep of one input over
// every ≤t-crash prefix-send pattern (the model-checking kernel): the
// patterns of adversary.ExhaustiveFamily, built before the timer starts,
// run on one held Runner into one recycled Result.
func BenchmarkE9Adversary(b *testing.B) {
	p := core.Params{N: 4, T: 2, K: 2, D: 1, L: 1}
	c := condition.MustNewMax(p.N, 2, p.X(), p.L)
	input := vector.OfInts(2, 2, 1, 1)
	if err := p.ValidateWith(c); err != nil {
		b.Fatal(err)
	}
	fam, err := adversary.ExhaustiveFamily(p.N, p.T, p.RMax())
	if err != nil {
		b.Fatal(err)
	}
	fps := fam.Patterns()
	runner := core.NewRunner()
	var res rounds.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, fp := range fps {
			out, err := runner.RunCond(p, c, input, fp, false, nil, nil, &res)
			if err != nil {
				b.Fatal(err)
			}
			if !core.Verify(input, fp, out, p.K).OK() {
				b.Fatal("spec violated")
			}
		}
	}
}

// BenchmarkE10Async times a full asynchronous execution (one virtual-
// scheduler run on a held Runner: snapshot scans, decode) with an
// in-condition input, into a fresh Outcome each iteration that outlives
// it, so it prices a run that allocates the Outcome it returns.
func BenchmarkE10Async(b *testing.B) {
	c := condition.MustNewMax(6, 4, 2, 2)
	input := vector.OfInts(4, 4, 4, 2, 1, 2)
	runner := async.NewRunner()
	var out *async.Outcome
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = new(async.Outcome)
		if err := runner.RunInto(async.Config{X: 2, Cond: c, Input: input, Seed: int64(i)}, out); err != nil {
			b.Fatal(err)
		}
		if len(out.Undecided) != 0 {
			b.Fatal("blocked")
		}
	}
}

// BenchmarkCampaignThroughput contrasts the two ways to drive N
// executions of the same workload through the public API: a reusable
// System's Run (construction-time validation, pooled workers, fresh
// Result per call) and a Campaign (per-worker engines, recycled Results,
// bounded fan-out). The campaign must win both ns/op and allocs/op.
func BenchmarkCampaignThroughput(b *testing.B) {
	p := kset.Params{N: 8, T: 5, K: 2, D: 3, L: 1}
	c, err := kset.NewMaxCondition(p.N, 4, p.X(), p.L)
	if err != nil {
		b.Fatal(err)
	}
	sys, err := kset.New(kset.WithParams(p), kset.WithCondition(c))
	if err != nil {
		b.Fatal(err)
	}

	// A fixed seeded mix of inputs and adversaries, cycled by every arm.
	rng := rand.New(rand.NewSource(11))
	base := make([]kset.Scenario, 256)
	for i := range base {
		input := make(kset.Vector, p.N)
		for j := range input {
			input[j] = kset.Value(1 + rng.Intn(4))
		}
		base[i] = kset.Scenario{Input: input, FP: adversary.Random(rng, p.N, p.T, p.RMax())}
	}
	ctx := context.Background()

	b.Run("system-run", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sc := &base[i%len(base)]
			if _, err := sys.Run(ctx, sc.Input, sc.FP); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("campaign", func(b *testing.B) {
		b.ReportAllocs()
		scs := make([]kset.Scenario, b.N)
		for i := range scs {
			scs[i] = base[i%len(base)]
		}
		b.ResetTimer()
		stats, err := sys.RunCampaign(ctx, scs)
		if err != nil {
			b.Fatal(err)
		}
		if stats.Runs != int64(b.N) || stats.Errors != 0 {
			b.Fatalf("campaign ran %d/%d with %d errors", stats.Runs, b.N, stats.Errors)
		}
	})
}

// BenchmarkCampaignFeeds prices the two ways scenarios reach campaign
// workers — pulled (the workers claim index ranges of a sized source: the
// slice arm through RunCampaign, the source arm through RunSource, one
// code path) and pushed (submit: NewCampaign + SubmitAll through the
// bounded queue) — on the same materialized scenarios, so only the feed
// differs, at 1, 2 and 4 workers (one System each) and at a run size where the feed
// is a visible share (n=8, ~2 µs) and one where it is not (n=48, ~10 µs).
// The random arm pulls failure-free RandomInputs instead — generated on the
// workers, and the one arm whose claims pay a seek (lo·n draws each), so it
// is where too many claims per worker show. ns/op is per run. Run it with
// -cpu 1,2: the second P is where the queue's hand-off costs, and this
// table chose claimLen's constant (CHANGES.md PR 18 has it).
func BenchmarkCampaignFeeds(b *testing.B) {
	ctx := context.Background()
	for _, shape := range []struct {
		p kset.Params
		m int
	}{
		{kset.Params{N: 8, T: 5, K: 2, D: 3, L: 1}, 4},
		{kset.Params{N: 48, T: 24, K: 4, D: 12, L: 1}, 8},
	} {
		p := shape.p
		c, err := kset.NewMaxCondition(p.N, shape.m, p.X(), p.L)
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(11))
		base := make([]kset.Scenario, 256)
		for i := range base {
			input := make(kset.Vector, p.N)
			for j := range input {
				input[j] = kset.Value(1 + rng.Intn(shape.m))
			}
			base[i] = kset.Scenario{Input: input, FP: adversary.Random(rng, p.N, p.T, p.RMax())}
		}
		feeds := []struct {
			name string
			run  func(sys *kset.System, scs []kset.Scenario) (*kset.CampaignStats, error)
		}{
			{"slice", func(sys *kset.System, scs []kset.Scenario) (*kset.CampaignStats, error) {
				return sys.RunCampaign(ctx, scs)
			}},
			{"source", func(sys *kset.System, scs []kset.Scenario) (*kset.CampaignStats, error) {
				return sys.RunSource(ctx, kset.ScenariosOf(scs...))
			}},
			{"submit", func(sys *kset.System, scs []kset.Scenario) (*kset.CampaignStats, error) {
				camp := sys.NewCampaign(ctx)
				if err := camp.SubmitAll(scs); err != nil {
					return nil, err
				}
				return camp.Wait()
			}},
			{"random", func(sys *kset.System, scs []kset.Scenario) (*kset.CampaignStats, error) {
				return sys.RunSource(ctx, kset.RandomInputs(11, p.N, shape.m, len(scs)))
			}},
		}
		for _, feed := range feeds {
			for _, workers := range []int{1, 2, 4} {
				feed := feed
				sys, err := kset.New(kset.WithParams(p), kset.WithCondition(c), kset.WithWorkers(workers))
				if err != nil {
					b.Fatal(err)
				}
				b.Run(fmt.Sprintf("n%d/%s/w%d", p.N, feed.name, workers), func(b *testing.B) {
					scs := make([]kset.Scenario, b.N)
					for i := range scs {
						scs[i] = base[i%len(base)]
					}
					b.ResetTimer()
					stats, err := feed.run(sys, scs)
					if err != nil {
						b.Fatal(err)
					}
					if stats.Runs != int64(b.N) || stats.Errors != 0 {
						b.Fatalf("campaign ran %d/%d with %d errors", stats.Runs, b.N, stats.Errors)
					}
				})
			}
		}
	}
}

// BenchmarkSweep times the generator-fed campaign path: the same system
// and scenario shape as BenchmarkCampaignThroughput, but nothing is
// materialized — a ScenarioSource (seeded random inputs crossed with a
// fixed failure-pattern family) streams through System.RunSource, whose
// workers pull index ranges and draw every input into their own storage.
// Each op is one fixed 4096-run campaign, 1024 inputs × 4 patterns: like
// BenchmarkCollectorPath's fixed batch, it amortizes campaign set-up, so
// allocs/op ≈ set-up + 4096 × the generator path's per-run cost, which
// the benchgate budget holds at zero.
func BenchmarkSweep(b *testing.B) {
	p := kset.Params{N: 8, T: 5, K: 2, D: 3, L: 1}
	c, err := kset.NewMaxCondition(p.N, 4, p.X(), p.L)
	if err != nil {
		b.Fatal(err)
	}
	sys, err := kset.New(kset.WithParams(p), kset.WithCondition(c))
	if err != nil {
		b.Fatal(err)
	}
	fam := kset.RandomCrashFamily(11, p.N, p.T, p.RMax(), 4)
	ctx := context.Background()

	b.Run("generator-fed", func(b *testing.B) {
		const inputs = 1024
		src := kset.FailureSchedules(kset.RandomInputs(11, p.N, 4, inputs), fam)
		want := int64(inputs * fam.Size())
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			stats, err := sys.RunSource(ctx, src)
			if err != nil {
				b.Fatal(err)
			}
			if stats.Runs != want || stats.Errors != 0 {
				b.Fatalf("sweep ran %d/%d with %d errors", stats.Runs, want, stats.Errors)
			}
		}
	})
}

// BenchmarkRunCheckpointed times a checkpointed generator-fed campaign:
// BenchmarkSweep's 4096-run stream (1024 seeded random inputs × 4
// patterns) on one worker, in 16 chunks of 256 runs, each checkpoint's
// stats built and handed to a sink that keeps nothing. allocs/op is the
// call's set-up plus, per chunk, one checkpoint accumulator and the
// claim's iterator closures: the benchgate budget fails if a chunk pays
// a campaign's set-up again.
func BenchmarkRunCheckpointed(b *testing.B) {
	p := kset.Params{N: 8, T: 5, K: 2, D: 3, L: 1}
	c, err := kset.NewMaxCondition(p.N, 4, p.X(), p.L)
	if err != nil {
		b.Fatal(err)
	}
	sys, err := kset.New(kset.WithParams(p), kset.WithCondition(c), kset.WithWorkers(1))
	if err != nil {
		b.Fatal(err)
	}
	const inputs, every = 1024, 256
	fam := kset.RandomCrashFamily(11, p.N, p.T, p.RMax(), 4)
	src := kset.FailureSchedules(kset.RandomInputs(11, p.N, 4, inputs), fam)
	want := int64(inputs * fam.Size())
	sink := func(kset.Checkpoint) error { return nil }
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		stats, err := sys.RunCheckpointed(ctx, src, nil, every, sink)
		if err != nil {
			b.Fatal(err)
		}
		if stats.Runs != want || stats.Errors != 0 {
			b.Fatalf("checkpointed run ran %d/%d with %d errors", stats.Runs, want, stats.Errors)
		}
	}
}

// BenchmarkCollectorPath times the full results-plane pipeline per
// iteration: one fixed 512-scenario stats-only campaign through
// RunCampaign with an additional CollectInto accumulator, so every run
// exercises Observation construction, two collector folds (histogram,
// summaries, per-executor/per-crash breakdowns) and the deterministic
// shard join. The fixed batch amortizes campaign setup, making allocs/op
// ≈ 512 × per-run cost: the benchgate budget holds the collector path at
// ≤ 1 alloc/run (engine steady state) plus fixed campaign overhead.
func BenchmarkCollectorPath(b *testing.B) {
	p := kset.Params{N: 8, T: 5, K: 2, D: 3, L: 1}
	c, err := kset.NewMaxCondition(p.N, 4, p.X(), p.L)
	if err != nil {
		b.Fatal(err)
	}
	sys, err := kset.New(kset.WithParams(p), kset.WithCondition(c))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	const batch = 512
	scs := make([]kset.Scenario, batch)
	for i := range scs {
		input := make(kset.Vector, p.N)
		for j := range input {
			input[j] = kset.Value(1 + rng.Intn(4))
		}
		scs[i] = kset.Scenario{Input: input, FP: adversary.Random(rng, p.N, p.T, p.RMax())}
	}
	acc := kset.NewAccumulator()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats, err := sys.RunCampaign(ctx, scs, kset.CollectInto(acc))
		if err != nil {
			b.Fatal(err)
		}
		if stats.Runs != batch || stats.Errors != 0 {
			b.Fatalf("campaign ran %d/%d with %d errors", stats.Runs, batch, stats.Errors)
		}
	}
}

// BenchmarkAsyncCampaign prices the asynchronous campaign hot path — the
// same fixed 512-scenario batch shape as BenchmarkCollectorPath, but
// through the Asynchronous executor: virtual-scheduler runs on pooled
// worker Runners with recycled Outcomes and dense crash-point scratch.
func BenchmarkAsyncCampaign(b *testing.B) {
	const n, m, x, l = 6, 4, 2, 2
	c, err := kset.NewMaxCondition(n, m, x, l)
	if err != nil {
		b.Fatal(err)
	}
	sys, err := kset.New(
		kset.WithParams(kset.Params{N: n, T: x, K: l, D: 0, L: l}),
		kset.WithCondition(c),
		kset.WithExecutor(kset.Asynchronous),
	)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	input := kset.VectorOf(4, 4, 4, 2, 1, 2)
	const batch = 512
	scs := make([]kset.Scenario, batch)
	for i := range scs {
		scs[i] = kset.Scenario{Input: input, Seed: rng.Int63()}
		if i%3 == 0 {
			scs[i].AsyncCrashes = map[int]kset.CrashPoint{1 + rng.Intn(n): kset.CrashAfterWrite}
		}
	}
	acc := kset.NewAccumulator()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats, err := sys.RunCampaign(ctx, scs, kset.CollectInto(acc))
		if err != nil {
			b.Fatal(err)
		}
		if stats.Runs != batch || stats.Errors != 0 || stats.UndecidedRuns != 0 {
			b.Fatalf("campaign ran %d/%d with %d errors, %d undecided",
				stats.Runs, batch, stats.Errors, stats.UndecidedRuns)
		}
	}
}

// --- micro-benchmarks of the kernels ---

// BenchmarkDecodeView times the Definition-4 view decoding that dominates
// the algorithm's first round (m^bottoms completions).
func BenchmarkDecodeView(b *testing.B) {
	c := condition.MustNewMax(10, 6, 3, 2)
	j := vector.OfInts(6, 6, 6, 6, 5, 2, 1, 0, 0, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := condition.DecodeView(c, j); !ok {
			b.Fatal("undecodable")
		}
	}
}

// BenchmarkPredicate times the analytic P(J) fast path of max conditions.
func BenchmarkPredicate(b *testing.B) {
	c := condition.MustNewMax(10, 6, 3, 2)
	j := vector.OfInts(6, 6, 6, 6, 5, 2, 1, 0, 0, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !condition.Predicate(c, j) {
			b.Fatal("P must hold")
		}
	}
}

// BenchmarkEngineRound times the synchronous kernel itself: one classical
// run over 64 processes on a held core.Runner with a recycled Result. The
// clean arm is failure-free (one distinct receive row per round, folded
// once); the crashes arm spreads t crashes over the rounds, each ending
// its delivery prefix at a different destination — one more distinct row,
// so one more Group.Step and fold, per crash: the shared row's worst case.
// The early arms run the early-deciding condition-based algorithm under the
// same two patterns: its sends reuse a per-process buffer and its flag
// bookkeeping folds with the row. The storm arm is a Figure-2 run with the crashes
// under a storm faultnet.Transport — every fault kind on every link, so
// *StateMsg copies are frozen in every flood round: a warm transport
// freezes into the copies its last run retired. The figure2-crashes arm is
// the Figure-2 algorithm at the benchmark's wide_sync shape (n=48, t=24,
// k=4, d=12) under the same kind of staggered mid-row crashes: the run the
// round loop's own cost is largest in.
func BenchmarkEngineRound(b *testing.B) {
	n, t, k := 64, 32, 4
	input := vector.New(n)
	for i := range input {
		input[i] = vector.Value(1 + i%8)
	}
	staggered := func(n, t, k int) rounds.FailurePattern {
		fp := rounds.FailurePattern{Crashes: make(map[rounds.ProcessID]rounds.Crash, t)}
		for i := 0; i < t; i++ {
			fp.Crashes[rounds.ProcessID(2*i+1)] = rounds.Crash{Round: 1 + i%(t/k+1), AfterSends: 1 + (7*i)%(n-1)}
		}
		return fp
	}
	crashes := staggered(n, t, k)
	p := core.Params{N: n, T: t, K: k, D: t / 2, L: 1}
	c := condition.MustNewMax(n, 8, p.X(), p.L)
	runner := core.NewRunner()
	var res rounds.Result
	classical := func(fp rounds.FailurePattern) error {
		_, err := runner.RunClassical(n, t, k, input, fp, false, nil, nil, &res)
		return err
	}
	early := func(fp rounds.FailurePattern) error {
		_, err := runner.RunEarly(p, c, input, fp, false, nil, nil, &res)
		return err
	}
	tr := &faultnet.Transport{}
	if err := tr.SetPlan(&faultnet.Plan{
		Seed:    3,
		Default: faultnet.LinkFaults{Loss: 0.1, DelayProb: 0.1, MaxDelay: 2, Duplicate: 0.05},
		Reorder: 0.1,
	}, n); err != nil {
		b.Fatal(err)
	}
	storm := func(fp rounds.FailurePattern) error {
		_, err := runner.RunCond(p, c, input, fp, false, tr, nil, &res)
		return err
	}
	wide := core.Params{N: 48, T: 24, K: 4, D: 12, L: 1}
	wideCond := condition.MustNewMax(wide.N, 8, wide.X(), wide.L)
	figure2 := func(fp rounds.FailurePattern) error {
		_, err := runner.RunCond(wide, wideCond, input[:wide.N], fp, false, nil, nil, &res)
		return err
	}
	for _, arm := range []struct {
		name string
		run  func(rounds.FailurePattern) error
		fp   rounds.FailurePattern
	}{
		{"clean", classical, rounds.FailurePattern{}},
		{"crashes", classical, crashes},
		{"early-clean", early, rounds.FailurePattern{}},
		{"early-crashes", early, crashes},
		{"storm", storm, crashes},
		{"figure2-crashes", figure2, staggered(wide.N, wide.T, wide.K)},
	} {
		b.Run(arm.name, func(b *testing.B) {
			run := func() {
				if err := arm.run(arm.fp); err != nil {
					b.Fatal(err)
				}
			}
			run() // size the runner and the Result's maps
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
		})
	}
}

// BenchmarkSnapshotScan prices a warm scan of the two in-process
// substrates: the scheduler's own register array, whose scan is the array
// itself, and the wait-free Afek-et-al construction's published epoch.
func BenchmarkSnapshotScan(b *testing.B) {
	for name, s := range map[string]async.Store{
		"registers": async.NewSnapshot(64),
		"waitfree":  async.NewAtomicSnapshot(64),
	} {
		for i := 0; i < 64; i++ {
			s.Write(i, vector.Value(i+1))
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if v := s.Scan(); len(v) != 64 {
					b.Fatal("bad scan")
				}
			}
		})
	}
}

// BenchmarkAsyncMemoryAblation runs the full asynchronous agreement on
// each substrate, on one held Runner per substrate, into a fresh Outcome
// each iteration that outlives it, as in BenchmarkE10Async.
func BenchmarkAsyncMemoryAblation(b *testing.B) {
	c := condition.MustNewMax(6, 4, 2, 2)
	input := vector.OfInts(4, 4, 4, 2, 1, 2)
	for name, kind := range map[string]async.MemoryKind{
		"mutex":      async.MutexMemory,
		"waitfree":   async.WaitFreeMemory,
		"msgpassing": async.MessagePassingMemory,
	} {
		b.Run(name, func(b *testing.B) {
			runner := async.NewRunner()
			var out *async.Outcome
			for i := 0; i < b.N; i++ {
				out = new(async.Outcome)
				cfg := async.Config{X: 2, Cond: c, Input: input, Seed: int64(i), Memory: kind}
				if err := runner.RunInto(cfg, out); err != nil {
					b.Fatal(err)
				}
				if len(out.Undecided) != 0 {
					b.Fatal("blocked")
				}
			}
		})
	}
}

// BenchmarkNBCounting times a single large Theorem-13 evaluation.
func BenchmarkNBCounting(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := count.NB(100, 16, 40, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckpointEncode prices one checkpoint emission — snapshot a
// populated accumulator, wrap it in the versioned envelope, encode to
// JSON — which is what a campaign pays every N runs when checkpointing.
// The budget (see scripts/benchgate.sh) keeps the cost bounded by the
// accumulator's breakdown cardinality, never by the runs it covers, so
// checkpointing cannot regress the 1-alloc/run campaign hot path.
func BenchmarkCheckpointEncode(b *testing.B) {
	acc := &kset.Accumulator{}
	for i := 0; i < 4096; i++ {
		acc.Observe(kset.Observation{
			Round: 1 + i%4, Messages: int64(20 + i%9), Crashes: i % 3,
			Decided: 6, InCondition: i%2 == 0, Verified: true,
			Executor: []string{"figure2", "early", "classical"}[i%3],
		})
	}
	cp := kset.Checkpoint{
		Version:  kset.CheckpointVersion,
		Cursor:   kset.Cursor{Lo: 0, Hi: 8192},
		RunsDone: 4096,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cp.Stats = acc.Snapshot()
		data, err := kset.EncodeCheckpoint(cp)
		if err != nil {
			b.Fatal(err)
		}
		_ = data
	}
}
