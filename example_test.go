package kset_test

import (
	"context"
	"fmt"
	"log"

	"kset"
)

// ExampleNew constructs a reusable System: parameters, condition and
// executor are validated once, so Run performs no per-call validation.
func ExampleNew() {
	p := kset.Params{N: 6, T: 3, K: 2, D: 1, L: 1}
	cond, err := kset.NewMaxCondition(p.N, 4, p.X(), p.L) // C ∈ S^d_t[ℓ], x = t−d
	if err != nil {
		log.Fatal(err)
	}
	sys, err := kset.New(kset.WithParams(p), kset.WithCondition(cond))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(sys.Executor().Name(), "n =", sys.Params().N, "x =", sys.Params().X())
	// Output: figure2 n = 6 x = 2
}

// ExampleSystem_Run executes one agreement run and checks it against the
// k-set agreement specification: six processes propose an input of the
// condition, two crash before they send anything, and the rest decide
// within the condition-based bound.
func ExampleSystem_Run() {
	p := kset.Params{N: 6, T: 3, K: 2, D: 1, L: 1}
	cond, _ := kset.NewMaxCondition(p.N, 4, p.X(), p.L)
	sys, _ := kset.New(kset.WithParams(p), kset.WithCondition(cond))

	input := kset.VectorOf(4, 4, 4, 2, 1, 2)
	fp := kset.InitialCrashes(p.N, 2)
	res, err := sys.Run(context.Background(), input, fp)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("input in the condition:", cond.Contains(input))
	fmt.Println("decisions:", res.Decisions)
	fmt.Println("decided in round", res.MaxDecisionRound(), "of at most", p.RMax())
	fmt.Println("specification:", kset.Verify(input, fp, res, p.K))
	// Output:
	// input in the condition: true
	// decisions: map[1:4 2:4 3:4 4:4]
	// decided in round 2 of at most 2
	// specification: ok (decided {4} by round 2)
}

// ExampleCampaign submits a handful of scenarios to a campaign and reads
// the deterministic aggregate: the stats are identical for a fixed
// scenario multiset regardless of worker count or scheduling.
func ExampleCampaign() {
	p := kset.Params{N: 6, T: 3, K: 2, D: 1, L: 1}
	cond, _ := kset.NewMaxCondition(p.N, 4, p.X(), p.L)
	sys, _ := kset.New(kset.WithParams(p), kset.WithCondition(cond))

	var scs []kset.Scenario
	for f := 0; f <= p.T; f++ {
		scs = append(scs, kset.Scenario{
			Input: kset.VectorOf(4, 4, 4, 2, 1, 2),
			FP:    kset.InitialCrashes(p.N, f),
		})
	}
	camp := sys.NewCampaign(context.Background(), kset.VerifyRuns())
	if err := camp.SubmitAll(scs); err != nil {
		log.Fatal(err)
	}
	stats, err := camp.Wait()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("runs %d, violations %d, hit rate %.2f\n",
		stats.Runs, stats.Violations, stats.HitRate())
	// Output: runs 4, violations 0, hit rate 1.00
}

// ExampleCollectInto attaches a custom results-plane accumulator to a
// campaign: every run's Observation is folded in worker-local shards and
// joined deterministically, so the breakdowns (here: per executor) are
// identical for any worker count.
func ExampleCollectInto() {
	p := kset.Params{N: 6, T: 3, K: 2, D: 1, L: 1}
	cond, _ := kset.NewMaxCondition(p.N, 4, p.X(), p.L)
	sys, _ := kset.New(kset.WithParams(p), kset.WithCondition(cond))

	var scenarios []kset.Scenario
	for _, ex := range []kset.Executor{kset.Figure2, kset.Classical} {
		for f := 0; f <= p.T; f++ {
			scenarios = append(scenarios, kset.Scenario{
				Input:    kset.VectorOf(4, 4, 4, 2, 1, 2),
				FP:       kset.InitialCrashes(p.N, f),
				Executor: ex,
			})
		}
	}
	acc := kset.NewAccumulator()
	if _, err := sys.RunCampaign(context.Background(), scenarios, kset.CollectInto(acc)); err != nil {
		log.Fatal(err)
	}
	for _, name := range acc.ExecutorKeys() {
		g := acc.ByExecutor[name]
		fmt.Printf("%s: %d runs, max round %d\n", name, g.Runs, g.Rounds.Max)
	}
	// Output:
	// classical: 4 runs, max round 2
	// figure2: 4 runs, max round 2
}

// ExampleConditionSize evaluates the Theorem-13 closed form: the size of
// the max_ℓ-generated condition, far beyond anything enumerable.
func ExampleConditionSize() {
	nb, err := kset.ConditionSize(30, 8, 10, 2) // n=30, m=8, x=10, ℓ=2
	if err != nil {
		log.Fatal(err)
	}
	frac, _ := kset.ConditionFraction(30, 8, 10, 2)
	fmt.Println("NB(10,2) =", nb)
	fmt.Printf("fraction of all 8^30 inputs: %.4f\n", frac)
	// Output:
	// NB(10,2) = 140742119606429162648174104
	// fraction of all 8^30 inputs: 0.1137
}

// ExampleExhaustiveInputs streams every vector of {1..m}^n — here all
// 3^2 = 9 of them — without materializing the set.
func ExampleExhaustiveInputs() {
	src := kset.ExhaustiveInputs(2, 3)
	size, _ := src.Size()
	fmt.Println("size:", size)
	src.ForEach(func(sc kset.Scenario) bool {
		fmt.Print(sc.Input, " ")
		return true
	})
	fmt.Println()
	// Output:
	// size: 9
	// [1 1] [1 2] [1 3] [2 1] [2 2] [2 3] [3 1] [3 2] [3 3]
}

// ExampleConditionMembers streams a condition's members; the advertised
// size matches the Theorem-13 closed form NB(x,ℓ).
func ExampleConditionMembers() {
	cond, _ := kset.NewMaxCondition(4, 2, 2, 1) // n=4, m=2, x=2, ℓ=1
	src := kset.ConditionMembers(cond)
	size, _ := src.Size()
	nb, _ := kset.ConditionSize(4, 2, 2, 1)
	fmt.Println("size:", size, "NB:", nb)
	src.ForEach(func(sc kset.Scenario) bool {
		fmt.Print(sc.Input, " ")
		return true
	})
	fmt.Println()
	// Output:
	// size: 6 NB: 6
	// [1 1 1 1] [1 2 2 2] [2 1 2 2] [2 2 1 2] [2 2 2 1] [2 2 2 2]
}

// ExampleExplicitCondition builds a hand-built explicit condition and
// drives a campaign over its own members: every membership probe and the
// member stream ride its hashed O(1) index. New holds a clone, so the
// condition handed to it may keep growing without reaching the System.
func ExampleExplicitCondition() {
	p := kset.Params{N: 4, T: 2, K: 1, D: 1, L: 1}
	ec, err := kset.NewExplicitCondition(p.N, 3, p.L)
	if err != nil {
		log.Fatal(err)
	}
	// Three codewords, each recognizing its majority value (x = t−d = 1:
	// every recognized value occupies > 1 entry).
	for _, row := range []struct {
		in kset.Vector
		h  kset.Value
	}{
		{kset.VectorOf(1, 1, 1, 2), 1},
		{kset.VectorOf(2, 2, 3, 2), 2},
		{kset.VectorOf(3, 1, 3, 3), 3},
	} {
		if err := ec.Add(row.in, kset.SetOf(row.h)); err != nil {
			log.Fatal(err)
		}
	}

	sys, err := kset.New(kset.WithParams(p), kset.WithCondition(ec))
	if err != nil {
		log.Fatal(err)
	}
	stats, err := sys.RunSource(context.Background(), kset.ConditionMembers(ec))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("members:", ec.Size(), "runs:", stats.Runs, "hits:", stats.ConditionHits)
	fmt.Println("all decided by round", len(stats.DecisionRounds)-1)
	// Output:
	// members: 3 runs: 3 hits: 3
	// all decided by round 2
}

// ExampleCheckLegal designs a condition for a known workload: five
// replicas whose votes take a handful of known patterns, each with the
// value it should decide. CheckLegal finds the largest x for which that
// set, with that decoding, is (x,1)-legal; a System with d = t−x then
// decides every pattern in two rounds where the classical bound is
// ⌊t/k⌋+1 = 4, despite a crash.
func ExampleCheckLegal() {
	p := kset.Params{N: 5, T: 3, K: 1, L: 1}
	cond, _ := kset.NewExplicitCondition(p.N, 4, p.L)
	patterns := []struct {
		in      kset.Vector
		decided kset.Value
	}{
		{kset.VectorOf(1, 1, 1, 1, 1), 1},
		{kset.VectorOf(1, 1, 1, 1, 2), 1},
		{kset.VectorOf(2, 2, 2, 2, 1), 2},
		{kset.VectorOf(3, 3, 3, 3, 3), 3},
		{kset.VectorOf(3, 3, 3, 4, 4), 3},
	}
	for _, pt := range patterns {
		if err := cond.Add(pt.in, kset.SetOf(pt.decided)); err != nil {
			log.Fatal(err)
		}
	}
	best := -1
	for x := 0; x < p.N; x++ {
		if v := kset.CheckLegal(cond, x, 0); v != nil {
			fmt.Printf("x=%d: %v\n", x, v)
			continue
		}
		best = x
	}
	fmt.Printf("(x,1)-legal up to x = %d\n", best)

	p.D = p.T - best
	sys, err := kset.New(kset.WithParams(p), kset.WithCondition(cond))
	if err != nil {
		log.Fatal(err)
	}
	fp := kset.InitialCrashes(p.N, 1)
	for _, pt := range patterns {
		res, err := sys.Run(context.Background(), pt.in, fp)
		if err != nil {
			log.Fatal(err)
		}
		v := kset.Verify(pt.in, fp, res, p.K)
		fmt.Printf("%v: %v, designed %d\n", pt.in, v, pt.decided)
	}
	// Output:
	// x=3: (x,ℓ)-density violated: Σ_{v∈h(I)}#_v(I) = 3 ≤ x = 3 for I=[3 3 3 4 4], h={3}
	// x=4: (x,ℓ)-density violated: Σ_{v∈h(I)}#_v(I) = 4 ≤ x = 4 for I=[1 1 1 1 2], h={1}
	// (x,1)-legal up to x = 2
	// [1 1 1 1 1]: ok (decided {1} by round 2), designed 1
	// [1 1 1 1 2]: ok (decided {1} by round 2), designed 1
	// [2 2 2 2 1]: ok (decided {2} by round 2), designed 2
	// [3 3 3 3 3]: ok (decided {3} by round 2), designed 3
	// [3 3 3 4 4]: ok (decided {3} by round 2), designed 3
}

// ExampleRandomInputs draws seeded random inputs: the same seed yields
// the same stream, every time it is iterated.
func ExampleRandomInputs() {
	first := ""
	kset.RandomInputs(7, 5, 4, 3).ForEach(func(sc kset.Scenario) bool {
		first += sc.Input.String() + " "
		return true
	})
	again := ""
	kset.RandomInputs(7, 5, 4, 3).ForEach(func(sc kset.Scenario) bool {
		again += sc.Input.String() + " "
		return true
	})
	fmt.Println("deterministic:", first == again)
	// Output: deterministic: true
}

// ExampleCrossFailures crosses an input stream with explicit failure
// patterns: every input is run under every pattern.
func ExampleCrossFailures() {
	src := kset.CrossFailures(
		kset.Inputs(kset.VectorOf(1, 1, 1), kset.VectorOf(2, 1, 2)),
		kset.NoFailures(), kset.InitialCrashes(3, 1),
	)
	size, _ := src.Size()
	fmt.Println("2 inputs × 2 patterns =", size, "scenarios")
	// Output: 2 inputs × 2 patterns = 4 scenarios
}

// ExampleFailureSchedules crosses an input stream with a deterministic
// failure family — here the f = 0..2 initial-crash sweep.
func ExampleFailureSchedules() {
	fam := kset.InitialCrashFamily(6, 2)
	src := kset.FailureSchedules(kset.Inputs(kset.VectorOf(4, 4, 4, 2, 1, 2)), fam)
	size, _ := src.Size()
	fmt.Println(fam.Name(), "family of", fam.Size(), "→", size, "scenarios")
	src.ForEach(func(sc kset.Scenario) bool {
		fmt.Println("crashes:", len(sc.FP.Crashes))
		return true
	})
	// Output:
	// initial family of 3 → 3 scenarios
	// crashes: 0
	// crashes: 1
	// crashes: 2
}

// ExampleSystem_RunSource streams a generated scenario space — every
// input of {1..3}^5 under two adversaries — through one campaign.
func ExampleSystem_RunSource() {
	p := kset.Params{N: 5, T: 2, K: 2, D: 1, L: 1}
	cond, _ := kset.NewMaxCondition(p.N, 3, p.X(), p.L)
	sys, _ := kset.New(kset.WithParams(p), kset.WithCondition(cond))

	src := kset.CrossFailures(kset.ExhaustiveInputs(p.N, 3),
		kset.NoFailures(), kset.InitialCrashes(p.N, p.T))
	stats, err := sys.RunSource(context.Background(), src, kset.VerifyRuns())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("runs %d (3^5 × 2), violations %d, hit rate %.3f\n",
		stats.Runs, stats.Violations, stats.HitRate())
	// Output: runs 486 (3^5 × 2), violations 0, hit rate 0.650
}

// ExampleRunSweep runs one campaign per parameter-grid point: the d-axis
// trade-off of Section 5 between condition size and decision round, in
// one call. The adversary crashes more than x = t−d processes before they
// speak, which forces the slow path: the decision round rises with d.
func ExampleRunSweep() {
	const n, m, t, k = 6, 4, 3, 1
	input := kset.VectorOf(4, 4, 4, 4, 2, 1)
	points, err := kset.SweepDegrees(
		kset.Params{N: n, T: t, K: k, L: 1}, m,
		func(p kset.Params, c *kset.MaxCondition) kset.ScenarioSource {
			// The forcing adversary: more than x = t−d initial crashes.
			return kset.CrossFailures(kset.Inputs(input),
				kset.InitialCrashes(n, min(p.X()+1, t)))
		})
	if err != nil {
		log.Fatal(err)
	}
	results, err := kset.RunSweep(context.Background(), points, kset.VerifyRuns())
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range results {
		nb, _ := kset.ConditionSize(n, m, r.Params.X(), r.Params.L)
		frac, _ := kset.ConditionFraction(n, m, r.Params.X(), r.Params.L)
		fmt.Printf("%s: |C| = %s (%.4f of all inputs), decided in round %d\n",
			r.Key, nb, frac, r.Stats.MaxDecisionRound())
	}
	// Output:
	// d=0: |C| = 250 (0.0610 of all inputs), decided in round 2
	// d=1: |C| = 970 (0.2368 of all inputs), decided in round 2
	// d=2: |C| = 2440 (0.5957 of all inputs), decided in round 3
}

// ExampleSweepExecutors crosses the f-axis of initial crashes with the
// algorithm axis (Section 8): n = 9, t = 8, k = 2 and d = t, so no
// condition helps. The classical baseline always takes ⌊t/k⌋+1 = 5
// rounds, and Figure 2 does once anyone crashes: both pay for the t
// crashes that could happen. The early-deciding variant pays for the f
// crashes that do happen.
func ExampleSweepExecutors() {
	p := kset.Params{N: 9, T: 8, K: 2, D: 8, L: 1}
	cond, _ := kset.NewMaxCondition(p.N, 4, p.X(), p.L)
	base := kset.SweepPoint{
		Options: []kset.Option{kset.WithParams(p), kset.WithCondition(cond)},
		Source:  kset.Inputs(kset.VectorOf(4, 3, 2, 1, 1, 2, 3, 1, 2)),
	}
	points := kset.SweepExecutors(
		kset.SweepFailures(base, kset.InitialCrashFamily(p.N, p.T)),
		kset.Figure2, kset.EarlyDeciding, kset.Classical)
	results, err := kset.RunSweep(context.Background(), points, kset.VerifyRuns())
	if err != nil {
		log.Fatal(err)
	}
	rounds := make(map[string]int) // keyed "early/initial=3"
	var messages, errs, violations int64
	for _, r := range results {
		rounds[r.Key] = r.Stats.MaxDecisionRound()
		messages += r.Stats.MessagesDelivered
		errs += r.Stats.Errors
		violations += r.Stats.Violations
	}
	fmt.Println("f  figure2  early  classical")
	for f := 0; f <= p.T; f++ {
		fmt.Printf("%d  %7d  %5d  %9d\n", f,
			rounds[fmt.Sprintf("figure2/initial=%d", f)],
			rounds[fmt.Sprintf("early/initial=%d", f)],
			rounds[fmt.Sprintf("classical/initial=%d", f)])
	}
	fmt.Printf("%d points, %d messages, %d errors, %d violations\n",
		len(results), messages, errs, violations)
	// Output:
	// f  figure2  early  classical
	// 0        2      2          5
	// 1        5      3          5
	// 2        5      3          5
	// 3        5      3          5
	// 4        5      4          5
	// 5        5      4          5
	// 6        5      5          5
	// 7        5      5          5
	// 8        5      5          5
	// 27 points, 5130 messages, 0 errors, 0 violations
}

// ExampleSweepFaults expands one grid point along the fault axis — a
// uniform-loss ramp — and runs one verified campaign per plan: the
// robustness curve of the algorithm under link faults the paper's
// reliable-link model excludes.
func ExampleSweepFaults() {
	p := kset.Params{N: 6, T: 3, K: 2, D: 1, L: 1}
	cond, _ := kset.NewMaxCondition(p.N, 4, p.X(), p.L)

	base := kset.SweepPoint{
		Options: []kset.Option{kset.WithParams(p), kset.WithCondition(cond)},
		Source:  kset.RandomInputs(7, p.N, 4, 50),
	}
	points := kset.SweepFaults(base, kset.LossSweepFamily(21, 3, 0.5))
	results, err := kset.RunSweep(context.Background(), points, kset.VerifyRuns())
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range results {
		lost := int64(0)
		if ft := r.Stats.Metrics.Faults; ft != nil {
			lost = ft.Lost.Sum
		}
		fmt.Printf("%s: runs %d, lost %d, violations %d, undecided runs %d\n",
			r.Key, r.Stats.Runs, lost, r.Stats.Violations, r.Stats.UndecidedRuns)
	}
	// Output:
	// loss=0: runs 50, lost 0, violations 0, undecided runs 0
	// loss=1: runs 50, lost 939, violations 1, undecided runs 0
	// loss=2: runs 50, lost 1775, violations 1, undecided runs 0
}

// Example_asynchronous runs the Section-4 algorithm through the
// Asynchronous executor, which takes its resilience from the params:
// x = t−d. On an input of the condition every correct process decides,
// although process 5 crashes before it writes and process 6 after. On an
// input no member of the condition explains, the algorithm must not
// decide: every process gives up after its scan budget.
func Example_asynchronous() {
	cond, _ := kset.NewMaxCondition(6, 4, 2, 2)
	sys, _ := kset.New(
		kset.WithParams(kset.Params{N: 6, T: 2, K: 2, D: 0, L: 2}),
		kset.WithCondition(cond),
		kset.WithExecutor(kset.Asynchronous))
	res, err := sys.RunScenario(context.Background(), kset.Scenario{
		Input: kset.VectorOf(4, 4, 4, 2, 1, 2),
		Seed:  42,
		AsyncCrashes: map[int]kset.CrashPoint{
			5: kset.CrashBeforeWrite,
			6: kset.CrashAfterWrite,
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("decisions:", res.Decisions, "distinct:", res.DistinctDecisions())

	strict, _ := kset.NewExplicitCondition(4, 4, 1)
	if err := strict.Add(kset.VectorOf(1, 1, 2, 3), kset.SetOf(1)); err != nil {
		log.Fatal(err)
	}
	blocked, _ := kset.New(
		kset.WithParams(kset.Params{N: 4, T: 1, K: 1, D: 0, L: 1}),
		kset.WithCondition(strict),
		kset.WithExecutor(kset.Asynchronous),
		kset.WithAsyncBudget(8))
	res, err = blocked.RunScenario(context.Background(), kset.Scenario{
		Input: kset.VectorOf(2, 2, 3, 1),
		Seed:  7,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("strict condition {[1 1 2 3]}, input [2 2 3 1]: %d of 4 undecided\n",
		4-len(res.Decisions))
	// Output:
	// decisions: map[1:4 2:4 3:4 4:4] distinct: {4}
	// strict condition {[1 1 2 3]}, input [2 2 3 1]: 4 of 4 undecided
}
