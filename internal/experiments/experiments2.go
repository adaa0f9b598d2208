package experiments

import (
	"context"
	"fmt"

	"kset"
	"kset/internal/adversary"
	"kset/internal/async"
	"kset/internal/condition"
	"kset/internal/core"
	"kset/internal/stats"
	"kset/internal/vector"
)

// runE6 measures the introduction's "dividing power" claim on a sweep
// grid: for a fixed condition degree d, moving from consensus to k-set
// agreement divides the condition-based round complexity by k, realizing
// the pairs (k, ⌊(d+ℓ−1)/k⌋+1). One grid point per k.
func runE6(cfg Params) Report {
	r := begin("E6", cfg)
	n, m, t, d, l := cfg["n"], cfg["m"], cfg["t"], cfg["d"], cfg["l"]
	input := denseVec(n, m, n)

	points := make([]kset.SweepPoint, 0, cfg["kmax"])
	for k := 1; k <= cfg["kmax"]; k++ {
		p := core.Params{N: n, T: t, K: k, D: d, L: l}
		c, err := condition.NewMax(n, m, p.X(), l)
		if err != nil {
			return r.Fail(err)
		}
		points = append(points, kset.SweepPoint{
			Key:     fmt.Sprintf("k=%d", k),
			Options: []kset.Option{kset.WithParams(p), kset.WithCondition(c)},
			Source:  kset.CrossFailures(kset.Inputs(input), adversary.InitialLast(n, p.X()+1)),
		})
	}
	results, err := kset.RunSweep(context.Background(), points, kset.VerifyRuns())
	if err != nil {
		return r.Fail(err)
	}

	sweep := r.Section("dividing")
	sweep.Note("n=%d m=%d t=%d d=%d ℓ=%d; input ∈ C, t−d+1 initial crashes (RCond-forcing)", n, m, t, d, l)
	tbl := sweep.AddTable("k", "RCond", "RMax", "measured")
	curve := sweep.AddSeries("measured-by-k")
	for _, res := range results {
		p := res.Params
		measured := res.Stats.MaxDecisionRound()
		r.Check(res.Stats.Errors == 0 && res.Stats.Violations == 0 && measured == p.RCond())
		tbl.Row(fmt.Sprint(p.K), fmt.Sprint(p.RCond()), fmt.Sprint(p.RMax()), fmt.Sprint(measured))
		curve.Add(float64(p.K), float64(measured))
	}
	sweep.Note("(shape: measured rounds meet ⌊(d+ℓ−1)/k⌋+1 exactly and divide by k;")
	sweep.Note(" k=1 recovers the d+1 consensus bound of [22])")
	return r
}

// runE7 measures the early-deciding extension (Section 8) on a sweep
// grid: one base point expanded along the f-axis by
// SweepFailures and along the algorithm axis by SweepExecutors; decision
// rounds as a function of the number of actual crashes f.
func runE7(cfg Params) Report {
	r := begin("E7", cfg)
	n, m, t, k := cfg["n"], cfg["m"], cfg["t"], cfg["k"]
	p := core.Params{N: n, T: t, K: k, D: t, L: 1} // d=t: condition-free regime
	c, err := condition.NewMax(n, m, p.X(), p.L)
	if err != nil {
		return r.Fail(err)
	}
	input := sparseVec(n, m)

	base := kset.SweepPoint{
		Options: []kset.Option{kset.WithParams(p), kset.WithCondition(c)},
		Source:  kset.Inputs(input),
	}
	points := kset.SweepExecutors(
		kset.SweepFailures(base, kset.InitialCrashFamily(n, t)),
		kset.Figure2, kset.EarlyDeciding)
	results, err := kset.RunSweep(context.Background(), points, kset.VerifyRuns())
	if err != nil {
		return r.Fail(err)
	}
	rounds := make(map[string]int, len(results))
	for _, res := range results {
		if !r.Check(res.Stats.Errors == 0 && res.Stats.Violations == 0) {
			return r.Failf("%s: %d errors, %d violations", res.Key, res.Stats.Errors, res.Stats.Violations)
		}
		rounds[res.Key] = res.Stats.MaxDecisionRound()
	}

	early := r.Section("early-decision")
	early.Note("n=%d t=%d k=%d, input ∉ help range (d=t): plain bound %d", n, t, k, p.RMax())
	tbl := early.AddTable("f", "early measured", "early bound", "plain measured")
	curve := early.AddSeries("early-rounds-by-f")
	for f := 0; f <= t; f++ {
		ev := rounds[fmt.Sprintf("early/initial=%d", f)]
		pv := rounds[fmt.Sprintf("figure2/initial=%d", f)]
		bound := f/k + 3
		if b := core.PredictRounds(p, c.Contains(input), adversary.InitialLast(n, f)); b < bound {
			bound = b
		}
		r.Check(ev <= bound && ev <= pv)
		tbl.Row(fmt.Sprint(f), fmt.Sprint(ev), fmt.Sprintf("≤%d", bound), fmt.Sprint(pv))
		curve.Add(float64(f), float64(ev))
	}
	early.Note("(shape: early decision tracks f, not t; the plain algorithm pays the worst case)")
	return r
}

// runE8 compares the condition-based algorithm against the classical
// baseline (the abstract's special cases) with one labeled campaign per
// degree: the per-label breakdown of the campaign's accumulator carries
// each arm's rounds and message counts.
func runE8(cfg Params) Report {
	r := begin("E8", cfg)
	n, m, t, k := cfg["n"], cfg["m"], cfg["t"], cfg["k"]
	inC := denseVec(n, m, n-2) // dense enough for every d ≥ 1 (x ≤ t−1)
	outC := sparseVec(n, m)    // top value once: outside C for d < t
	ctx := context.Background()

	sec := r.Section("baseline")
	sec.Note("n=%d m=%d t=%d k=%d, failure-free; msgs = messages delivered", n, m, t, k)
	tbl := sec.AddTable("d", "cond (I∈C)", "msgs", "cond (I∉C)", "classical", "msgs")
	for _, d := range []int{1, 2, 4, 6} {
		if d > t {
			continue
		}
		p := core.Params{N: n, T: t, K: k, D: d, L: 1}
		c, err := condition.NewMax(n, m, p.X(), p.L)
		if err != nil {
			return r.Fail(err)
		}
		if d < t && (!c.Contains(inC) || c.Contains(outC)) {
			return r.Failf("d=%d: input misclassified", d)
		}
		sys, err := kset.New(kset.WithParams(p), kset.WithCondition(c))
		if err != nil {
			return r.Fail(err)
		}
		scs := []kset.Scenario{
			{Label: "cond-inC", Input: inC},
			{Label: "cond-outC", Input: outC},
			{Label: "classical", Input: inC, Executor: kset.Classical},
		}
		st, err := sys.RunCampaign(ctx, scs, kset.VerifyRuns())
		if err != nil {
			return r.Fail(err)
		}
		if st.Errors > 0 || st.Violations > 0 {
			return r.Failf("d=%d: %d errors, %d violations", d, st.Errors, st.Violations)
		}
		group := func(label string) *stats.Group { return st.Metrics.ByLabel[label] }
		condIn, condOut, classical := group("cond-inC"), group("cond-outC"), group("classical")
		// Shape: with I∈C the condition algorithm never loses to the
		// classical one — in rounds or in messages — and wins strictly
		// when the classical bound exceeds two rounds.
		r.Check(condIn.Rounds.Max <= classical.Rounds.Max && condIn.Messages <= classical.Messages)
		tbl.Row(fmt.Sprint(d),
			fmt.Sprint(condIn.Rounds.Max), fmt.Sprint(condIn.Messages),
			fmt.Sprint(condOut.Rounds.Max),
			fmt.Sprint(classical.Rounds.Max), fmt.Sprint(classical.Messages))
	}
	sec.Note("(shape: I∈C decides in 2 rounds — and ~2n² messages — at every d;")
	sec.Note(" I∉C pays ⌊t/k⌋+1 like the baseline; at d=t, ℓ=1 the bounds collapse)")
	return r
}

// runE9 searches adversaries for the latest reachable decision round
// (tightness of the bounds) via a labeled campaign over the chain grid,
// and model-checks a small configuration exhaustively — every input
// against every pattern of adversary.ExhaustiveFamily, each replayed with
// RunScenario — feeding a results-plane accumulator.
func runE9(cfg Params) Report {
	r := begin("E9", cfg)
	n, m, t, k, d := cfg["n"], cfg["m"], cfg["t"], cfg["k"], cfg["d"]
	p := core.Params{N: n, T: t, K: k, D: d, L: 1}
	c, err := condition.NewMax(n, m, p.X(), p.L)
	if err != nil {
		return r.Fail(err)
	}
	outC := sparseVec(n, m)
	sys, err := kset.New(kset.WithParams(p), kset.WithCondition(c))
	if err != nil {
		return r.Fail(err)
	}

	// Tightness: out-of-condition inputs under chain adversaries reach
	// ⌊t/k⌋+1 exactly (the classical lower bound [7] applies).
	var scs []kset.Scenario
	fps := make(map[string]kset.FailurePattern)
	for c1 := 0; c1 <= t; c1++ {
		for per := 0; per <= k+1; per++ {
			label := fmt.Sprintf("c1=%d,per=%d", c1, per)
			fp := adversary.Stagger(n, t, c1, per, p.RMax())
			fps[label] = fp
			scs = append(scs, kset.Scenario{Label: label, Input: outC, FP: fp})
		}
	}
	st, err := sys.RunCampaign(context.Background(), scs, kset.VerifyRuns())
	if err != nil {
		return r.Fail(err)
	}
	worst := st.MaxDecisionRound()
	worstLabel := ""
	for _, label := range st.Metrics.LabelKeys() {
		if st.Metrics.ByLabel[label].Rounds.Max == int64(worst) {
			worstLabel = label
			break
		}
	}
	tight := r.Section("tightness")
	tight.Note("n=%d t=%d k=%d d=%d, I∉C: latest decision over %d chain adversaries = %d (bound %d)",
		n, t, k, d, len(scs), worst, p.RMax())
	worstFP := fps[worstLabel]
	tight.Note("a worst adversary (%s): %d crashes, %d initial",
		worstLabel, worstFP.NumCrashes(), worstFP.InitialCrashes())
	r.Check(st.Errors == 0 && st.Violations == 0 && worst == p.RMax())

	// Exhaustive safety: every pattern × every input on a small instance,
	// folded into one accumulator through the same observation pipeline.
	sp := core.Params{N: 4, T: 2, K: 2, D: 1, L: 1}
	sc, err := condition.NewMax(sp.N, 2, sp.X(), sp.L)
	if err != nil {
		return r.Fail(err)
	}
	fam, err := adversary.ExhaustiveFamily(sp.N, sp.T, sp.RMax())
	if err != nil {
		return r.Fail(err)
	}
	ssys, err := kset.New(kset.WithParams(sp), kset.WithCondition(sc))
	if err != nil {
		return r.Fail(err)
	}
	patterns := fam.Patterns()
	acc := stats.NewAccumulator()
	ctx := context.Background()
	vector.ForEach(sp.N, 2, func(in vector.Vector) bool {
		input := in.Clone()
		inCond := sc.Contains(input)
		for _, fp := range patterns {
			res, err := ssys.RunScenario(ctx, kset.Scenario{Input: input, FP: fp})
			if err != nil {
				acc.Observe(stats.Observation{Err: true})
				continue
			}
			o := core.Observe(res)
			o.InCondition = inCond
			v := core.Verify(input, fp, res, sp.K)
			o.Verified = true
			o.Violation = !v.OK() || v.MaxRound > core.PredictRounds(sp, inCond, fp)
			acc.Observe(o)
		}
		return true
	})
	exh := r.Section("exhaustive")
	exh.Note("exhaustive model check (n=%d t=%d k=%d d=%d, m=2): %d executions, %d violations, max round %d",
		sp.N, sp.T, sp.K, sp.D, acc.Runs, acc.Violations, acc.MaxDecisionRound())
	r.Check(acc.Errors == 0 && acc.Violations == 0)
	return r
}

// runE10 exercises the Section-4 asynchronous algorithm as seeded runs of
// the Asynchronous executor: termination with inputs in the condition
// under up to x crashes, safety always, and the expected blocking outside
// the condition.
func runE10(cfg Params) Report {
	r := begin("E10", cfg)
	n, m, x, l := cfg["n"], cfg["m"], cfg["x"], cfg["l"]
	c, err := condition.NewMax(n, m, x, l)
	if err != nil {
		return r.Fail(err)
	}
	// An async instance is parameterized by x = t−d and ℓ alone; any
	// Params with that X validates (k = ℓ keeps the ranges legal).
	p := core.Params{N: n, T: x, K: l, D: 0, L: l}
	inC := denseVec(n, m, n-x)
	if !c.Contains(inC) {
		return r.Failf("input misclassified")
	}
	ctx := context.Background()

	sec := r.Section("async")
	sec.Note("n=%d m=%d x=%d ℓ=%d (max_ℓ condition)", n, m, x, l)
	tbl := sec.AddTable("scenario", "decided", "values", "blocked")

	sys, err := kset.New(kset.WithParams(p), kset.WithCondition(c),
		kset.WithExecutor(kset.Asynchronous))
	if err != nil {
		return r.Fail(err)
	}
	scs := []kset.Scenario{
		{Label: "I∈C, no crashes", Input: inC, Seed: 11},
		{Label: "I∈C, x silent processes", Input: inC, Seed: 11,
			AsyncCrashes: map[int]kset.CrashPoint{n - 1: kset.CrashBeforeWrite, n: kset.CrashBeforeWrite}},
		{Label: "I∈C, mixed crashes", Input: inC, Seed: 11,
			AsyncCrashes: map[int]kset.CrashPoint{2: kset.CrashAfterWrite, n: kset.CrashBeforeWrite}},
	}
	for _, sc := range scs {
		res, err := sys.RunScenario(ctx, sc)
		if err != nil {
			return r.Fail(err)
		}
		decided, crashed := len(res.Decisions), len(res.Crashed)
		blocked := n - decided - crashed
		distinct := res.DistinctDecisions()
		r.Check(blocked == 0 && distinct.Len() <= l && distinct.SubsetOf(sc.Input.Vals()))
		tbl.Row(sc.Label, fmt.Sprint(decided), distinct.String(), fmt.Sprint(blocked))
	}

	// The same algorithm over the message-passing substrate (ABD quorum
	// registers, x < n/2): identical guarantees with no shared memory at
	// all.
	var mpOut async.Outcome
	if err := async.NewRunner().RunInto(async.Config{X: x, Cond: c, Input: inC, Seed: 19, Memory: async.MessagePassingMemory}, &mpOut); err != nil {
		return r.Fail(err)
	}
	mpBlocked := n - mpOut.DecidedCount()
	r.Check(mpBlocked == 0 && mpOut.DistinctDecisions().Len() <= l)
	tbl.Row("I∈C, message passing", fmt.Sprint(mpOut.DecidedCount()),
		mpOut.DistinctDecisions().String(), fmt.Sprint(mpBlocked))

	// Blocking face: an explicit condition none of whose members matches
	// any view of the input.
	blocker, err := condition.NewExplicit(4, 4, 1)
	if err != nil {
		return r.Fail(err)
	}
	if err := blocker.Add(vector.OfInts(1, 1, 2, 3), vector.SetOf(1)); err != nil {
		return r.Fail(err)
	}
	bp := core.Params{N: 4, T: 1, K: 1, D: 0, L: 1} // x = 1
	bSys, err := kset.New(kset.WithParams(bp), kset.WithCondition(blocker),
		kset.WithExecutor(kset.Asynchronous), kset.WithAsyncBudget(8))
	if err != nil {
		return r.Fail(err)
	}
	bRes, err := bSys.RunScenario(ctx, kset.Scenario{Input: vector.OfInts(2, 2, 3, 1), Seed: 5})
	if err != nil {
		return r.Fail(err)
	}
	r.Check(len(bRes.Decisions) == 0)
	tbl.Row("I∉C, unmatchable views", fmt.Sprint(len(bRes.Decisions)),
		bRes.DistinctDecisions().String(), fmt.Sprint(4-len(bRes.Decisions)))
	sec.Note("(the asynchronous algorithm terminates iff the condition can still hold —")
	sec.Note(" the executable face of the ℓ ≤ x impossibility and of Theorems 8/9)")
	return r
}
