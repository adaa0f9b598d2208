package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"kset"
	"kset/internal/adversary"
	"kset/internal/condition"
	"kset/internal/core"
	"kset/internal/count"
	"kset/internal/lattice"
	"kset/internal/stats"
	"kset/internal/vector"
)

// denseVec builds a vector with the top value m on its first top entries
// and small varied values elsewhere: the canonical member of every
// max_ℓ-generated condition with x < top.
func denseVec(n, m, top int) vector.Vector {
	v := vector.New(n)
	for i := range v {
		switch {
		case i < top:
			v[i] = vector.Value(m)
		case m > 2:
			v[i] = vector.Value(1 + i%(m-1))
		default:
			v[i] = 1
		}
	}
	return v
}

// sparseVec builds a vector carrying the top value exactly once — outside
// every max_1-generated condition with x ≥ 1.
func sparseVec(n, m int) vector.Vector {
	v := denseVec(n, m, 1)
	return v
}

// fmtBool renders a verified boolean cell as "value(want expected)".
func fmtBool(got, want bool) string {
	if got == want {
		return fmt.Sprintf("%v", got)
	}
	return fmt.Sprintf("%v(want %v)", got, want)
}

// runE1 verifies and renders the Figure-1 inclusion lattice of the sets
// of (x,ℓ)-legal conditions over {1..m}^n.
func runE1(cfg Params) Report {
	r := begin("E1", cfg)
	n, m, xMax, lMax := cfg["n"], cfg["m"], cfg["xmax"], cfg["lmax"]
	facts, err := lattice.VerifyFigure1(n, m, xMax, lMax)
	if err != nil {
		return r.Fail(err)
	}
	diagram := r.Section("diagram")
	diagram.Note("domain {1..%d}^%d", m, n)
	diagram.NoteBlock(lattice.Render(facts))
	cells := r.Section("cells")
	tbl := cells.AddTable("cell", "thm4", "thm5", "thm6", "thm7", "C_all", "skipped")
	for _, f := range facts {
		r.Check(f.Verified())
		tbl.Row(
			fmt.Sprintf("(%d,%d)", f.X, f.L),
			fmt.Sprintf("%v", f.UpInclusion),
			fmt.Sprintf("%v", f.UpStrict),
			fmt.Sprintf("%v", f.RightInclusion),
			fmt.Sprintf("%v", f.RightStrict),
			fmtBool(f.AllLegal, f.AllExpected),
			strings.Join(f.Skipped, "; "),
		)
	}
	return r
}

// runE2 reproduces Table 1 and both Appendix-B diagonals (Theorems 14
// and 15).
func runE2(cfg Params) Report {
	r := begin("E2", cfg)

	c := lattice.Table1Condition()
	members := r.Section("table-1")
	members.Note("Table 1 condition (a,b,c,d = 1,2,3,4)")
	mtbl := members.AddTable("member", "vector", "h_1")
	for k, i := range c.Members() {
		mtbl.Row(fmt.Sprintf("I%d", k+1), fmt.Sprintf("%v", i), c.Recognize(i).String())
	}
	legal11 := condition.Check(c, 1, condition.CheckOptions{}) == nil
	_, legal22 := condition.ExistsRecognizer(lattice.WithL(c, 2), 2)
	members.Note("(1,1)-legal: %s", fmtBool(legal11, true))
	members.Note("(2,2)-legal: %s (Theorem 14)", fmtBool(legal22, false))
	r.Check(legal11 && !legal22)

	t15 := r.Section("theorem-15")
	t15.Note("family ((x+1,ℓ+1)-legal, not (x,ℓ)-legal)")
	ttbl := t15.AddTable("n", "x", "ℓ", "(x+1,ℓ+1)-legal", "(x,ℓ)-legal")
	for _, tc := range []struct{ n, x, l int }{{5, 3, 1}, {6, 4, 2}, {7, 4, 3}} {
		c15, err := lattice.Theorem15Condition(tc.n, tc.x, tc.l)
		if err != nil {
			ttbl.Row(fmt.Sprint(tc.n), fmt.Sprint(tc.x), fmt.Sprint(tc.l), "error: "+err.Error(), "")
			r.OK = false
			continue
		}
		up := condition.Check(c15, tc.x+1, condition.CheckOptions{}) == nil
		_, down := condition.ExistsRecognizer(lattice.WithL(c15, tc.l), tc.x)
		r.Check(up && !down)
		ttbl.Row(fmt.Sprint(tc.n), fmt.Sprint(tc.x), fmt.Sprint(tc.l),
			fmtBool(up, true), fmtBool(down, false))
	}
	return r
}

// runE3 tabulates NB(x,ℓ) (Theorems 3 and 13) and cross-checks the
// formulas against brute-force enumeration where affordable
// (bruteForceable).
func runE3(cfg Params) Report {
	r := begin("E3", cfg)
	n, m, lMax := cfg["n"], cfg["m"], cfg["lmax"]

	sizes := r.Section("sizes")
	sizes.Note("n=%d m=%d; NB(x,ℓ) and fraction of all %d^%d vectors", n, m, m, n)
	cols := []string{"x"}
	for l := 1; l <= lMax; l++ {
		cols = append(cols, fmt.Sprintf("NB(ℓ=%d)", l), fmt.Sprintf("frac(ℓ=%d)", l))
		sizes.AddSeries(fmt.Sprintf("fraction-l%d", l))
	}
	tbl := sizes.AddTable(cols...)
	check := bruteForceable(n, m)
	for x := 0; x < n; x++ {
		row := []string{fmt.Sprint(x)}
		for l := 1; l <= lMax; l++ {
			nb, err := count.NB(n, m, x, l)
			if err != nil {
				return r.Fail(err)
			}
			f, _ := count.Fraction(n, m, x, l) // fails only where NB did
			sizes.Series[l-1].Add(float64(x), f)
			cell := nb.String()
			if check {
				if bf := count.BruteForce(n, m, x, l); nb.Int64() != bf {
					cell = fmt.Sprintf("%s(bf=%d!)", cell, bf)
					r.OK = false
				}
			}
			if l == 1 && !r.Check(nb.Cmp(count.NBConsensus(n, m, x)) == 0) {
				sizes.Note("Theorem-3 closed form DISAGREES at x=%d", x)
			}
			row = append(row, cell, fmt.Sprintf("%.3f", f))
		}
		tbl.Row(row...)
	}
	sizes.Note("(NB grows as x shrinks or ℓ grows — the hierarchy directions of Section 5)")
	return r
}

// bruteForceable reports whether count.BruteForce can cross-check NB over
// {1..m}^n: m within the bitset cap and mⁿ ≤ 65 536, a product that stops
// growing past the limit, so it cannot overflow.
func bruteForceable(n, m int) bool {
	size := 1
	for i := 0; i < n && size <= 1<<16; i++ {
		size *= m
	}
	return m <= int(vector.MaxSetValue) && size <= 1<<16
}

// runE4 measures decision rounds for every scenario class of Theorem 10
// and Lemmas 1–2 and compares them with the predictions: the named
// scenarios one verified run each, then a seeded random-adversary sweep
// whose bound checks fold into an accumulator, as E9's exhaustive sweep
// does.
func runE4(cfg Params) Report {
	r := begin("E4", cfg)
	p := core.Params{N: cfg["n"], T: cfg["t"], K: cfg["k"], D: cfg["d"], L: cfg["l"]}
	m := cfg["m"]
	c, err := condition.NewMax(p.N, m, p.X(), p.L)
	if err != nil {
		return r.Fail(err)
	}
	inC := denseVec(p.N, m, p.X()+1)
	outC := sparseVec(p.N, m)
	if !c.Contains(inC) || c.Contains(outC) {
		return r.Failf("scenario inputs misclassified")
	}
	sys, err := kset.New(kset.WithParams(p), kset.WithCondition(c))
	if err != nil {
		return r.Fail(err)
	}
	ctx := context.Background()

	head := r.Section("parameters")
	head.Note("params n=%d t=%d k=%d d=%d ℓ=%d (x=%d): RCond=%d RMax=%d",
		p.N, p.T, p.K, p.D, p.L, p.X(), p.RCond(), p.RMax())

	scenarios := []struct {
		label   string
		input   vector.Vector
		fp      kset.FailurePattern
		predict int
	}{
		{"I∈C, failure-free", inC, adversary.None(), 2},
		{"I∈C, f≤t−d crashes", inC, adversary.InitialLast(p.N, p.X()), 2},
		{"I∈C, f>t−d staggered", inC, adversary.Stagger(p.N, p.T, p.X()+1, p.K, p.RMax()), p.RCond()},
		{"I∉C, failure-free", outC, adversary.None(), p.RMax()},
		{"I∉C, staggered", outC, adversary.Stagger(p.N, p.T, p.X()+1, p.K, p.RMax()), p.RMax()},
		{"I∉C, >t−d initial", outC, adversary.InitialLast(p.N, p.X()+1), p.RCond()},
	}
	named := r.Section("scenarios")
	tbl := named.AddTable("scenario", "predicted", "measured", "values", "spec")
	for _, sc := range scenarios {
		res, err := sys.RunScenario(ctx, kset.Scenario{Input: sc.input, FP: sc.fp})
		if err != nil {
			return r.Fail(err)
		}
		v := kset.Verify(sc.input, sc.fp, res, p.K)
		r.Check(v.OK() && v.MaxRound <= sc.predict)
		tbl.Row(sc.label, fmt.Sprintf("≤%d", sc.predict), fmt.Sprint(v.MaxRound),
			v.Distinct.String(), fmt.Sprintf("%v", v.OK()))
	}

	// Random sweep: predictions are upper bounds across random
	// adversaries, drawn from the seed in order. A run that fails the
	// specification or its bound is a violation of the folded accumulator,
	// whose per-crash-count breakdown yields the rounds-vs-f curve.
	trials, seed := cfg["trials"], int64(cfg["seed"])
	rng := rand.New(rand.NewSource(seed))
	acc := stats.NewAccumulator()
	for trial := 0; trial < trials; trial++ {
		input, inCond := inC, trial%2 == 0
		if !inCond {
			input = outC
		}
		fp := adversary.Random(rng, p.N, p.T, p.RMax())
		res, err := sys.RunScenario(ctx, kset.Scenario{Input: input, FP: fp})
		if err != nil {
			return r.Fail(err)
		}
		v := kset.Verify(input, fp, res, p.K)
		o := core.Observe(res)
		o.Verified = true
		o.Violation = !v.OK() || v.MaxRound > core.PredictRounds(p, inCond, fp)
		acc.Observe(o)
	}
	random := r.Section("random-sweep")
	r.Check(acc.Violations == 0)
	random.Note("%d random adversaries: %d bound violations; worst observed round %d",
		trials, acc.Violations, acc.MaxDecisionRound())
	curve := random.AddSeries("mean-round-by-crashes")
	for _, f := range acc.CrashKeys() {
		curve.Add(float64(f), acc.ByCrashes[f].Rounds.Mean())
	}
	return r
}

// runE5 produces the paper's central size/speed series on the sweep
// infrastructure: one SweepDegrees grid point per degree d, each running
// the RCond-forcing adversary through a verified campaign; as d grows the
// condition admits more input vectors but decides later.
func runE5(cfg Params) Report {
	r := begin("E5", cfg)
	n, m := cfg["n"], cfg["m"]
	base := core.Params{N: n, T: cfg["t"], K: cfg["k"], L: cfg["l"]}
	// An input in every condition of the sweep: the top value everywhere.
	input := denseVec(n, m, n)
	points, err := kset.SweepDegrees(base, m, func(pp kset.Params, c *kset.MaxCondition) kset.ScenarioSource {
		// The forcing adversary: more than t−d initial crashes (capped at
		// t; the >t−d premise is unreachable at d=0).
		return kset.CrossFailures(kset.Inputs(input), adversary.InitialLast(n, min(pp.X()+1, pp.T)))
	})
	if err != nil {
		return r.Fail(err)
	}
	results, err := kset.RunSweep(context.Background(), points, kset.VerifyRuns())
	if err != nil {
		return r.Fail(err)
	}

	sweep := r.Section("tradeoff")
	sweep.Note("n=%d m=%d t=%d k=%d ℓ=%d; input ∈ C, min(t, t−d+1) initial crashes —", n, m, base.T, base.K, base.L)
	sweep.Note("the adversary that forces the Tmf branch, making RCond tight")
	tbl := sweep.AddTable("d", "x", "NB(x,ℓ)", "fraction", "RCond", "measured")
	sizeCurve := sweep.AddSeries("fraction-by-d")
	prevNB, prevR := int64(-1), 0
	for _, res := range results {
		p := res.Params
		nb := count.MustNB(n, m, p.X(), p.L)
		frac, _ := count.Fraction(n, m, p.X(), p.L)
		measured := res.Stats.MaxDecisionRound()
		// With >t−d initial crashes every survivor is in the Tmf branch
		// and decides exactly at RCond; at d=0 the premise is unreachable
		// and the two-round fast path applies instead.
		want := p.RCond()
		if min(p.X()+1, p.T) <= p.X() {
			want = 2
		}
		r.Check(res.Stats.Errors == 0 && res.Stats.Violations == 0 && measured == want)
		r.Check(nb.Int64() >= prevNB) // size must grow with d
		r.Check(p.RCond() >= prevR)   // rounds must not shrink with d
		prevNB, prevR = nb.Int64(), p.RCond()
		tbl.Row(fmt.Sprint(p.D), fmt.Sprint(p.X()), nb.String(), fmt.Sprintf("%.4f", frac),
			fmt.Sprint(p.RCond()), fmt.Sprint(measured))
		sizeCurve.Add(float64(p.D), frac)
	}
	sweep.Note("(shape: NB and fraction grow with d while RCond grows — the inherent tradeoff;")
	sweep.Note(" measured rounds meet RCond exactly under the forcing adversary)")
	return r
}
