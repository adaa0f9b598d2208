// Package kset_test exercises the public facade exactly as a downstream
// user would (modulo the internal/ restriction, which does not apply
// within the module).
package kset_test

import (
	"context"
	"testing"

	"kset"
)

func TestQuickstartFlow(t *testing.T) {
	p := kset.Params{N: 6, T: 3, K: 2, D: 1, L: 1}
	c, err := kset.NewMaxCondition(p.N, 4, p.X(), p.L)
	if err != nil {
		t.Fatal(err)
	}
	input := kset.VectorOf(4, 4, 4, 2, 1, 2)
	sys, err := kset.New(kset.WithParams(p), kset.WithCondition(c))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(context.Background(), input, kset.NoFailures())
	if err != nil {
		t.Fatal(err)
	}
	verdict := kset.Verify(input, kset.NoFailures(), res, p.K)
	if !verdict.OK() {
		t.Fatalf("verdict: %v", verdict)
	}
	if res.MaxDecisionRound() != 2 {
		t.Errorf("decided at %d, want 2", res.MaxDecisionRound())
	}
}

func TestFacadeConditions(t *testing.T) {
	c, err := kset.NewExplicitCondition(4, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Add(kset.VectorOf(1, 1, 2, 3), kset.SetOf(1)); err != nil {
		t.Fatal(err)
	}
	if v := kset.CheckLegal(c, 1, 0); v != nil {
		t.Errorf("expected legal: %v", v)
	}
	if !kset.IsLegalizable(c, 1) {
		t.Error("expected legalizable")
	}
	if kset.IsLegalizable(c, 3) {
		t.Error("x=3 density is unachievable (mass 2)")
	}
}

func TestFacadeEarlyAndClassical(t *testing.T) {
	p := kset.Params{N: 5, T: 4, K: 2, D: 2, L: 1}
	c, err := kset.NewMaxCondition(p.N, 3, p.X(), p.L)
	if err != nil {
		t.Fatal(err)
	}
	input := kset.VectorOf(3, 3, 3, 1, 2)
	fp := kset.InitialCrashes(p.N, 1)

	sys, err := kset.New(kset.WithParams(p), kset.WithCondition(c))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	early, err := sys.RunScenario(ctx, kset.Scenario{Input: input, FP: fp, Executor: kset.EarlyDeciding})
	if err != nil {
		t.Fatal(err)
	}
	if v := kset.Verify(input, fp, early, p.K); !v.OK() {
		t.Fatalf("early: %v", v)
	}

	classical, err := sys.RunScenario(ctx, kset.Scenario{Input: input, FP: fp, Executor: kset.Classical})
	if err != nil {
		t.Fatal(err)
	}
	if v := kset.Verify(input, fp, classical, p.K); !v.OK() {
		t.Fatalf("classical: %v", v)
	}
	if classical.MaxDecisionRound() != p.T/p.K+1 {
		t.Errorf("classical decided at %d, want %d", classical.MaxDecisionRound(), p.T/p.K+1)
	}
	if early.MaxDecisionRound() > classical.MaxDecisionRound() {
		t.Errorf("early (%d rounds) slower than classical (%d)",
			early.MaxDecisionRound(), classical.MaxDecisionRound())
	}
}

func TestFacadeAsync(t *testing.T) {
	p := kset.Params{N: 5, T: 2, K: 2, D: 0, L: 2} // x = 2
	c, err := kset.NewMaxCondition(p.N, 3, p.X(), p.L)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := kset.New(kset.WithParams(p), kset.WithCondition(c), kset.WithExecutor(kset.Asynchronous))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.RunScenario(context.Background(), kset.Scenario{
		Input:        kset.VectorOf(3, 3, 2, 1, 2),
		AsyncCrashes: map[int]kset.CrashPoint{5: kset.CrashBeforeWrite},
		Seed:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if undecided := p.N - len(res.Decisions) - len(res.Crashed); undecided != 0 {
		t.Fatalf("%d undecided: %v", undecided, res.Decisions)
	}
	if d := res.DistinctDecisions(); d.Len() > p.L {
		t.Fatalf("too many values: %v", d)
	}
}

func TestFacadeCounting(t *testing.T) {
	nb, err := kset.ConditionSize(4, 3, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if nb.Int64() != 81 { // 3^4: x=0 admits everything
		t.Errorf("NB(0,1) = %v, want 81", nb)
	}
	f, err := kset.ConditionFraction(4, 3, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if f <= 0 || f >= 1 {
		t.Errorf("fraction = %v, want in (0,1)", f)
	}
	if _, err := kset.ConditionSize(0, 1, 0, 1); err == nil {
		t.Error("want error")
	}
}
