package kset

import (
	"context"
	"testing"
)

// panicExec is a white-box Executor (the interface is sealed) whose run
// always panics — the poisoned-scenario stand-in for the campaign
// hardening test.
type panicExec struct{}

func (panicExec) Name() string        { return "panicker" }
func (panicExec) synchronous() bool   { return true }
func (panicExec) check(*System) error { return nil }
func (panicExec) run(context.Context, *System, *worker, *Scenario, *Result) (*Result, error) {
	panic("executor exploded")
}

// TestCampaignRecoversExecutorPanic: a panicking executor fails its own
// run — counted in the campaign's errors — while the worker, the campaign
// and the process carry on; healthy scenarios in the same campaign still
// succeed.
func TestCampaignRecoversExecutorPanic(t *testing.T) {
	p := Params{N: 6, T: 3, K: 2, D: 1, L: 1}
	cond, err := NewMaxCondition(p.N, 4, p.X(), p.L)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(WithParams(p), WithCondition(cond), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	input := VectorOf(4, 4, 4, 2, 1, 2)

	scs := make([]Scenario, 20)
	for i := range scs {
		scs[i] = Scenario{Input: input}
		if i%4 == 0 {
			scs[i].Executor = panicExec{}
		}
	}
	stats, err := sys.RunCampaign(context.Background(), scs)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Runs != 20 || stats.Errors != 5 {
		t.Fatalf("stats runs=%d errors=%d, want 20/5", stats.Runs, stats.Errors)
	}
	if g := stats.Metrics.ByExecutor["panicker"]; g == nil || g.Runs != 5 || g.Errors != 5 {
		t.Fatalf("panicker breakdown %+v, want 5 runs, all errors", g)
	}
	if decided := stats.Metrics.Rounds.Decided(); decided != 15 {
		t.Fatalf("%d healthy runs decided in some round, want 15", decided)
	}
}
