package kset_test

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"kset"
)

func testParams() kset.Params { return kset.Params{N: 6, T: 3, K: 2, D: 1, L: 1} }

func testCondition(t *testing.T, p kset.Params) kset.Condition {
	t.Helper()
	c, err := kset.NewMaxCondition(p.N, 4, p.X(), p.L)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func testSystem(t *testing.T, opts ...kset.Option) *kset.System {
	t.Helper()
	sys, err := kset.New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestNewValidation pins the construction-time validation of New and the
// sentinel classification of every error path.
func TestNewValidation(t *testing.T) {
	p := testParams()
	cond := testCondition(t, p)
	smaller := func() kset.Condition {
		c, err := kset.NewMaxCondition(5, 4, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}()

	cases := []struct {
		name string
		opts []kset.Option
		want error
	}{
		{"no params", []kset.Option{kset.WithCondition(cond)}, kset.ErrBadParams},
		{"bad n", []kset.Option{kset.WithParams(kset.Params{N: 1, T: 1, K: 1, L: 1}), kset.WithCondition(cond)}, kset.ErrBadParams},
		{"bad t", []kset.Option{kset.WithParams(kset.Params{N: 6, T: 6, K: 2, D: 1, L: 1}), kset.WithCondition(cond)}, kset.ErrBadParams},
		{"l above k", []kset.Option{kset.WithParams(kset.Params{N: 6, T: 3, K: 1, D: 1, L: 2}), kset.WithCondition(cond)}, kset.ErrBadParams},
		{"nil condition", []kset.Option{kset.WithParams(p)}, kset.ErrBadParams},
		{"condition size mismatch", []kset.Option{kset.WithParams(p), kset.WithCondition(smaller)}, kset.ErrBadParams},
		{"nil condition async", []kset.Option{kset.WithParams(p), kset.WithExecutor(kset.Asynchronous)}, kset.ErrBadParams},
		{"classical without condition", []kset.Option{kset.WithParams(p), kset.WithExecutor(kset.Classical)}, nil},
		{"figure2 ok", []kset.Option{kset.WithParams(p), kset.WithCondition(cond)}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := kset.New(tc.opts...)
			if tc.want == nil {
				if err != nil {
					t.Fatalf("New: %v", err)
				}
				return
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("New error = %v, want errors.Is(%v)", err, tc.want)
			}
		})
	}
}

// TestConditionConstructorSentinels pins the unified error handling of the
// condition constructors, including the previously panicking explicit one.
func TestConditionConstructorSentinels(t *testing.T) {
	if _, err := kset.NewMaxCondition(6, 100, 2, 1); !errors.Is(err, kset.ErrDomainTooLarge) {
		t.Errorf("NewMaxCondition m=100: %v, want ErrDomainTooLarge", err)
	}
	if _, err := kset.NewMinCondition(0, 4, 2, 1); !errors.Is(err, kset.ErrBadParams) {
		t.Errorf("NewMinCondition n=0: %v, want ErrBadParams", err)
	}
	if _, err := kset.NewExplicitCondition(4, 100, 1); !errors.Is(err, kset.ErrDomainTooLarge) {
		t.Errorf("NewExplicitCondition m=100: %v, want ErrDomainTooLarge", err)
	}
	if _, err := kset.NewExplicitCondition(4, 4, 0); !errors.Is(err, kset.ErrBadParams) {
		t.Errorf("NewExplicitCondition l=0: %v, want ErrBadParams", err)
	}
	if _, err := kset.ConditionSize(0, 1, 0, 1); !errors.Is(err, kset.ErrBadParams) {
		t.Errorf("ConditionSize n=0: %v, want ErrBadParams", err)
	}
}

// TestRunInputSentinels pins the per-run input validation of the hot path.
func TestRunInputSentinels(t *testing.T) {
	p := testParams()
	sys := testSystem(t, kset.WithParams(p), kset.WithCondition(testCondition(t, p)))
	ctx := context.Background()

	if _, err := sys.Run(ctx, kset.VectorOf(1, 2), kset.NoFailures()); !errors.Is(err, kset.ErrBadInput) {
		t.Errorf("short input: %v, want ErrBadInput", err)
	}
	if _, err := sys.Run(ctx, kset.VectorOf(1, 2, 0, 1, 2, 1), kset.NoFailures()); !errors.Is(err, kset.ErrBadInput) {
		t.Errorf("⊥ input: %v, want ErrBadInput", err)
	}
	if _, err := sys.Run(ctx, kset.VectorOf(1, 2, 3, 1, 2, 65), kset.NoFailures()); !errors.Is(err, kset.ErrDomainTooLarge) {
		t.Errorf("oversized value: %v, want ErrDomainTooLarge", err)
	}
}

// TestSystemRunCancelled checks the context gate of the hot path.
func TestSystemRunCancelled(t *testing.T) {
	p := testParams()
	sys := testSystem(t, kset.WithParams(p), kset.WithCondition(testCondition(t, p)))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sys.Run(ctx, kset.VectorOf(4, 4, 4, 2, 1, 2), kset.NoFailures()); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run on cancelled ctx: %v, want context.Canceled", err)
	}
}

// TestSystemConcurrentRun drives one System from many goroutines; run
// under -race it also proves the worker-pool isolation of the engines.
func TestSystemConcurrentRun(t *testing.T) {
	p := testParams()
	cond := testCondition(t, p)
	sys := testSystem(t, kset.WithParams(p), kset.WithCondition(cond))
	ctx := context.Background()

	inputs := []kset.Vector{
		kset.VectorOf(4, 4, 4, 2, 1, 2),
		kset.VectorOf(1, 2, 3, 4, 1, 2),
		kset.VectorOf(4, 4, 4, 4, 4, 4),
	}
	fps := []kset.FailurePattern{
		kset.NoFailures(),
		kset.InitialCrashes(p.N, 2),
		kset.Crashes(kset.CrashSpec{ID: 6, Round: 1, AfterSends: 3}), // mid-round: heard by half
	}

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				input := inputs[(g+i)%len(inputs)]
				fp := fps[(g+2*i)%len(fps)]
				res, err := sys.Run(ctx, input, fp)
				if err != nil {
					errs <- err
					return
				}
				if v := kset.Verify(input, fp, res, p.K); !v.OK() {
					errs <- errors.New(v.String())
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestNewSnapshotsExplicitCondition pins that New holds its own copy of
// an explicit condition: a vector added to the caller's handle afterwards
// is no condition hit, and a member added beside an old one, which would
// give a view of the old one a second completion, does not move the
// decisions on the old one when a process crashes initially.
func TestNewSnapshotsExplicitCondition(t *testing.T) {
	p := kset.Params{N: 4, T: 2, K: 1, D: 1, L: 1}
	ec, err := kset.NewExplicitCondition(p.N, 3, p.L)
	if err != nil {
		t.Fatal(err)
	}
	// Each codeword recognizes its majority value (x = t−d = 1).
	old := kset.VectorOf(2, 2, 3, 2)
	for h, in := range []kset.Vector{kset.VectorOf(1, 1, 1, 2), old, kset.VectorOf(3, 1, 3, 3)} {
		if err := ec.Add(in, kset.SetOf(kset.Value(h+1))); err != nil {
			t.Fatal(err)
		}
	}
	sys := testSystem(t, kset.WithParams(p), kset.WithCondition(ec))
	ctx := context.Background()
	crashP3 := kset.FailurePattern{Crashes: map[kset.ProcessID]kset.Crash{3: {Round: 1}}}
	before, err := sys.Run(ctx, old, crashP3)
	if err != nil {
		t.Fatal(err)
	}

	added := kset.VectorOf(1, 1, 2, 1)
	if err := ec.Add(added, kset.SetOf(1)); err != nil {
		t.Fatal(err)
	}
	if err := ec.Add(kset.VectorOf(2, 2, 1, 2), kset.SetOf(1)); err != nil {
		t.Fatal(err)
	}

	stats, err := sys.RunSource(ctx, kset.Inputs(added))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Runs != 1 || stats.ConditionHits != 0 {
		t.Errorf("campaign over the added vector: runs=%d hits=%d, want 1 and 0", stats.Runs, stats.ConditionHits)
	}
	after, err := sys.Run(ctx, old, crashP3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(after.Decisions, before.Decisions) || after.Rounds != before.Rounds {
		t.Errorf("decisions on %v moved: %v in %d rounds, were %v in %d",
			old, after.Decisions, after.Rounds, before.Decisions, before.Rounds)
	}
	if v := before.Decisions[1]; v != 2 {
		t.Errorf("p1 decided %v on %v, want its recognized value 2", v, old)
	}
}

// TestAsynchronousExecutor checks the async executor's Result adaptation:
// decisions land keyed by process, rounds stay zero, crash points map.
func TestAsynchronousExecutor(t *testing.T) {
	cond, err := kset.NewMaxCondition(5, 3, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	sys := testSystem(t,
		kset.WithParams(kset.Params{N: 5, T: 2, K: 2, D: 0, L: 2}),
		kset.WithCondition(cond),
		kset.WithExecutor(kset.Asynchronous),
	)
	res, err := sys.RunScenario(context.Background(), kset.Scenario{
		Input: kset.VectorOf(3, 3, 2, 1, 2),
		FP:    kset.InitialCrashes(5, 1), // maps to CrashBeforeWrite for p5
		Seed:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 0 {
		t.Errorf("async result has Rounds=%d, want 0", res.Rounds)
	}
	if !res.Crashed[5] {
		t.Error("p5 should be marked crashed")
	}
	if _, decided := res.Decisions[5]; decided {
		t.Error("crashed p5 must not decide")
	}
	if len(res.Decisions) != 4 {
		t.Errorf("decisions %v, want all 4 correct processes", res.Decisions)
	}
	if d := res.DistinctDecisions(); d.Len() > 2 {
		t.Errorf("too many distinct values: %v", d)
	}
}

// TestFailureBuilders pins the explicit failure-pattern builder.
func TestFailureBuilders(t *testing.T) {
	fp := kset.Crashes(
		kset.CrashSpec{ID: 6, Round: 1, AfterSends: 2},
		kset.CrashSpec{ID: 7, Round: 2},
	)
	if len(fp.Crashes) != 2 || fp.Crashes[6] != (kset.Crash{Round: 1, AfterSends: 2}) || fp.Crashes[7] != (kset.Crash{Round: 2}) {
		t.Errorf("Crashes built %+v", fp.Crashes)
	}
}
