package kset_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"kset"
	"kset/internal/wire"
)

// wireScenario is a run with a mid-round crash — enough adversarial
// structure to notice if a transport reorders, drops or re-delivers.
func wireScenario() kset.Scenario {
	return kset.Scenario{
		Input: kset.VectorOf(4, 4, 4, 2, 1, 2),
		FP: kset.FailurePattern{Crashes: map[kset.ProcessID]kset.Crash{
			3: {Round: 1, AfterSends: 2},
		}},
	}
}

// pipeWire builds the deterministic in-process wire harness: every copy is
// encoded to datagram bytes and decoded back, with no sockets or timing.
func pipeWire(int) (kset.Transport, error) { return &wire.PipeTransport{}, nil }

// TestWireTransportMatchesMatrix: for every synchronous executor, a run
// whose payloads cross the wire codec (pipeWire) or real UDP datagrams
// (UDPLoopback) produces a Result deeply equal to the default in-memory
// matrix run — decisions, rounds, message counts, everything.
func TestWireTransportMatchesMatrix(t *testing.T) {
	p := testParams()
	cond := testCondition(t, p)
	planes := []struct {
		name string
		f    kset.TransportFactory
	}{
		{"pipe", pipeWire},
		{"udp", kset.UDPLoopback(kset.WireConfig{})},
	}
	for _, ex := range []kset.Executor{kset.Figure2, kset.EarlyDeciding, kset.Classical} {
		sc := wireScenario()
		sc.Executor = ex
		base := testSystem(t, kset.WithParams(p), kset.WithCondition(cond))
		want, err := base.RunScenario(context.Background(), sc)
		if err != nil {
			t.Fatalf("%s/matrix: %v", ex.Name(), err)
		}
		for _, pl := range planes {
			sys := testSystem(t, kset.WithParams(p), kset.WithCondition(cond),
				kset.WithTransport(pl.f))
			got, err := sys.RunScenario(context.Background(), sc)
			if err != nil {
				t.Fatalf("%s/%s: %v", ex.Name(), pl.name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s: result diverged from matrix\n got: %+v\nwant: %+v",
					ex.Name(), pl.name, got, want)
			}
		}
	}
}

// TestPlaneEquivalence: the fault plane rides whatever message plane the
// run has, and which one that is cannot be seen in the results. One seeded
// stream — random inputs × a random crash family × the three synchronous
// executors, every run verified — goes through the default plane, pipeWire
// and UDPLoopback, under each plan of a storm family (plan 0 injects
// nothing: those are the planes' plan-less runs), at one and at two
// workers. The stats JSON of a plan is the same bytes in all six settings.
func TestPlaneEquivalence(t *testing.T) {
	p := testParams()
	cond := testCondition(t, p)
	const seed = 53
	base := kset.CrossExecutors(
		kset.FailureSchedules(
			kset.RandomInputs(seed, p.N, 4, 60),
			kset.RandomCrashFamily(seed+1, p.N, p.T, p.RMax(), 4),
		),
		kset.Figure2, kset.EarlyDeciding, kset.Classical,
	)
	planes := []struct {
		name string
		opts []kset.Option
	}{
		{"matrix", nil},
		{"pipe", []kset.Option{kset.WithTransport(pipeWire)}},
		{"udp", []kset.Option{kset.WithTransport(kset.UDPLoopback(kset.WireConfig{}))}},
	}
	storm := kset.StormFamily(seed+2, 3, 2, 0.3)
	for i := 0; i < storm.Size(); i++ {
		plan := storm.Plan(i)
		var want []byte
		for _, pl := range planes {
			for _, workers := range []int{1, 2} {
				name := fmt.Sprintf("plan %d/%s/workers=%d", i, pl.name, workers)
				opts := append([]kset.Option{kset.WithParams(p), kset.WithCondition(cond), kset.WithWorkers(workers)}, pl.opts...)
				stats, err := testSystem(t, opts...).RunSource(context.Background(), kset.CrossFaults(base, plan), kset.VerifyRuns())
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if stats.Runs != 60*4*3 || stats.Errors != 0 {
					t.Fatalf("%s: runs=%d errors=%d", name, stats.Runs, stats.Errors)
				}
				if f := stats.Metrics.Faults; plan.Zero() {
					if f != nil || stats.Violations != 0 {
						t.Fatalf("%s: fault tally %+v, %d violations on a reliable plane", name, f, stats.Violations)
					}
				} else if f == nil || f.Lost.Sum == 0 || f.Delayed.Sum == 0 || f.Duplicated.Sum == 0 {
					t.Fatalf("%s: the storm left a fault kind out: %+v", name, f)
				}
				got, err := json.Marshal(stats)
				if err != nil {
					t.Fatal(err)
				}
				if want == nil {
					want = got
				} else if !bytes.Equal(got, want) {
					t.Fatalf("%s diverged from the default plane:\n%s\nvs\n%s", name, got, want)
				}
			}
		}
	}
}

// TestFaultPlanOverLossyWire: a copy is lost at exactly one layer. The
// fault plane drops two scheduled copies before the wire sees them; the
// wire beneath — a Loopback over a PipeNet that swallows every frame of
// the link 4→5 in round 1 — writes one more off at its round deadline.
// Result.Lost is the sum.
func TestFaultPlanOverLossyWire(t *testing.T) {
	p := testParams()
	lossy := func(n int) (kset.Transport, error) {
		return wire.NewLoopback(wire.LoopbackConfig{
			RoundTimeout: 50 * time.Millisecond,
			Retransmit:   time.Millisecond,
			Dial: func(n int) ([]wire.PacketConn, error) {
				pn := wire.NewPipeNet(n)
				pn.SetDrop(func(src, dst kset.ProcessID, frame []byte) bool {
					_, round, _, _, ok := wire.Peek(frame, n)
					return ok && round == 1 && src == 4 && dst == 5
				})
				conns := make([]wire.PacketConn, n)
				for i := range conns {
					conns[i] = pn.Conn(kset.ProcessID(i + 1))
				}
				return conns, nil
			},
		}, n)
	}
	plan := &kset.FaultPlan{Scheduled: []kset.ScheduledFault{
		{Round: 1, From: 1, To: 2, Kind: kset.FaultDrop},
		{Round: 1, From: 4, To: 6, Kind: kset.FaultDrop},
	}}
	sys := testSystem(t, kset.WithParams(p), kset.WithCondition(testCondition(t, p)),
		kset.WithTransport(lossy))
	res, err := sys.RunScenario(context.Background(), kset.Scenario{Input: kset.VectorOf(4, 4, 4, 2, 1, 2), Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	if res.Lost != 3 || res.Delayed != 0 || res.Duplicated != 0 {
		t.Fatalf("Lost/Delayed/Duplicated = %d/%d/%d, want 3/0/0 (two dropped above the wire, one written off by it)",
			res.Lost, res.Delayed, res.Duplicated)
	}
}

// TestWireTransportConcurrent drives concurrent runs through the shared
// worker pool: each worker must end up with its own transport instance
// and every run must still match the matrix decision.
func TestWireTransportConcurrent(t *testing.T) {
	p := testParams()
	cond := testCondition(t, p)
	base := testSystem(t, kset.WithParams(p), kset.WithCondition(cond))
	want, err := base.RunScenario(context.Background(), wireScenario())
	if err != nil {
		t.Fatal(err)
	}
	sys := testSystem(t, kset.WithParams(p), kset.WithCondition(cond),
		kset.WithTransport(kset.UDPLoopback(kset.WireConfig{Retransmit: time.Millisecond})))
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := sys.RunScenario(context.Background(), wireScenario())
			if err != nil {
				errs <- err
				return
			}
			if !reflect.DeepEqual(got, want) {
				errs <- errors.New("concurrent wire run diverged from matrix")
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestWireTransportAfterFaultSystem: two Systems sharing the worker pool —
// one wired, one matrix — must not leak transports into each other's runs.
func TestWireTransportAfterFaultSystem(t *testing.T) {
	p := testParams()
	cond := testCondition(t, p)
	wired := testSystem(t, kset.WithParams(p), kset.WithCondition(cond),
		kset.WithTransport(pipeWire))
	plain := testSystem(t, kset.WithParams(p), kset.WithCondition(cond))
	for i := 0; i < 4; i++ {
		if _, err := wired.RunScenario(context.Background(), wireScenario()); err != nil {
			t.Fatalf("wired run %d: %v", i, err)
		}
		res, err := plain.RunScenario(context.Background(), wireScenario())
		if err != nil {
			t.Fatalf("plain run %d: %v", i, err)
		}
		if res.Lost != 0 {
			t.Fatalf("plain run %d reports Lost=%d", i, res.Lost)
		}
	}
}
