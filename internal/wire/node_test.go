package wire_test

import (
	"errors"
	"sync"
	"testing"
	"time"

	"kset/internal/core"
	"kset/internal/rounds"
	"kset/internal/wire"
)

// nodeOpts tweaks one multi-node run.
type nodeOpts struct {
	timeout time.Duration                        // round timeout (default 2s)
	skip    map[rounds.ProcessID]bool            // peers never started (pre-crashed)
	cancel  map[rounds.ProcessID]<-chan struct{} // per-peer cancel channels
}

// nodeOutcome is one peer's return from RunNode.
type nodeOutcome struct {
	res *wire.NodeResult
	err error
}

// runNodes starts one RunNode per unskipped process over a PipeNet mesh
// and waits for all of them, failing the test if the fleet does not
// terminate within a generous bound.
func runNodes(t *testing.T, pn *wire.PipeNet, procs []rounds.Process, maxRounds int, o nodeOpts) map[rounds.ProcessID]nodeOutcome {
	t.Helper()
	if o.timeout == 0 {
		o.timeout = 2 * time.Second
	}
	n := len(procs)
	out := make(map[rounds.ProcessID]nodeOutcome, n)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		id := rounds.ProcessID(i + 1)
		if o.skip[id] {
			continue
		}
		wg.Add(1)
		go func(id rounds.ProcessID, proc rounds.Process) {
			defer wg.Done()
			res, err := wire.RunNode(proc, wire.NodeConfig{
				ID:           id,
				N:            n,
				MaxRounds:    maxRounds,
				Conn:         pn.Conn(id),
				RoundTimeout: o.timeout,
				Retransmit:   time.Millisecond,
				Linger:       200 * time.Millisecond,
				Cancel:       o.cancel[id],
			})
			mu.Lock()
			out[id] = nodeOutcome{res, err}
			mu.Unlock()
		}(id, procs[i])
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(time.Duration(maxRounds+2)*o.timeout + 30*time.Second):
		t.Fatal("node fleet did not terminate")
	}
	return out
}

// wantEngineMatch asserts every live peer's outcome equals the engine's
// matrix-transport run under fp: same decision, same round, and the
// engine's crashed set as the peers' suspicion set (minus peers the
// survivor never had to suspect because it heard from them first).
func wantEngineMatch(t *testing.T, out map[rounds.ProcessID]nodeOutcome, fp rounds.FailurePattern) {
	t.Helper()
	p, c, input, _ := testScenario()
	want, err := core.NewRunner().RunCond(p, c, input, fp, false, nil, nil, nil)
	if err != nil {
		t.Fatalf("engine run: %v", err)
	}
	for id, o := range out {
		if o.err != nil {
			t.Fatalf("node %d: %v", id, o.err)
		}
		wv, decided := want.Decisions[id]
		if o.res.Decided != decided {
			t.Fatalf("node %d: decided=%v, engine says %v (%+v)", id, o.res.Decided, decided, o.res)
		}
		if decided && (o.res.Value != wv || o.res.Round != want.DecisionRound[id-1]) {
			t.Fatalf("node %d: decided %v@r%d, engine %v@r%d",
				id, o.res.Value, o.res.Round, wv, want.DecisionRound[id-1])
		}
	}
}

// TestNodesLossless: every peer of a 4-process mesh decides exactly what
// the in-process engine decides for the same instance, with no suspicion
// and no retransmissions on a lossless network.
func TestNodesLossless(t *testing.T) {
	p, c, input, _ := testScenario()
	procs, err := core.NewRun(p, c, input)
	if err != nil {
		t.Fatalf("NewRun: %v", err)
	}
	pn := wire.NewPipeNet(p.N)
	out := runNodes(t, pn, procs, p.RMax(), nodeOpts{})
	wantEngineMatch(t, out, rounds.FailurePattern{})
	for id, o := range out {
		if len(o.res.Suspected) != 0 {
			t.Errorf("node %d suspected %v on a lossless network", id, o.res.Suspected)
		}
	}
}

// TestNodesRecoverFromLoss: dropping the first transmission of every
// data frame forces the ack/retransmit machinery to carry the run; the
// decisions still match the engine exactly.
func TestNodesRecoverFromLoss(t *testing.T) {
	p, c, input, _ := testScenario()
	procs, err := core.NewRun(p, c, input)
	if err != nil {
		t.Fatalf("NewRun: %v", err)
	}
	pn := wire.NewPipeNet(p.N)
	var mu sync.Mutex
	seen := map[[3]int]bool{}
	pn.SetDrop(func(src, dst rounds.ProcessID, frame []byte) bool {
		ft, r, _, _, ok := wire.Peek(frame, p.N)
		if !ok || ft != wire.TypeData {
			return false
		}
		key := [3]int{int(src), int(dst), r}
		mu.Lock()
		defer mu.Unlock()
		if !seen[key] {
			seen[key] = true
			return true
		}
		return false
	})
	out := runNodes(t, pn, procs, p.RMax(), nodeOpts{timeout: 5 * time.Second})
	wantEngineMatch(t, out, rounds.FailurePattern{})
	var retrans int64
	for _, o := range out {
		retrans += o.res.Retransmits
	}
	if retrans == 0 {
		t.Error("loss injected but no retransmissions recorded")
	}
}

// TestNodesSuspectDeadPeer: a peer that never starts is suspected at the
// round-1 deadline and mapped into crash accounting — the survivors'
// outcome equals the engine run where that process crashes initially.
func TestNodesSuspectDeadPeer(t *testing.T) {
	p, c, input, _ := testScenario()
	procs, err := core.NewRun(p, c, input)
	if err != nil {
		t.Fatalf("NewRun: %v", err)
	}
	pn := wire.NewPipeNet(p.N)
	const dead = rounds.ProcessID(3)
	out := runNodes(t, pn, procs, p.RMax(), nodeOpts{
		timeout: 300 * time.Millisecond,
		skip:    map[rounds.ProcessID]bool{dead: true},
	})
	wantEngineMatch(t, out, rounds.FailurePattern{Crashes: map[rounds.ProcessID]rounds.Crash{
		dead: {Round: 1, AfterSends: 0},
	}})
	for id, o := range out {
		if len(o.res.Suspected) != 1 || o.res.Suspected[0] != dead {
			t.Errorf("node %d suspected %v, want [%d]", id, o.res.Suspected, dead)
		}
	}
}

// TestNodeCancel: a closed cancel channel unblocks a node waiting on a
// dead network.
func TestNodeCancel(t *testing.T) {
	p, c, input, _ := testScenario()
	procs, err := core.NewRun(p, c, input)
	if err != nil {
		t.Fatalf("NewRun: %v", err)
	}
	pn := wire.NewPipeNet(p.N)
	pn.SetDrop(func(rounds.ProcessID, rounds.ProcessID, []byte) bool { return true })
	cancel := make(chan struct{})
	go func() {
		time.Sleep(50 * time.Millisecond)
		close(cancel)
	}()
	start := time.Now()
	_, err = wire.RunNode(procs[0], wire.NodeConfig{
		ID: 1, N: p.N, MaxRounds: p.RMax(), Conn: pn.Conn(1),
		RoundTimeout: time.Hour, // only cancellation can end the round
		Retransmit:   10 * time.Millisecond,
		Cancel:       cancel,
	})
	if !errors.Is(err, rounds.ErrCanceled) {
		t.Fatalf("err = %v, want rounds.ErrCanceled", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
}

// TestNodeClosedConnFails: closing a node's endpoint mid-run surfaces as
// an error, not a hang — the failure mode of a peer whose socket dies.
func TestNodeClosedConnFails(t *testing.T) {
	p, c, input, _ := testScenario()
	procs, err := core.NewRun(p, c, input)
	if err != nil {
		t.Fatalf("NewRun: %v", err)
	}
	pn := wire.NewPipeNet(p.N)
	pn.SetDrop(func(rounds.ProcessID, rounds.ProcessID, []byte) bool { return true })
	conn := pn.Conn(1)
	go func() {
		time.Sleep(50 * time.Millisecond)
		conn.Close()
	}()
	_, err = wire.RunNode(procs[0], wire.NodeConfig{
		ID: 1, N: p.N, MaxRounds: p.RMax(), Conn: conn,
		RoundTimeout: time.Hour,
		Retransmit:   10 * time.Millisecond,
	})
	if err == nil {
		t.Fatal("RunNode returned nil error on a closed conn")
	}
}

// TestNodeConfigValidation pins the constructor's precondition errors.
func TestNodeConfigValidation(t *testing.T) {
	p, c, input, _ := testScenario()
	procs, err := core.NewRun(p, c, input)
	if err != nil {
		t.Fatalf("NewRun: %v", err)
	}
	bad := []wire.NodeConfig{
		{ID: 0, N: 4, MaxRounds: 2},
		{ID: 5, N: 4, MaxRounds: 2},
		{ID: 1, N: 4, MaxRounds: 0},
		{ID: 1, N: 4, MaxRounds: 2}, // no conn
	}
	for i, cfg := range bad {
		if _, err := wire.RunNode(procs[0], cfg); err == nil {
			t.Errorf("case %d: RunNode accepted invalid config %+v", i, cfg)
		}
	}
}
