package wire

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"kset/internal/condition"
	"kset/internal/core"
	"kset/internal/rounds"
	"kset/internal/vector"
)

// encodeTo encodes f with the given version byte — Version for a frame the
// codec would emit, anything else for a foreign datagram. It is called
// from node goroutines, so a frame that does not encode is an Errorf.
func encodeTo(t *testing.T, version byte, f Frame) []byte {
	buf := make([]byte, MaxFrame)
	n, err := EncodeFrame(buf, &f)
	if err != nil {
		t.Errorf("EncodeFrame(%+v): %v", f, err)
	}
	buf[0] = version
	return buf[:n]
}

// TestNodeAdversarialFutureBound pins what a node buffers from peers that
// claim to run ahead: nothing for a round past MaxRounds (no store, no
// ack — 10 000 such frames leave it empty), and one payload per (round,
// peer) for the rounds it may still run, which is the bound
// (MaxRounds − round)·(N − 1).
func TestNodeAdversarialFutureBound(t *testing.T) {
	const n, maxRounds = 4, 3
	nd, err := newNode(NodeConfig{ID: 1, N: n, MaxRounds: maxRounds, Conn: NewPipeNet(n).Conn(1)})
	if err != nil {
		t.Fatal(err)
	}
	if err := nd.beginRound(1, vector.Value(1)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		r := maxRounds + 1 + i%(MaxRound-maxRounds)
		src := rounds.ProcessID(2 + i%(n-1))
		nd.handle(encodeTo(t, Version, Frame{Type: TypeData, Round: r, Src: src, Dst: 1, Payload: vector.Value(2)}))
	}
	if len(nd.future) != 0 || nd.res.FramesSent != 0 {
		t.Fatalf("far-future frames: %d buffered, %d acked; want none of either", len(nd.future), nd.res.FramesSent)
	}
	for pass := 0; pass < 2; pass++ { // the second pass is all duplicates
		for r := 2; r <= maxRounds; r++ {
			for src := rounds.ProcessID(2); src <= n; src++ {
				nd.handle(encodeTo(t, Version, Frame{Type: TypeData, Round: r, Src: src, Dst: 1, Payload: vector.Value(2)}))
			}
		}
	}
	if bound := (maxRounds - nd.round) * (n - 1); len(nd.future) != bound {
		t.Fatalf("in-range future frames: %d buffered, want %d", len(nd.future), bound)
	}
	if want := int64(2 * (maxRounds - 1) * (n - 1)); nd.res.FramesSent != want {
		t.Fatalf("in-range future frames: %d acks, want %d (duplicates are re-acked)", nd.res.FramesSent, want)
	}
}

// TestNodeAdversarialSchedules runs a live 4-node fleet over a PipeNet
// twice — clean, and with hostile datagrams dropped into every node's
// endpoint at the start of each of its rounds: data frames with a spoofed
// source (the victim itself, a process outside the mesh), genuine acks of
// finished rounds replayed, far-future rounds from every peer, and v1
// datagrams that would carry a different payload if they were decoded.
// The hostile run must decide exactly what the clean run decides, suspect
// nobody, keep every node's future buffer within its bound at every round
// and at exit, and end within MaxRounds round deadlines plus the linger.
func TestNodeAdversarialSchedules(t *testing.T) {
	p := core.Params{N: 4, T: 2, K: 2, D: 1, L: 1}
	cond := condition.MustNewMax(p.N, 3, p.X(), p.L)
	input := vector.OfInts(2, 1, 3, 1)
	const timeout, linger = 2 * time.Second, 200 * time.Millisecond

	fleet := func(hostile bool) []*NodeResult {
		procs, err := core.NewRun(p, cond, input)
		if err != nil {
			t.Fatalf("NewRun: %v", err)
		}
		pn := NewPipeNet(p.N)
		var mu sync.Mutex
		var acks [][]byte // genuine acks seen in transit
		if hostile {
			pn.SetDrop(func(src, _ rounds.ProcessID, frame []byte) bool {
				ft, _, fsrc, _, ok := Peek(frame, p.N)
				if ok && ft == TypeAck && fsrc == src { // injected copies travel under the victim's id
					mu.Lock()
					acks = append(acks, bytes.Clone(frame))
					mu.Unlock()
				}
				return false
			})
		}
		// inject runs on node id's goroutine as it enters round r.
		inject := func(nd *node, id rounds.ProcessID, r int) {
			if bound := (p.RMax() - r) * (p.N - 1); len(nd.future) > bound {
				t.Errorf("node %d round %d: %d future payloads buffered, bound %d", id, r, len(nd.future), bound)
			}
			conn := pn.Conn(id)
			wrong := &core.StateMsg{Cond: 1, Out: 1, Tmf: 1}
			conn.WriteTo(encodeTo(t, Version, Frame{Type: TypeData, Round: r, Src: id, Dst: id, Payload: wrong}), id)
			conn.WriteTo(encodeTo(t, Version, Frame{Type: TypeData, Round: r, Src: rounds.ProcessID(p.N + 1), Dst: id, Payload: wrong}), id)
			mu.Lock()
			for _, ack := range acks {
				if _, ar, _, adst, _ := Peek(ack, p.N); adst == id && ar < r {
					conn.WriteTo(ack, id)
				}
			}
			mu.Unlock()
			for q := rounds.ProcessID(1); int(q) <= p.N; q++ {
				if q == id {
					continue
				}
				conn.WriteTo(encodeTo(t, 0x6B, Frame{Type: TypeData, Round: r, Src: q, Dst: id, Payload: wrong}), id)
				for k := 0; k < 100; k++ {
					far := p.RMax() + 1 + (k*601+r)%(MaxRound-p.RMax())
					conn.WriteTo(encodeTo(t, Version, Frame{Type: TypeData, Round: far, Src: q, Dst: id, Payload: wrong}), id)
				}
			}
		}
		out := make([]*NodeResult, p.N)
		var wg sync.WaitGroup
		start := time.Now()
		for i := range procs {
			id := rounds.ProcessID(i + 1)
			nd, err := newNode(NodeConfig{
				ID: id, N: p.N, MaxRounds: p.RMax(), Conn: pn.Conn(id),
				RoundTimeout: timeout, Retransmit: time.Millisecond, Linger: linger,
			})
			if err != nil {
				t.Fatal(err)
			}
			if hostile {
				nd.cfg.OnRound = func(r int) { inject(nd, id, r) }
			}
			wg.Add(1)
			go func(proc rounds.Process) {
				defer wg.Done()
				res, err := nd.run(proc)
				if err != nil {
					t.Errorf("node %d: %v", id, err)
					return
				}
				if bound := (p.RMax() - res.Round) * (p.N - 1); len(nd.future) > bound {
					t.Errorf("node %d exits with %d future payloads buffered, bound %d", id, len(nd.future), bound)
				}
				out[id-1] = res
			}(procs[i])
		}
		wg.Wait()
		if limit := time.Duration(p.RMax())*timeout + linger; time.Since(start) > limit {
			t.Errorf("fleet (hostile=%v) took %v, limit %v", hostile, time.Since(start), limit)
		}
		return out
	}

	clean, hostile := fleet(false), fleet(true)
	for i, want := range clean {
		got := hostile[i]
		if want == nil || got == nil {
			t.Fatalf("node %d did not finish", i+1)
		}
		if !want.Decided || got.Decided != want.Decided || got.Value != want.Value || got.Round != want.Round {
			t.Errorf("node %d: hostile run decided=%v %v@r%d, clean run decided=%v %v@r%d",
				i+1, got.Decided, got.Value, got.Round, want.Decided, want.Value, want.Round)
		}
		if len(got.Suspected) != 0 {
			t.Errorf("node %d suspected %v in the hostile run", i+1, got.Suspected)
		}
		if got.FramesReceived <= want.FramesReceived {
			t.Errorf("node %d read %d datagrams in the hostile run, %d in the clean one: nothing was injected",
				i+1, got.FramesReceived, want.FramesReceived)
		}
	}
}
