package wire

import (
	"bytes"
	"testing"
	"time"

	"kset/internal/core"
	"kset/internal/rounds"
	"kset/internal/vector"
)

// countConn wraps a mesh endpoint, counting the calls a Loopback makes on
// it, and gives it the batch interface: over a PipeNet endpoint a batched
// read takes the first datagram under the deadline and then whatever else
// is queued. drop, when set, loses the matching datagrams in transit.
type countConn struct {
	PacketConn
	writes, reads             int   // batched calls
	singleWrites, singleReads int   // per-datagram calls
	batches                   []int // datagrams per batched read
	drop                      func(frame []byte) bool
}

func (c *countConn) WriteTo(b []byte, dst rounds.ProcessID) error {
	c.singleWrites++
	if c.drop != nil && c.drop(b) {
		return nil
	}
	return c.PacketConn.WriteTo(b, dst)
}

func (c *countConn) ReadFrom(b []byte) (int, error) {
	c.singleReads++
	return c.PacketConn.ReadFrom(b)
}

func (c *countConn) writeBatch(frames [][]byte, dsts []rounds.ProcessID) error {
	c.writes++
	var keep [][]byte
	var to []rounds.ProcessID
	for i, f := range frames {
		if c.drop == nil || !c.drop(f) {
			keep, to = append(keep, f), append(to, dsts[i])
		}
	}
	if len(keep) == 0 {
		return nil
	}
	return writeBatch(c.PacketConn, keep, to)
}

func (c *countConn) readBatch(bufs [][]byte, lens []int) (int, error) {
	c.reads++
	k, err := readBatch(c.PacketConn, bufs, lens)
	if _, ok := c.PacketConn.(batchConn); !ok && err == nil {
		c.PacketConn.SetReadDeadline(time.Unix(1, 0)) // a PipeNet drains past its deadline
		for ; k < len(bufs); k++ {
			if lens[k], err = c.PacketConn.ReadFrom(bufs[k]); err != nil {
				err = nil
				break
			}
		}
	}
	c.batches = append(c.batches, k)
	return k, err
}

// countingLoopback builds a Loopback over the given mesh with every
// endpoint wrapped in a countConn.
func countingLoopback(t *testing.T, cfg LoopbackConfig, n int, dial func(int) ([]PacketConn, error)) (*Loopback, []*countConn) {
	t.Helper()
	var conns []*countConn
	cfg.Dial = func(n int) ([]PacketConn, error) {
		inner, err := dial(n)
		if err != nil {
			return nil, err
		}
		out := make([]PacketConn, n)
		conns = make([]*countConn, n)
		for i := range out {
			conns[i] = &countConn{PacketConn: inner[i]}
			out[i] = conns[i]
		}
		return out, nil
	}
	lb, err := NewLoopback(cfg, n)
	if err != nil {
		t.Fatalf("NewLoopback: %v", err)
	}
	t.Cleanup(func() { lb.Close() })
	return lb, conns
}

func identityOrder(n int) []rounds.ProcessID {
	order := make([]rounds.ProcessID, n)
	for i := range order {
		order[i] = rounds.ProcessID(i + 1)
	}
	return order
}

// TestLoopbackBatchesPerRound pins the batch path over a PipeNet: in a
// lossless round each live sender with a remote copy makes one batched
// write, each destination wait one batched read, and nothing goes one
// datagram at a time.
func TestLoopbackBatchesPerRound(t *testing.T) {
	const n = 5
	lb, conns := countingLoopback(t, LoopbackConfig{}, n, func(n int) ([]PacketConn, error) {
		pn := NewPipeNet(n)
		out := make([]PacketConn, n)
		for i := range out {
			out[i] = pn.Conn(rounds.ProcessID(i + 1))
		}
		return out, nil
	})
	order := identityOrder(n)
	lb.Reset(n)
	row := make([]any, n)

	// Round 1: a full broadcast.
	lb.BeginRound(1)
	for src := 1; src <= n; src++ {
		lb.Send(1, rounds.ProcessID(src), vector.Value(src), order, n)
	}
	for dst := 1; dst <= n; dst++ {
		lb.Deliver(1, rounds.ProcessID(dst), row)
		for src := 1; src <= n; src++ {
			if row[src-1] != vector.Value(src) {
				t.Fatalf("round 1: p%d's row[%d] = %v, want %d", dst, src-1, row[src-1], src)
			}
		}
	}
	// Round 2: p1 reaches only itself, p2 crashes before sending and is
	// not delivered to, p3..p5 flood state triples.
	lb.BeginRound(2)
	lb.Send(2, 1, &core.StateMsg{Cond: 1}, order, 1)
	lb.Send(2, 2, &core.StateMsg{Cond: 2}, order, 0)
	for src := 3; src <= n; src++ {
		lb.Send(2, rounds.ProcessID(src), &core.StateMsg{Cond: vector.Value(src)}, order, n)
	}
	for _, dst := range []rounds.ProcessID{1, 3, 4, 5} {
		lb.Deliver(2, dst, row)
		for src := 3; src <= n; src++ {
			if m, ok := row[src-1].(*core.StateMsg); !ok || m.Cond != vector.Value(src) {
				t.Fatalf("round 2: p%d's row[%d] = %v, want cond %d", dst, src-1, row[src-1], src)
			}
		}
	}
	if err := lb.Err(); err != nil {
		t.Fatal(err)
	}
	want := []struct{ writes, reads int }{{1, 2}, {1, 1}, {2, 2}, {2, 2}, {2, 2}}
	for i, c := range conns {
		if c.writes != want[i].writes || c.reads != want[i].reads || c.singleWrites != 0 || c.singleReads != 0 {
			t.Errorf("p%d's endpoint: %d batched writes, %d batched reads, %d single writes, %d single reads; want %d, %d, 0, 0",
				i+1, c.writes, c.reads, c.singleWrites, c.singleReads, want[i].writes, want[i].reads)
		}
	}
}

// TestLoopbackBatchTakesOnlyTheAwaitedFrame: over real UDP a destination's
// socket holds, ahead of the genuine copy, a 100-byte datagram whose first
// MaxFrame bytes are the awaited frame, and a previous run's frame for the
// same wait. One recvmmsg takes all three and only the genuine copy is
// delivered. The long datagram must never pass as the frame: with the
// genuine copy lost, the copy is written off.
func TestLoopbackBatchTakesOnlyTheAwaitedFrame(t *testing.T) {
	const n = 3
	lb, conns := countingLoopback(t, LoopbackConfig{RoundTimeout: 100 * time.Millisecond}, n, dialUDPLoopback)
	if _, ok := conns[0].PacketConn.(batchConn); !ok {
		t.Skip("no batched I/O on this platform")
	}
	order := identityOrder(n)
	stale, fresh := &core.StateMsg{Cond: 1, Out: 1, Tmf: 1}, &core.StateMsg{Cond: 3, Out: 2, Tmf: 4}
	var frame [MaxFrame]byte
	fl, err := EncodeFrame(frame[:], &Frame{Type: TypeData, Round: 1, Src: 2, Dst: 1, Payload: fresh})
	if err != nil {
		t.Fatal(err)
	}
	long := append(append([]byte(nil), frame[:fl]...), bytes.Repeat([]byte{0xAA}, 100-fl)...)
	row := make([]any, n)

	// A run whose p1 never drains its socket leaves p2's round-1 copy.
	lb.Reset(n)
	lb.BeginRound(1)
	lb.Send(1, 2, stale, order, n)

	lb.Reset(n)
	lb.BeginRound(1)
	if err := conns[1].PacketConn.WriteTo(long, 1); err != nil {
		t.Fatal(err)
	}
	lb.Send(1, 2, fresh, order, n)
	// Loopback delivery normally completes before sendmmsg returns; the
	// pause covers a kernel that defers it, so the three are queued.
	time.Sleep(20 * time.Millisecond)
	lb.Deliver(1, 1, row)
	if got, ok := row[1].(*core.StateMsg); !ok || *got != *fresh || row[0] != nil || row[2] != nil {
		t.Fatalf("row = %v, want only p2's %v", row, *fresh)
	}
	if lost, _, _ := lb.FaultCounts(); lost != 0 {
		t.Fatalf("lost = %d, want 0", lost)
	}
	if b := conns[0].batches; len(b) != 1 || b[0] != 3 {
		t.Fatalf("p1's batched reads took %v datagrams, want one read of 3", b)
	}

	// The genuine copy is lost in transit, retransmissions too: only the
	// long datagram carries the frame's bytes.
	conns[1].drop = func(f []byte) bool { return bytes.Equal(f, frame[:fl]) }
	lb.Reset(n)
	lb.BeginRound(1)
	if err := conns[1].PacketConn.WriteTo(long, 1); err != nil {
		t.Fatal(err)
	}
	lb.Send(1, 2, fresh, order, n)
	lb.Deliver(1, 1, row)
	if row[1] != nil {
		t.Fatalf("row[1] = %v from a truncated datagram, want nil", row[1])
	}
	if lost, _, _ := lb.FaultCounts(); lost != 1 {
		t.Fatalf("lost = %d, want 1", lost)
	}
	if err := lb.Err(); err != nil {
		t.Fatal(err)
	}
}
