package wire

import (
	"bytes"
	"errors"
	"time"

	"kset/internal/prng"
	"kset/internal/rounds"
)

// LoopbackConfig parameterizes the Loopback transport. The zero value
// uses UDP sockets on 127.0.0.1 with the default pacing.
type LoopbackConfig struct {
	// RoundTimeout bounds each destination's Deliver wait: a copy still
	// missing when it expires is written off as lost (the destination's
	// row keeps nil, the loss is counted). Default DefaultRoundTimeout.
	RoundTimeout time.Duration
	// Retransmit is the initial retransmission interval for missing
	// copies; it doubles with jitter up to RoundTimeout/4. Default
	// DefaultRetransmit.
	Retransmit time.Duration
	// Seed seeds the retransmission jitter (0 picks a fixed default).
	Seed uint64
	// Dial builds the n-endpoint mesh; nil binds n UDP sockets on
	// 127.0.0.1. Tests inject a PipeNet here to exercise loss and
	// retransmission deterministically.
	Dial func(n int) ([]PacketConn, error)
}

// loopSlot tracks one in-flight copy of the current round.
type loopSlot struct {
	frame   mailSlot // encoded datagram, len 0 when no copy was sent
	payload any      // decoded arrival, pointing into store
	got     bool
	store   payloadStore // read by the destination's Step, cleared next round
}

// Loopback is a rounds.Transport that moves every copy through real
// datagrams: n mesh endpoints (UDP loopback sockets by default) live in
// one process, Send transmits a sender's encoded copies as one batch, and
// Deliver reads batches at the destination's endpoint until the round's
// copies arrive — retransmitting missing ones with jittered exponential
// backoff — or the per-destination deadline expires, after which the
// stragglers are counted lost and the row keeps nil, exactly the shape a
// faultnet loss produces. Lossless runs are byte-identical to
// MatrixTransport runs; lossy ones fold into the same stats plane as
// faultnet campaigns via rounds.FaultCounter.
//
// The zero value has no mesh and never dials one: every copy takes the
// path a sender's copy to itself always takes — encoded into its slot,
// decoded back, marked arrived — with no sockets, goroutines or timing
// anywhere (see PipeTransport).
type Loopback struct {
	cfg       LoopbackConfig
	n         int
	conns     []PacketConn
	slots     []loopSlot // slots[(dst-1)*n+(src-1)]
	delivered int64
	lost      int64
	cancel    <-chan struct{}
	rng       prng.Rand
	firstErr  error
	frames    [][]byte           // a sender's remote copies of a round
	dsts      []rounds.ProcessID // and their destinations, sent as a batch
	bufs      [][]byte           // a destination's receive batch
	lens      []int              // and its datagrams' lengths
}

// PipeTransport is the deterministic in-process wire harness: a Loopback
// without a mesh. A run over &PipeTransport{} exercises exactly the
// serialization the UDP transports use, so it pins down that the codec
// preserves round semantics (results byte-identical to MatrixTransport)
// independently of network behavior.
type PipeTransport = Loopback

// NewLoopback builds the transport and dials its n-endpoint mesh.
func NewLoopback(cfg LoopbackConfig, n int) (*Loopback, error) {
	if cfg.RoundTimeout <= 0 {
		cfg.RoundTimeout = DefaultRoundTimeout
	}
	if cfg.Retransmit <= 0 {
		cfg.Retransmit = DefaultRetransmit
	}
	if cfg.Seed == 0 {
		cfg.Seed = 0x6B736574 // "kset"
	}
	if cfg.Dial == nil {
		cfg.Dial = dialUDPLoopback
	}
	t := &Loopback{cfg: cfg}
	if err := t.dial(n); err != nil {
		return nil, err
	}
	return t, nil
}

func (t *Loopback) dial(n int) error {
	conns, err := t.cfg.Dial(n)
	if err != nil {
		return err
	}
	if len(conns) != n {
		for _, c := range conns {
			c.Close()
		}
		return errors.New("wire: loopback dial returned wrong endpoint count")
	}
	t.Close()
	t.conns = conns
	t.n = n
	return nil
}

// Close releases the mesh endpoints.
func (t *Loopback) Close() error {
	for _, c := range t.conns {
		c.Close()
	}
	t.conns = nil
	return nil
}

// Err returns the first internal error hit since Reset: a codec failure
// on an engine payload or a redial failure. The engine-facing Transport
// methods cannot return errors, so a copy that fails the codec is dropped
// (indistinguishable from loss) and a transport whose redial failed runs
// meshless; either way the run terminates and the error is kept here.
func (t *Loopback) Err() error { return t.firstErr }

func (t *Loopback) fail(err error) {
	if t.firstErr == nil && err != nil {
		t.firstErr = err
	}
}

// SetCancel implements rounds.CancelAware.
func (t *Loopback) SetCancel(cancel <-chan struct{}) { t.cancel = cancel }

// Reset implements rounds.Transport, redialing only when n changes.
func (t *Loopback) Reset(n int) {
	t.firstErr = nil
	if t.cfg.Dial != nil && (n != t.n || t.conns == nil) {
		if err := t.dial(n); err != nil {
			t.fail(err)
			t.Close()
		}
	}
	t.n = n
	if cap(t.slots) < n*n {
		t.slots = make([]loopSlot, n*n)
		t.bufs, t.lens = make([][]byte, n), make([]int, n)
		for i := range t.bufs {
			t.bufs[i] = make([]byte, 64) // past MaxFrame: a longer datagram is too long for Peek
		}
	}
	t.slots = t.slots[:n*n]
	t.clearSlots()
	t.delivered = 0
	t.lost = 0
	t.rng = prng.New(t.cfg.Seed)
}

func (t *Loopback) clearSlots() {
	for i := range t.slots {
		t.slots[i] = loopSlot{}
	}
}

// BeginRound implements rounds.Transport.
func (t *Loopback) BeginRound(int) { t.clearSlots() }

// Send implements rounds.Transport: each copy is encoded once into its
// slot, kept there for retransmission, and the remote ones leave the
// sender's endpoint together, as one batch. Copies to the sender itself —
// and, without a mesh, all copies — short-circuit through the codec
// without touching the network. Delivered counts at hand-over, as
// MatrixTransport does, and is decremented for copies later written off.
func (t *Loopback) Send(r int, src rounds.ProcessID, payload any, order []rounds.ProcessID, limit int) {
	f := Frame{Type: TypeData, Round: r, Src: src, Payload: payload}
	t.frames, t.dsts = t.frames[:0], t.dsts[:0]
	for k := 0; k < limit; k++ {
		f.Dst = order[k]
		slot := &t.slots[(int(f.Dst)-1)*t.n+(int(src)-1)]
		n, err := EncodeFrame(slot.frame.buf[:], &f)
		if err != nil {
			t.fail(err)
			continue
		}
		slot.frame.len = n
		if f.Dst != src && t.conns != nil {
			t.frames, t.dsts = append(t.frames, slot.frame.bytes()), append(t.dsts, f.Dst)
			continue
		}
		if slot.payload, err = decodePayload(slot.frame.buf[headerSize:n], &slot.store); err != nil {
			t.fail(err)
			slot.frame.len = 0
			continue
		}
		slot.got = true
	}
	if len(t.frames) > 0 {
		t.fail(writeBatch(t.conns[int(src)-1], t.frames, t.dsts))
	}
	t.delivered += int64(limit)
}

// Deliver implements rounds.Transport: it drains the destination's
// endpoint until every copy sent to it this round has arrived, pacing
// retransmissions of the missing ones, and gives up at the deadline —
// counting each absentee as lost — so a Deliver can never hang. A run
// cancellation aborts the wait immediately.
func (t *Loopback) Deliver(_ int, dst rounds.ProcessID, row []any) {
	base := (int(dst) - 1) * t.n
	pending := 0
	for src := 0; src < t.n; src++ {
		slot := &t.slots[base+src]
		if slot.frame.len > 0 && !slot.got {
			pending++
		}
	}
	if pending > 0 {
		t.await(dst, base, pending)
	}
	for src := 0; src < t.n; src++ {
		slot := &t.slots[base+src]
		if slot.got {
			row[src] = slot.payload
		} else {
			row[src] = nil
			if slot.frame.len > 0 {
				t.lost++
				t.delivered--
				slot.frame.len = 0 // never retransmitted again
			}
		}
	}
}

// await reads dst's endpoint a batch at a time until the round's pending
// copies arrive or the deadline passes.
func (t *Loopback) await(dst rounds.ProcessID, base, pending int) {
	conn := t.conns[int(dst)-1]
	pc := startPacer(&t.rng, t.cfg.RoundTimeout, t.cfg.Retransmit, true)
	for pending > 0 {
		switch pc.tick(t.cancel) {
		case paceCanceled, paceExpired:
			return
		case paceSend:
			// Rare, and from different senders: one datagram apiece.
			for src := 0; src < t.n; src++ {
				slot := &t.slots[base+src]
				if slot.frame.len > 0 && !slot.got {
					if err := t.conns[src].WriteTo(slot.frame.bytes(), dst); err != nil {
						t.fail(err)
					}
				}
			}
		}
		k, err := pc.readBatch(conn, t.bufs, t.lens)
		if err != nil {
			t.fail(err)
			return
		}
		for i, buf := range t.bufs[:k] {
			data := buf[:t.lens[i]]
			_, _, fsrc, _, ok := Peek(data, t.n)
			if !ok {
				continue // noise, or truncated past MaxFrame
			}
			// The mesh outlives the run and a destination that crashed or
			// halted never drains its endpoint, so a previous run's datagram
			// for this very round, link and destination may be queued ahead
			// of the fresh one, and a frame carries no run identity. A copy
			// is therefore taken only when it is, byte for byte, the frame
			// its sender holds for this wait — which also rules out other
			// rounds, other destinations and links that sent nothing.
			slot := &t.slots[base+int(fsrc)-1]
			if slot.got || !bytes.Equal(data, slot.frame.bytes()) {
				continue // stale, unsolicited or duplicate
			}
			if slot.payload, err = decodePayload(data[headerSize:], &slot.store); err != nil {
				t.fail(err)
				continue
			}
			slot.got = true
			pending--
		}
	}
}

// Delivered implements rounds.Transport.
func (t *Loopback) Delivered() int64 { return t.delivered }

// FaultCounts implements rounds.FaultCounter: copies written off at the
// deadline surface as losses in the run's stats, the same plane faultnet
// campaigns report into.
func (t *Loopback) FaultCounts() (lost, delayed, duplicated int64) {
	return t.lost, 0, 0
}
