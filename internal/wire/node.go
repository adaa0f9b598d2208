package wire

import (
	"errors"
	"fmt"
	"time"

	"kset/internal/prng"
	"kset/internal/rounds"
	"kset/internal/vector"
)

// NodeConfig parameterizes one peer of a multi-process agreement run.
type NodeConfig struct {
	// ID is this peer's process ID (1..N).
	ID rounds.ProcessID
	// N is the total number of processes in the run.
	N int
	// MaxRounds is the protocol's round bound (Params.RMax for the
	// condition-based algorithms): a peer that has not decided by then
	// returns undecided.
	MaxRounds int
	// Conn is the peer's mesh endpoint. The node owns it for the run but
	// does not close it.
	Conn PacketConn
	// RoundTimeout is the synchrony parameter: a peer that has produced
	// no round payload for this long is suspected crashed, permanently.
	// Default DefaultRoundTimeout.
	RoundTimeout time.Duration
	// Retransmit is the initial retransmission interval for unacked
	// frames; it doubles with jitter up to RoundTimeout/4. Default
	// DefaultRetransmit.
	Retransmit time.Duration
	// Linger bounds the courtesy phase after the peer finishes, during
	// which it keeps acking stray frames and retransmitting its final
	// round's frames for slower peers. Default RoundTimeout.
	Linger time.Duration
	// Seed seeds retransmission jitter (0 derives one from ID).
	Seed uint64
	// Cancel, when non-nil and closed, aborts the run: RunNode returns
	// rounds.ErrCanceled (or the result, if the peer had already
	// finished and was merely lingering).
	Cancel <-chan struct{}
	// OnRound, when non-nil, runs right after the round's payload is
	// first transmitted — a hook for progress markers and chaos tests.
	OnRound func(round int)
}

// NodeResult is the outcome of one peer's run.
type NodeResult struct {
	// Decided reports whether the protocol decided; Value is the decided
	// value when it did.
	Decided bool
	Value   vector.Value
	// Round is the decision round, or the last round run when undecided.
	Round int
	// Suspected lists the peers written off as crashed, in the order
	// they were suspected.
	Suspected []rounds.ProcessID
	// FramesSent, FramesReceived and Retransmits count datagrams written
	// (all types, including retransmissions), datagrams read, and data
	// retransmissions beyond each frame's first send.
	FramesSent, FramesReceived, Retransmits int64
}

// futKey addresses a buffered payload from a peer running ahead of us.
// Only rounds in (round, MaxRounds] are buffered, so a node never holds
// more than (MaxRounds − round)·(N − 1) of them.
type futKey struct {
	round int
	src   rounds.ProcessID
}

// node is the run state of one peer.
type node struct {
	cfg NodeConfig
	rng prng.Rand
	res NodeResult

	suspected []bool // suspected[p-1]
	finished  []bool // finished[p-1]: peer sent fin
	finRound  []int  // its last participating round
	finAcked  []bool // peer finacked OUR fin
	future    map[futKey]any

	// Per-round state.
	round int
	got   []bool
	acked []bool
	recv  []any

	sendBuf mailSlot // this round's data frame; dst byte patched per write
	ctlBuf  [MaxFrame]byte
	readBuf [64]byte
}

// RunNode drives one process's protocol instance over the mesh until it
// decides, exhausts MaxRounds, or is canceled. Each round it broadcasts
// the payload with retransmit-until-ack, collects the round's payloads
// from every unsuspected peer, and at the round deadline maps peers that
// produced nothing into crash suspicion — so the run always terminates,
// decided or undecided, within MaxRounds round deadlines. Suspicion is
// crash-stop: a suspected peer's later frames are acked (so its
// retransmissions quiesce) but its payloads are ignored, which is
// exactly how the engine's crash adversary looks to the protocol.
func RunNode(proc rounds.Process, cfg NodeConfig) (*NodeResult, error) {
	nd, err := newNode(cfg)
	if err != nil {
		return nil, err
	}
	return nd.run(proc)
}

// newNode validates the configuration, fills in its defaults and builds
// the run state.
func newNode(cfg NodeConfig) (*node, error) {
	if cfg.N < 1 || cfg.ID < 1 || int(cfg.ID) > cfg.N || cfg.N > 255 {
		return nil, fmt.Errorf("wire: node id %d of n=%d out of range", cfg.ID, cfg.N)
	}
	if cfg.MaxRounds < 1 {
		return nil, errors.New("wire: node needs MaxRounds ≥ 1")
	}
	if cfg.N > 1 && cfg.Conn == nil {
		return nil, errors.New("wire: node needs a conn")
	}
	if cfg.RoundTimeout <= 0 {
		cfg.RoundTimeout = DefaultRoundTimeout
	}
	if cfg.Retransmit <= 0 {
		cfg.Retransmit = DefaultRetransmit
	}
	if cfg.Linger <= 0 {
		cfg.Linger = cfg.RoundTimeout
	}
	if cfg.Seed == 0 {
		cfg.Seed = 0x6B736574 + uint64(cfg.ID)<<32
	}
	return &node{
		cfg:       cfg,
		rng:       prng.New(cfg.Seed),
		suspected: make([]bool, cfg.N),
		finished:  make([]bool, cfg.N),
		finRound:  make([]int, cfg.N),
		finAcked:  make([]bool, cfg.N),
		future:    make(map[futKey]any),
		got:       make([]bool, cfg.N),
		acked:     make([]bool, cfg.N),
		recv:      make([]any, cfg.N),
	}, nil
}

func (nd *node) run(proc rounds.Process) (*NodeResult, error) {
	for r := 1; ; r++ {
		if err := nd.beginRound(r, proc.Send(r)); err != nil {
			return nil, err
		}
		if err := nd.exchange(); err != nil {
			return nil, err
		}
		v, done := proc.Step(r, nd.recv)
		nd.res.Round = r
		if done {
			nd.res.Decided = true
			nd.res.Value = v
			return nd.finish()
		}
		if r >= nd.cfg.MaxRounds {
			return nd.finish()
		}
	}
}

// beginRound encodes the round's data frame and installs the round state,
// replaying payloads buffered from peers that ran ahead.
func (nd *node) beginRound(r int, payload any) error {
	nd.round = r
	me := int(nd.cfg.ID) - 1
	for i := range nd.got {
		nd.got[i] = false
		nd.acked[i] = false
		nd.recv[i] = nil
	}
	f := Frame{Type: TypeData, Round: r, Src: nd.cfg.ID, Dst: nd.cfg.ID, Payload: payload}
	n, err := EncodeFrame(nd.sendBuf.buf[:], &f)
	if err != nil {
		return err
	}
	nd.sendBuf.len = n
	// Self-delivery round-trips the codec, like every other copy.
	dec, err := DecodeFrame(nd.sendBuf.bytes())
	if err != nil {
		return err
	}
	nd.got[me] = true
	nd.acked[me] = true
	nd.recv[me] = dec.Payload
	for p := 1; p <= nd.cfg.N; p++ {
		if pay, ok := nd.future[futKey{r, rounds.ProcessID(p)}]; ok {
			delete(nd.future, futKey{r, rounds.ProcessID(p)})
			if nd.expect(rounds.ProcessID(p)) {
				nd.got[p-1] = true
				nd.recv[p-1] = pay
			}
		}
	}
	return nil
}

// expect reports whether peer p owes us this round's payload (and an ack
// for ours): not us, not suspected, not finished before this round.
func (nd *node) expect(p rounds.ProcessID) bool {
	if p == nd.cfg.ID || nd.suspected[p-1] {
		return false
	}
	if nd.finished[p-1] && nd.finRound[p-1] < nd.round {
		return false
	}
	return true
}

// confirmed reports whether every expected peer has acked this round's
// data and is marked in also: got (its payload arrived) completes a round,
// finAcked (it confirmed our fin) completes the linger.
func (nd *node) confirmed(also []bool) bool {
	for p := 1; p <= nd.cfg.N; p++ {
		if nd.expect(rounds.ProcessID(p)) && !(also[p-1] && nd.acked[p-1]) {
			return false
		}
	}
	return true
}

// exchange runs one round's network phase: broadcast with
// retransmit-until-ack, collect payloads, suspect absentees at the
// deadline.
func (nd *node) exchange() error {
	pc := startPacer(&nd.rng, nd.cfg.RoundTimeout, nd.cfg.Retransmit, false)
	first := true
	for !nd.confirmed(nd.got) {
		switch pc.tick(nd.cfg.Cancel) {
		case paceCanceled:
			return rounds.ErrCanceled
		case paceExpired:
			nd.suspectAbsentees()
			return nil
		case paceSend:
			if err := nd.broadcast(first); err != nil {
				return err
			}
			if first && nd.cfg.OnRound != nil {
				nd.cfg.OnRound(nd.round)
			}
			first = false
		}
		if err := nd.readOne(&pc); err != nil {
			return err
		}
	}
	return nil
}

// broadcast (re)transmits the round's data frame to every expected peer
// that has not acked it yet.
func (nd *node) broadcast(first bool) error {
	for p := 1; p <= nd.cfg.N; p++ {
		pid := rounds.ProcessID(p)
		if !nd.expect(pid) || nd.acked[p-1] {
			continue
		}
		nd.sendBuf.buf[5] = byte(pid)
		if err := nd.write(nd.sendBuf.bytes(), pid); err != nil {
			return err
		}
		if !first {
			nd.res.Retransmits++
		}
	}
	return nil
}

// readOne waits for at most one datagram, as long as the pacer allows,
// and dispatches it.
func (nd *node) readOne(pc *pacer) error {
	n, err := pc.read(nd.cfg.Conn, nd.readBuf[:])
	if err != nil || n == 0 {
		return err
	}
	nd.res.FramesReceived++
	nd.handle(nd.readBuf[:n])
	return nil
}

// handle dispatches one datagram. Malformed or misdirected datagrams are
// dropped by the cheap header filter before any payload decoding.
func (nd *node) handle(data []byte) {
	t, r, src, dst, ok := Peek(data, nd.cfg.N)
	if !ok || dst != nd.cfg.ID || src == nd.cfg.ID {
		return
	}
	p := int(src) - 1
	switch t {
	case TypeData:
		nd.handleData(data, r, src)
	case TypeAck:
		if r == nd.round {
			nd.acked[p] = true
		}
	case TypeFin:
		nd.sendCtl(TypeFinAck, r, src)
		if !nd.finished[p] {
			nd.finished[p] = true
			nd.finRound[p] = r
		}
	case TypeFinAck:
		nd.finAcked[p] = true
	}
}

// handleData acks and records one data frame. Stale rounds are acked but
// discarded; future rounds are acked and buffered (the ack stops the
// sender's retransmissions, so the payload must be kept); suspected
// peers are acked but ignored — crash-stop. A round past MaxRounds is one
// this node will never run: no honest peer sends it, so it is dropped
// unacked and unstored, which is what bounds the buffer.
func (nd *node) handleData(data []byte, r int, src rounds.ProcessID) {
	if r > nd.cfg.MaxRounds {
		return
	}
	p := int(src) - 1
	if r < nd.round || nd.suspected[p] {
		nd.sendCtl(TypeAck, r, src)
		return
	}
	if r == nd.round {
		if !nd.got[p] {
			f, err := DecodeFrame(data)
			if err != nil {
				return // corrupt payload: no ack, let the sender retry
			}
			nd.got[p] = true
			nd.recv[p] = f.Payload
		}
		nd.sendCtl(TypeAck, r, src)
		return
	}
	// Future round: the peer is ahead of us.
	key := futKey{r, src}
	if _, dup := nd.future[key]; !dup {
		f, err := DecodeFrame(data)
		if err != nil {
			return
		}
		nd.future[key] = f.Payload
	}
	nd.sendCtl(TypeAck, r, src)
}

// suspectAbsentees writes off every peer whose round payload never
// arrived. Permanent: the protocol model is crash-stop, and the round
// deadline is the synchrony assumption that makes suspicion sound.
func (nd *node) suspectAbsentees() {
	for p := 1; p <= nd.cfg.N; p++ {
		pid := rounds.ProcessID(p)
		if nd.expect(pid) && !nd.got[p-1] {
			nd.suspected[p-1] = true
			nd.res.Suspected = append(nd.res.Suspected, pid)
		}
	}
}

// finish runs the bounded linger phase: announce fin, keep acking stray
// frames, retransmit the final round's unacked data and unacked fins,
// and leave once every live peer confirmed or the linger budget is
// spent. A canceled linger returns the (already final) result.
func (nd *node) finish() (*NodeResult, error) {
	pc := startPacer(&nd.rng, nd.cfg.Linger, nd.cfg.Retransmit, false)
	for !nd.confirmed(nd.finAcked) {
		switch pc.tick(nd.cfg.Cancel) {
		case paceCanceled, paceExpired:
			return &nd.res, nil
		case paceSend:
			if nd.lingerTransmit() != nil {
				return &nd.res, nil
			}
		}
		if nd.readOne(&pc) != nil {
			break
		}
	}
	return &nd.res, nil
}

// lingerTransmit (re)sends the final round's data frame and the fin to
// peers that have not confirmed them.
func (nd *node) lingerTransmit() error {
	if err := nd.broadcast(false); err != nil {
		return err
	}
	for p := 1; p <= nd.cfg.N; p++ {
		if pid := rounds.ProcessID(p); nd.expect(pid) && !nd.finAcked[p-1] {
			nd.sendCtl(TypeFin, nd.round, pid)
		}
	}
	return nil
}

// sendCtl emits one payload-free control frame.
func (nd *node) sendCtl(t FrameType, r int, dst rounds.ProcessID) {
	f := Frame{Type: t, Round: r, Src: nd.cfg.ID, Dst: dst}
	n, err := EncodeFrame(nd.ctlBuf[:], &f)
	if err != nil {
		return // unencodable control frame: nothing useful to do
	}
	nd.write(nd.ctlBuf[:n], dst)
}

// write transmits one datagram, counting it.
func (nd *node) write(b []byte, dst rounds.ProcessID) error {
	err := nd.cfg.Conn.WriteTo(b, dst)
	if err == nil {
		nd.res.FramesSent++
	}
	return err
}
