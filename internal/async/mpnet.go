package async

import (
	"fmt"
	"sync"

	"kset/internal/prng"
	"kset/internal/vector"
)

// This file ports the shared-memory substrate to a crash-prone
// asynchronous message-passing system, the way the condition-based
// literature does ([20]'s message-passing protocols): each process also
// acts as a replica holding a copy of every register, a register write or
// read is an ABD-style quorum operation over n−x replicas, and the Afek
// snapshot construction runs unchanged on top through RegisterArray.
// Quorum intersection needs x < n/2 — the classical requirement for
// emulating registers under asynchrony — which Run enforces for this
// memory kind.
//
// The network is virtual: instead of replica goroutines, jittered sleeps
// and reply channels, each quorum operation picks a seeded pseudo-random
// quorum of live replicas — the adversary's choice of "which n−x replies
// arrive first" — and applies the protocol synchronously. The model is
// unchanged (any two quorums of size n−x intersect, reads write back the
// freshest value, crashed replicas stop responding), but an operation is
// now a few array reads instead of 2n goroutine handoffs, and a run's
// entire message schedule is a pure function of its seed.

// Network is an asynchronous message-passing system of n process-replicas
// emulating numRegs shared registers. Replica reply order is drawn from a
// seeded source; crashed replicas silently drop requests. A mutex guards
// the replica state so snapshots layered on top may be driven from
// concurrent goroutines; under the deterministic scheduler the lock is
// uncontended and the operation order — hence every draw — is a pure
// function of the seed.
type Network struct {
	mu      sync.Mutex
	n, x    int
	numRegs int
	viewLen int
	rng     prng.Rand
	// replicas[p][r] is replica p's copy of register r.
	replicas [][]*snapReg
	crashed  []bool
	quorum   []int // scratch: live replica ids, partially shuffled per op
	initial  *snapReg
}

// NewNetwork creates the n-replica virtual message-passing system
// tolerating x < n/2 crashes, emulating numRegs registers (each
// initialized to ⊥ with an empty embedded view of width viewLen).
func NewNetwork(n, x, numRegs, viewLen int, seed int64) (*Network, error) {
	if n < 2 {
		return nil, fmt.Errorf("async: network n=%d, want ≥ 2", n)
	}
	if x < 0 || 2*x >= n {
		return nil, fmt.Errorf("async: quorum emulation needs x < n/2, got x=%d n=%d", x, n)
	}
	if numRegs < 1 || viewLen < 0 {
		return nil, fmt.Errorf("async: bad register space (numRegs=%d viewLen=%d)", numRegs, viewLen)
	}
	nw := &Network{}
	nw.reset(n, x, numRegs, viewLen, seed)
	return nw, nil
}

// reset reinitializes the network in place, reusing replica storage when
// the shape allows. Pooled runners reset one network per run instead of
// reallocating the n×numRegs replica matrix.
func (nw *Network) reset(n, x, numRegs, viewLen int, seed int64) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	sameShape := nw.n == n && nw.numRegs == numRegs && nw.viewLen == viewLen
	nw.n, nw.x, nw.numRegs, nw.viewLen = n, x, numRegs, viewLen
	nw.rng = prng.New(uint64(seed))
	if !sameShape {
		nw.initial = &snapReg{value: vector.Bottom, view: vector.New(viewLen)}
		nw.replicas = make([][]*snapReg, n)
		for p := range nw.replicas {
			nw.replicas[p] = make([]*snapReg, numRegs)
		}
		nw.crashed = make([]bool, n)
		nw.quorum = make([]int, n)
	}
	for p := range nw.replicas {
		nw.crashed[p] = false
		for r := range nw.replicas[p] {
			nw.replicas[p][r] = nw.initial
		}
	}
}

// Crash makes replica id (1-based) stop responding; at most x replicas may
// crash or quorum operations lose their liveness guarantee.
func (nw *Network) Crash(id int) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if id >= 1 && id <= nw.n {
		nw.crashed[id-1] = true
	}
}

// Close releases the network. The virtual system holds no goroutines or
// sockets, so it is a no-op kept for interface compatibility with the
// former goroutine-backed implementation.
func (nw *Network) Close() {}

// drawQuorum fills nw.quorum with the live replicas and partially shuffles
// a prefix of size q = n−x: the adversary's choice of which replies arrive
// first. It returns that prefix (degraded to all live replicas if more
// than x have crashed — a state Run's validation makes unreachable).
// Callers hold nw.mu.
func (nw *Network) drawQuorum() []int {
	live := nw.quorum[:0]
	for p := 0; p < nw.n; p++ {
		if !nw.crashed[p] {
			live = append(live, p)
		}
	}
	q := nw.n - nw.x
	if q > len(live) {
		q = len(live)
	}
	for i := 0; i < q; i++ {
		j := i + nw.rng.Intn(len(live)-i)
		live[i], live[j] = live[j], live[i]
	}
	return live[:q]
}

// quorumArray is a RegisterArray window [offset, offset+count) over the
// network's register space. Clients are stateless: one instance may be
// shared by every process.
type quorumArray struct {
	nw            *Network
	offset, count int
}

// Registers returns the RegisterArray window [offset, offset+count).
func (nw *Network) Registers(offset, count int) (RegisterArray, error) {
	if offset < 0 || count < 1 || offset+count > nw.numRegs {
		return nil, fmt.Errorf("async: register window [%d,%d) outside space of %d", offset, offset+count, nw.numRegs)
	}
	return &quorumArray{nw: nw, offset: offset, count: count}, nil
}

// Len implements RegisterArray.
func (q *quorumArray) Len() int { return q.count }

// Load implements RegisterArray with the two-phase ABD read: query a
// quorum for the copy with the greatest sequence number, then write that
// copy back to a quorum before returning it, so that once a read returns
// a value no later read returns an older one (atomicity).
func (q *quorumArray) Load(i int) *snapReg {
	nw := q.nw
	nw.mu.Lock()
	defer nw.mu.Unlock()
	idx := q.offset + i
	best := nw.initial
	for _, p := range nw.drawQuorum() {
		if r := nw.replicas[p][idx]; r.seq > best.seq {
			best = r
		}
	}
	nw.storeQuorum(idx, best)
	return best
}

// Store implements RegisterArray with a quorum write. Sequence numbers are
// chosen by the single writer (the snapshot layer increments them), so no
// timestamp round-trip is needed.
func (q *quorumArray) Store(i int, r *snapReg) {
	nw := q.nw
	nw.mu.Lock()
	defer nw.mu.Unlock()
	nw.storeQuorum(q.offset+i, r)
}

// storeQuorum applies one quorum write: every replica of a fresh quorum
// adopts r unless it already holds a fresher copy. Callers hold nw.mu.
func (nw *Network) storeQuorum(idx int, r *snapReg) {
	for _, p := range nw.drawQuorum() {
		if r.seq > nw.replicas[p][idx].seq {
			nw.replicas[p][idx] = r
		}
	}
}
