package rounds

// Transport abstracts how one round's sends reach their destinations. The
// engine owns the crash adversary — it decides who sends, in which order,
// and how long a crashing sender's delivery prefix is — and hands the
// resulting deliveries to the transport; the transport owns everything
// that happens to a message between send and receive. The canonical
// implementation is MatrixTransport (the paper's reliable synchronous
// network: every handed-over copy arrives in the same round); faultnet's
// Transport drops, delays, duplicates and reorders copies instead.
//
// The engine drives a transport in lock step, never concurrently:
// Reset(n) once per run, then per round one BeginRound, the round's Send
// calls (senders in ascending ID order), and one Deliver per live
// destination (in ascending ID order; crashed and halted destinations are
// skipped, so a transport must not require that every round's sends are
// drained). A transport may therefore reuse all of its internal scratch
// across rounds and runs. The same contract binds every implementation —
// MatrixTransport, faultnet's fault injector, and the wire plane's
// codec-backed transports — and is pinned by the shared conformance suite
// in internal/rounds/transporttest:
//
//   - Reset(n) clears all in-flight state and zeroes Delivered.
//   - A copy handed to Send for destination d in round r is observable
//     only through Deliver(r', d, …): reliable transports surface it at
//     r' = r exactly once; faulty ones may drop, delay or duplicate it,
//     but never mutate it, reorder it onto another destination, or leak
//     it into a Deliver row of a different destination.
//   - Deliver fills the whole row: entries of processes that sent this
//     destination nothing this round are nil, never stale.
//   - Deliver may block (a wire transport waiting on sockets), but must
//     return within its configured deadline and honor a cancel channel
//     installed via CancelAware — the engine's liveness rests on every
//     blocking wait being bounded.
type Transport interface {
	// Reset prepares the transport for a fresh run over n processes,
	// clearing in-flight state and counters.
	Reset(n int)
	// BeginRound opens round r (r ≥ 1, strictly increasing within a run),
	// before any of the round's Send calls.
	BeginRound(r int)
	// Send hands over one sender's broadcast of round r: one copy of
	// payload addressed to each of the first limit destinations of order,
	// a permutation of the run's n processes (the engine has already
	// applied the crash adversary to compute both). order must be treated
	// as read-only; payload is valid for the current round only — a
	// transport that retains it longer must Freeze it (see Freezer).
	Send(r int, src ProcessID, payload any, order []ProcessID, limit int)
	// Deliver fills row — row[i] is the payload arriving at dst from
	// process i+1, nil if none — with round r's arrivals for dst. The
	// engine calls it once per live destination per round; the filled row
	// is consumed by the destination's Step before the next Deliver.
	Deliver(r int, dst ProcessID, row []any)
	// Delivered returns the number of message copies the transport has
	// accepted for delivery since Reset. For MatrixTransport this is
	// exactly the number of copies delivered; a faulty transport counts
	// copies it accepted (losses excluded, duplicates included), even if
	// a delayed copy is still in flight when the run ends.
	Delivered() int64
}

// Freezer is implemented by payloads that are only valid for the round
// they were sent in (protocols reuse one message buffer per process).
// A Transport that retains a payload past its round — delaying or
// duplicating it into a later round — must call Freeze and retain the
// returned copy instead.
type Freezer interface {
	// Freeze returns a copy of the payload that remains valid until the
	// caller hands it back: into is a copy an earlier Freeze returned and
	// nobody reads any more, to be overwritten and returned in place of a
	// fresh allocation. nil, or a value of a foreign type, allocates.
	Freeze(into any) any
}

// CancelAware is implemented by transports whose Deliver blocks on
// external progress — the wire plane's socket transports above all. The
// engine installs the run's Options.Cancel channel before the first round
// so that every blocking wait inside the transport can select on it and
// return early; the engine itself then observes the cancellation at the
// next round boundary. A nil channel must be accepted (and never waited
// on).
type CancelAware interface {
	// SetCancel installs the run's cancellation channel (nil for none).
	SetCancel(cancel <-chan struct{})
}

// FaultCounter is implemented by transports that inject faults; the
// engine reads the counters after a run into Result.Lost, Result.Delayed
// and Result.Duplicated.
type FaultCounter interface {
	// FaultCounts returns the number of message copies lost, delayed and
	// duplicated since Reset.
	FaultCounts() (lost, delayed, duplicated int64)
}

// MatrixTransport is the reliable synchronous network of the paper's
// model: every copy handed over by Send is delivered in the same round,
// stored in an n×n payload matrix. It is the seam's form of the engine's
// default delivery (which shares one row instead, with identical results),
// the engine's own transport when the adversary overrides a send order, and
// the baseline every fault-injecting transport degrades from. The
// zero value is ready to use; buffers grow to the largest n seen and are
// reused across runs, so a warm transport adds no per-run allocation.
type MatrixTransport struct {
	n         int
	mat       []any // mat[(dst-1)*n+(src-1)] = payload
	delivered int64
}

// Reset implements Transport.
func (t *MatrixTransport) Reset(n int) {
	if cap(t.mat) < n*n {
		t.mat = make([]any, n*n)
	}
	t.mat = t.mat[:n*n]
	t.n = n
	t.delivered = 0
	clear(t.mat)
}

// BeginRound implements Transport: the matrix is cleared, since every
// arrival of the previous round was consumed.
func (t *MatrixTransport) BeginRound(int) { clear(t.mat) }

// Send implements Transport: each of the limit copies lands in the
// destination's matrix row immediately.
func (t *MatrixTransport) Send(_ int, src ProcessID, payload any, order []ProcessID, limit int) {
	s := int(src) - 1
	for k := 0; k < limit; k++ {
		t.mat[(int(order[k])-1)*t.n+s] = payload
	}
	t.delivered += int64(limit)
}

// Deliver implements Transport by copying the destination's matrix row.
func (t *MatrixTransport) Deliver(_ int, dst ProcessID, row []any) {
	copy(row, t.mat[(int(dst)-1)*t.n:int(dst)*t.n])
}

// Delivered implements Transport.
func (t *MatrixTransport) Delivered() int64 { return t.delivered }
