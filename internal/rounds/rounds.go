package rounds

import (
	"errors"
	"fmt"

	"kset/internal/vector"
)

// ErrCanceled reports a run aborted between rounds through Options.Cancel.
// Callers driving the engine under a context map it back to the context's
// error; the partially executed run produced no Result.
var ErrCanceled = errors.New("rounds: run canceled")

// ProcessID identifies a process; IDs are 1-based like the paper's p_1..p_n.
type ProcessID int

// Process is a deterministic round-based protocol instance for one process.
// The engine calls Send then Step once per round until Step reports a
// decision (the process then halts: it neither sends nor steps afterwards)
// or the engine's round limit is reached.
type Process interface {
	// Send returns the payload this process broadcasts in the given round.
	// The engine delivers it (subject to crashes) to every process,
	// including the sender itself.
	Send(round int) any
	// Step consumes the payloads received in the given round — recv[i]
	// holds the payload from process i+1, nil if none — and performs the
	// compute phase. It returns done=true with the decided value when the
	// process decides and halts. recv and the payloads in it belong to the
	// engine and its transport, which reuse them: a process copies out
	// what it needs and retains neither past the call.
	Step(round int, recv []any) (value vector.Value, done bool)
}

// Folder is an optional extension of Process for protocols whose compute
// phase reads the receive row only through a digest of it — a merged
// state, a classified view — that does not depend on which process reads.
// The contract is
//
//	Step(round, recv)  ≡  Fold(round, recv); StepFolded(round)
//
// on the process's state and return values, where Fold computes the
// digest, a pure function of (round, recv), into the state FoldState names
// and StepFolded performs the compute phase from that digest and the
// process's own state. Only Fold writes the shared state — Step keeps its
// digest to itself, so the processes of a run may be stepped from separate
// goroutines (wire nodes are) — and only one engine at a time calls Fold
// and StepFolded.
//
// In the Section 6.2 model the receivers of a round disagree only about
// senders that crash in that round, so a round with c crashing senders has
// at most c+1 distinct rows. A run without a transport — traced or not —
// therefore calls Fold once per distinct row — on the first live Folder
// that reads it — and StepFolded on every live Folder: n·(1+c) merges per
// round instead of n². The choice is made per destination: the Folders
// whose FoldState equals that of the slice's first Folder fold each
// distinct row once, and every other process in the slice — a plain
// Process, a Folder of another constructor call — gets Step on the same
// row. Through the transport seam (an installed transport, or send-order
// overrides: rows differ per destination) every process gets Step.
//
// A digest need not be a merged value: core's early-deciding wrappers keep
// two sender bitsets (who was silent, who carried a flag) beside the inner
// algorithm's digest, and what depends on the reader — a silent sender is a
// crash to one, a decider to another — is one popcount in StepFolded.
//
// A type that embeds a Folder inherits all three methods with it: if it
// overrides Step, a folded run would bypass the override. Hold the Folder
// in a named field instead, as core's early-deciding wrappers do — they
// implement Folder themselves, over the inner process's two halves.
type Folder interface {
	Process
	Fold(round int, recv []any)
	StepFolded(round int) (value vector.Value, done bool)
	// FoldState identifies the shared state Fold writes and StepFolded
	// reads: a pointer, equal exactly for Folders that share it.
	FoldState() any
}

// Crash schedules the crash of one process.
type Crash struct {
	// Round is the round during whose send phase the process crashes
	// (≥ 1). The process makes no receive or compute step in that round.
	Round int
	// AfterSends is how many messages, counted along the process's send
	// order for that round, are delivered before the crash (0..n).
	AfterSends int
}

// FailurePattern is the adversary: which processes crash, when, after how
// many deliveries, and (for rounds after the first) in which order each
// process sends.
type FailurePattern struct {
	// Crashes maps a process to its crash schedule.
	Crashes map[ProcessID]Crash
	// Orders optionally overrides the send order of a process in rounds
	// ≥ 2 (the paper fixes round 1's order to p_1..p_n). Each order must
	// be a permutation of all processes.
	Orders map[ProcessID]map[int][]ProcessID
}

// NumCrashes returns the number of scheduled crashes.
func (fp FailurePattern) NumCrashes() int { return len(fp.Crashes) }

// InitialCrashes returns how many processes crash in round 1 before
// sending anything at all — the paper's "initially crashed" processes.
func (fp FailurePattern) InitialCrashes() int {
	c := 0
	for _, cr := range fp.Crashes {
		if cr.Round == 1 && cr.AfterSends == 0 {
			c++
		}
	}
	return c
}

// CrashesByEndOfRound returns how many processes have crashed by the end
// of round r.
func (fp FailurePattern) CrashesByEndOfRound(r int) int {
	c := 0
	for _, cr := range fp.Crashes {
		if cr.Round <= r {
			c++
		}
	}
	return c
}

// Validate checks the pattern against a system of n processes. Any round
// ≥ 1 is a legal crash round: a crash scheduled past the round in which the
// run ends never fires, and its process runs as a correct one.
func (fp FailurePattern) Validate(n int) error {
	for id, cr := range fp.Crashes {
		if err := validateCrash(id, cr, n); err != nil {
			return err
		}
	}
	return fp.validateOrders(n)
}

// validateCrash is Validate's per-crash check; Engine.RunInto makes it in
// the pass that resolves the schedule.
func validateCrash(id ProcessID, cr Crash, n int) error {
	if id < 1 || int(id) > n {
		return fmt.Errorf("rounds: crash of unknown process %d", id)
	}
	if cr.Round < 1 {
		return fmt.Errorf("rounds: process %d crashes in round %d < 1", id, cr.Round)
	}
	if cr.AfterSends < 0 || cr.AfterSends > n {
		return fmt.Errorf("rounds: process %d delivers %d of %d messages", id, cr.AfterSends, n)
	}
	return nil
}

func (fp FailurePattern) validateOrders(n int) error {
	for id, byRound := range fp.Orders {
		if id < 1 || int(id) > n {
			return fmt.Errorf("rounds: order for unknown process %d", id)
		}
		for r, order := range byRound {
			if r < 2 {
				return fmt.Errorf("rounds: process %d: round-%d order is fixed by the model", id, r)
			}
			if err := validatePermutation(order, n); err != nil {
				return fmt.Errorf("rounds: process %d round %d: %w", id, r, err)
			}
		}
	}
	return nil
}

func validatePermutation(order []ProcessID, n int) error {
	if len(order) != n {
		return fmt.Errorf("order has %d entries, want %d", len(order), n)
	}
	seen := make([]bool, n+1)
	for _, id := range order {
		if id < 1 || int(id) > n || seen[id] {
			return fmt.Errorf("order %v is not a permutation of 1..%d", order, n)
		}
		seen[id] = true
	}
	return nil
}

// Result reports one synchronous execution.
type Result struct {
	// Decisions maps each process that decided to its decided value.
	Decisions map[ProcessID]vector.Value
	// DecisionRound maps each decided process to its decision round.
	DecisionRound map[ProcessID]int
	// Crashed is the set of processes that crashed.
	Crashed map[ProcessID]bool
	// Rounds is the number of rounds actually executed.
	Rounds int
	// MessagesDelivered counts the message copies the run's transport
	// accepted for delivery (for the reliable default: delivered messages
	// exactly).
	MessagesDelivered int64
	// Lost, Delayed and Duplicated count the message copies the run's
	// transport dropped, deferred to a later round and duplicated. They
	// are zero under reliable delivery; a fault-injecting transport (see
	// FaultCounter) fills them.
	Lost, Delayed, Duplicated int64
	// maxDecision is the latest decision round the engine applied while it
	// filled this Result (0: none, or the engine did not fill it).
	maxDecision int
}

// Reset clears the result for reuse, retaining its map storage. Batch
// drivers that only aggregate statistics pass a recycled Result to
// Engine.RunInto and skip the per-run map allocations entirely.
func (r *Result) Reset() {
	if r.Decisions == nil {
		r.Decisions = make(map[ProcessID]vector.Value)
	} else {
		clear(r.Decisions)
	}
	if r.DecisionRound == nil {
		r.DecisionRound = make(map[ProcessID]int)
	} else {
		clear(r.DecisionRound)
	}
	if r.Crashed == nil {
		r.Crashed = make(map[ProcessID]bool)
	} else {
		clear(r.Crashed)
	}
	*r = Result{Decisions: r.Decisions, DecisionRound: r.DecisionRound, Crashed: r.Crashed}
}

// MaxDecisionRound returns the latest round at which any process decided, 0
// when none did: what the engine recorded, or a scan for a hand-built Result.
func (r *Result) MaxDecisionRound() int {
	maxR := r.maxDecision
	if maxR > 0 {
		return maxR
	}
	for _, round := range r.DecisionRound {
		maxR = max(maxR, round)
	}
	return maxR
}

// DistinctDecisions returns the set of decided values.
func (r *Result) DistinctDecisions() vector.Set {
	var s vector.Set
	for _, v := range r.Decisions {
		s = s.Add(v)
	}
	return s
}

// Options configures an execution.
type Options struct {
	// MaxRounds caps the execution; the engine also stops as soon as every
	// live process has decided.
	MaxRounds int
	// Trace, when non-nil, is filled with the round-by-round events of the
	// execution (rendering payloads with fmt); the run it records is the
	// run that executes without it.
	Trace *Trace
	// Transport, when non-nil, overrides how each round's sends reach
	// their destinations (message loss, delay, duplication, reordering —
	// see internal/faultnet). nil is the paper's reliable crash-respecting
	// delivery, result for result what a MatrixTransport delivers.
	Transport Transport
	// Cancel, when non-nil, aborts the run between rounds once the
	// channel is closed: the engine returns ErrCanceled instead of a
	// Result. Batch drivers pass a context's Done channel here so an
	// in-flight synchronous run stops at the next round boundary — at
	// most one round of work after cancellation — instead of running to
	// its MaxRounds bound. A nil channel costs nothing per round.
	Cancel <-chan struct{}
}

// Engine executes synchronous runs while reusing its internal buffers
// (the shared receive row, the liveness array, the resolved crash schedule
// and the identity send order) across calls. Sweeps that drive thousands of
// runs — exhaustive adversary model checking above all — should create one
// Engine and call its Run repeatedly; each call then costs only the small
// per-run Result (which the caller may retain freely).
//
// An Engine is not safe for concurrent use.
type Engine struct {
	// down[i]: process i+1 has crashed or decided, and sends and steps no more.
	down     []bool
	identity []ProcessID

	// crashes[i] is process i+1's entry of fp.Crashes, resolved once per
	// run; a process that never crashes has the zero Crash, round 0.
	crashes []Crash

	// mt is the built-in transport of runs whose adversary overrides a
	// send order, embedded so that they reuse its matrix across runs.
	mt MatrixTransport

	// row is the one receive row every destination's compute phase reads.
	// A transport's Deliver fills it per destination; without a transport
	// the send phase writes destination 1's row and it is patched where a
	// crashing sender's delivery prefix ends — partial lists, as indexes,
	// the senders whose prefix ends within the row this round — instead of
	// materializing the n×n matrix.
	row     []any
	partial []int

	// folders[i] is procs[i] as a Folder, nil when it is a plain Process,
	// does not share the first Folder's FoldState, or the run has a
	// transport; resolved once per run.
	folders []Folder
}

// NewEngine returns an Engine with no buffers allocated yet; they grow to
// the largest n seen and are reused afterwards.
func NewEngine() *Engine { return &Engine{} }

// reset sizes the scratch buffers for a run over n processes.
func (e *Engine) reset(n int) {
	if cap(e.row) < n {
		e.down = make([]bool, n)
		e.identity = make([]ProcessID, n)
		for i := range e.identity {
			e.identity[i] = ProcessID(i + 1)
		}
		e.crashes = make([]Crash, n)
		e.folders = make([]Folder, n)
		e.row = make([]any, n)
		e.partial = make([]int, 0, n)
	}
	e.down = e.down[:n]
	// A transport sizes its send loop by len(order), so the identity
	// order of a larger earlier run must not leak into a smaller one.
	e.identity = e.identity[:n]
	e.crashes = e.crashes[:n]
	e.folders = e.folders[:n]
	e.row = e.row[:n]
	clear(e.down)
	clear(e.crashes)
}

// Run executes the processes lock-step under the failure pattern. procs[i]
// is process i+1. It returns an error only for malformed configurations;
// protocol outcomes (including nobody deciding) are reported in Result.
// The returned Result is freshly allocated and remains valid after further
// Run calls; only the engine's internal scratch is reused.
func (e *Engine) Run(procs []Process, fp FailurePattern, opts Options) (*Result, error) {
	return e.RunInto(nil, procs, fp, opts)
}

// RunInto is Run writing into a caller-provided Result, which is cleared
// (Reset) and returned; res == nil allocates a fresh one. Sweeps that only
// read each result before the next run recycle one Result and make the
// whole run allocation-free.
func (e *Engine) RunInto(res *Result, procs []Process, fp FailurePattern, opts Options) (*Result, error) {
	n := len(procs)
	if n == 0 {
		return nil, fmt.Errorf("rounds: no processes")
	}
	for i, p := range procs {
		if p == nil {
			return nil, fmt.Errorf("rounds: process %d is nil", i+1)
		}
	}
	if opts.MaxRounds < 1 {
		return nil, fmt.Errorf("rounds: MaxRounds = %d, want ≥ 1", opts.MaxRounds)
	}
	e.reset(n) // then one pass validates and resolves the crash schedule
	for id, cr := range fp.Crashes {
		if err := validateCrash(id, cr, n); err != nil {
			return nil, err
		}
		e.crashes[id-1] = cr
	}
	if len(fp.Orders) > 0 {
		if err := fp.validateOrders(n); err != nil {
			return nil, err
		}
	}
	if res == nil {
		res = &Result{
			Decisions:     make(map[ProcessID]vector.Value, n),
			DecisionRound: make(map[ProcessID]int, n),
			Crashed:       make(map[ProcessID]bool, fp.NumCrashes()),
		}
	} else {
		res.Reset()
	}

	// The transport alone picks the delivery. Without one the engine's own
	// shared row is the paper's reliable network; an installed transport, or
	// the built-in matrix when the adversary reorders sends (rows are then no
	// containment chain), is driven through the seam.
	tr := opts.Transport
	if tr == nil && len(fp.Orders) > 0 {
		tr = &e.mt
	}
	clear(e.folders)
	if tr == nil {
		var shared any
		for i, p := range procs {
			if f, ok := p.(Folder); ok {
				state := f.FoldState()
				if shared == nil {
					shared = state
				}
				if state == shared { // else another run's Folder: Step it
					e.folders[i] = f
				}
			}
		}
	} else {
		tr.Reset(n)
		// Blocking transports (the wire plane) honor the run's cancel
		// channel inside Deliver; the engine still checks it at every
		// round boundary.
		if ca, ok := tr.(CancelAware); ok {
			ca.SetCancel(opts.Cancel)
		}
	}

	if opts.Trace != nil {
		opts.Trace.N = n
		opts.Trace.Rounds = opts.Trace.Rounds[:0]
	}
	for r := 1; r <= opts.MaxRounds; r++ {
		if opts.Cancel != nil {
			select {
			case <-opts.Cancel:
				return nil, ErrCanceled
			default:
			}
		}
		var rt *RoundTrace
		if opts.Trace != nil {
			opts.Trace.Rounds = append(opts.Trace.Rounds, RoundTrace{
				Round:     r,
				Sends:     make(map[ProcessID]SendTrace),
				Decisions: make(map[ProcessID]vector.Value),
			})
			rt = &opts.Trace.Rounds[len(opts.Trace.Rounds)-1]
		}
		if e.runRound(procs, fp, r, res, tr, rt) {
			break
		}
	}
	if fc, ok := tr.(FaultCounter); ok {
		res.Lost, res.Delayed, res.Duplicated = fc.FaultCounts()
	}
	return res, nil
}

// runRound executes round r — send phase under the crash adversary, receive
// phase, compute phase, one pass over the processes each — and reports
// whether the run should stop (every process has crashed or decided).
// tr == nil delivers on the engine's shared row: a sender crashing after s
// sends reaches destinations p_1..p_s of the fixed identity order, so the row
// of destination 1 is patched where a prefix ends, and destinations that are
// Folders share one Fold per distinct row (see Folder). Otherwise every
// destination's row is what tr delivers, and it is stepped. A decision takes
// effect where it is made: down[i] is read only for process i+1 itself,
// before its step. rt, when non-nil, records the round; it changes nothing
// that executes.
func (e *Engine) runRound(procs []Process, fp FailurePattern, r int, res *Result, tr Transport, rt *RoundTrace) (stop bool) {
	// Locals sliced to n: no reload through e, no bounds check, after a call.
	n := len(procs)
	row, down, crashes, folders := e.row[:n], e.down[:n], e.crashes[:n], e.folders[:n]
	partial := e.partial[:0]
	if tr != nil {
		tr.BeginRound(r)
	}

	// Send phase: the engine applies the crash adversary (send order and
	// delivery prefix length) to each broadcast. cut is the smallest prefix
	// end among partial — the first destination (as an index) to read
	// another row than its predecessor — and n when there is none.
	cut := n
	var delivered int64
	for i, p := range procs {
		if down[i] {
			row[i] = nil
			continue
		}
		id := ProcessID(i + 1)
		payload := p.Send(r)
		limit := n
		if crashes[i].Round == r {
			limit = crashes[i].AfterSends
			down[i] = true
			res.Crashed[id] = true
			if rt != nil {
				rt.Crashes = append(rt.Crashes, id)
			}
		}
		if rt != nil {
			rt.Sends[id] = SendTrace{Payload: fmt.Sprintf("%v", payload), Delivered: limit}
		}
		if tr != nil {
			// Round 1 is always the paper's fixed p_1..p_n (Validate admits
			// no order for it); later rounds honor the adversary's override.
			order := fp.Orders[id][r]
			if order == nil {
				order = e.identity
			}
			tr.Send(r, id, payload, order, limit)
			continue
		}
		delivered += int64(limit)
		row[i] = payload
		if limit < n { // a prefix of 0 ends before destination 1
			partial = append(partial, i)
			cut = min(cut, limit)
		}
	}
	res.Rounds = r
	res.MessagesDelivered += delivered
	if tr != nil {
		res.MessagesDelivered = tr.Delivered()
	}

	// Receive + compute phase: each live destination's row, consumed by its
	// compute phase in turn. folded says the Folders' shared digest is of the
	// row as it stands; on the seam no process is folded and partial is empty.
	// live counts the processes stepped and not done: those left to run.
	live := 0
	folded := false
	for i, p := range procs {
		if i == cut {
			// Drop the senders whose prefix ends here; find the next end.
			cut = n
			for _, src := range partial {
				if l := crashes[src].AfterSends; l == i {
					row[src] = nil
				} else if l > i {
					cut = min(cut, l)
				}
			}
			folded = false
		}
		if down[i] {
			continue
		}
		id := ProcessID(i + 1)
		if tr != nil {
			tr.Deliver(r, id, row)
		}
		var v vector.Value
		var done bool
		if f := folders[i]; f != nil {
			if !folded {
				f.Fold(r, row)
				folded = true
			}
			v, done = f.StepFolded(r)
		} else {
			v, done = p.Step(r, row)
		}
		if !done {
			live++
			continue
		}
		down[i] = true
		res.Decisions[id] = v
		res.DecisionRound[id] = r
		res.maxDecision = r // rounds only grow within a run
		if rt != nil {
			rt.Decisions[id] = v
		}
	}
	return live == 0
}

// Run executes the processes lock-step under the failure pattern with a
// one-shot engine. It is the convenience form of Engine.Run; loops over
// many runs should reuse an Engine instead.
func Run(procs []Process, fp FailurePattern, opts Options) (*Result, error) {
	return NewEngine().Run(procs, fp, opts)
}
