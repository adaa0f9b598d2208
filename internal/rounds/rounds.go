package rounds

import (
	"errors"
	"fmt"
	"slices"

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

// Group is the n processes of one run, driven a round at a time; process
// i+1 is index i throughout. Send writes round r's payload of every process
// not down into row[i]; the other entries are nil already. Step runs the
// compute phase of the processes lo..hi−1 that are not rd.Down, each
// receiving row — a Group whose compute phase reads the row only through a
// digest of it folds row once for all of them — reports each decision
// through rd.Decide, and returns how many of them stay live. row and its
// payloads belong to the engine and its transport, which reuse them.
//
// The engine calls Send once per round. On the shared row it calls Step
// once per segment between the round's distinct prefix ends in 1..n−1 (see
// the package doc), from the last segment back to the first: each row is
// the previous one plus the senders rd.Added lists, so a Group may extend
// its digest instead of folding the row again. Through the Transport seam
// it calls Step once per live destination, with (i, i+1).
type Group interface {
	Send(r int, down []bool, row []any)
	Step(rd *Round, row []any, lo, hi int) (live int)
}

// Round is the round a Group steps: its number, who is down, where a
// decision goes, and how the row grew since the previous Step. The Engine
// holds it, so passing its address costs nothing.
type Round struct {
	// R is the round number, from 1.
	R    int
	down []bool
	res  *Result
	// added is what Added reports: nil until the row extends the previous
	// Step's, then never empty.
	added []int
}

// Down reports whether process i+1 has crashed or decided: it is not
// stepped.
func (rd *Round) Down(i int) bool { return rd.down[i] }

// Added reports how the row of this Step differs from the previous Step's:
// ok=false on a round's first Step and on every Step through the Transport
// seam, where the row is new; otherwise the row is the previous one, with
// every entry kept, plus the payloads of the senders in added (indices,
// ascending). added belongs to the engine and is valid until the next Step.
func (rd *Round) Added() (added []int, ok bool) { return rd.added, rd.added != nil }

// Decide records that process i+1 decides v in this round; it halts.
func (rd *Round) Decide(i int, v vector.Value) {
	rd.down[i] = true
	rd.res.Decisions[ProcessID(i+1)] = v
	rd.res.DecisionRound[i] = rd.R
	rd.res.maxDecision = rd.R // rounds only grow within a run
}

// processes is the Group of a slice of Processes: every live destination
// steps on the row itself.
type processes struct{ procs []Process }

func (g *processes) Send(r int, down []bool, row []any) {
	for i, p := range g.procs {
		if !down[i] {
			row[i] = p.Send(r)
		}
	}
}

func (g *processes) Step(rd *Round, row []any, lo, hi int) (live int) {
	for i := lo; i < hi; i++ {
		if rd.Down(i) {
			continue
		}
		if v, done := g.procs[i].Step(rd.R, row); done {
			rd.Decide(i, v)
		} else {
			live++
		}
	}
	return live
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

// validateCrash is Validate's per-crash check; Engine.RunGroup makes it in
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
	// DecisionRound[i] is process i+1's decision round, 0 if it did not
	// decide; the engine sizes it to the run's n.
	DecisionRound []int
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

// Reset clears the result for reuse, retaining its map and slice storage.
// Batch drivers that only aggregate statistics pass a recycled Result to
// Engine.RunInto and skip the per-run allocations entirely.
func (r *Result) Reset() {
	if r.Decisions == nil {
		r.Decisions = make(map[ProcessID]vector.Value)
	} else {
		clear(r.Decisions)
	}
	if r.Crashed == nil {
		r.Crashed = make(map[ProcessID]bool)
	} else {
		clear(r.Crashed)
	}
	*r = Result{Decisions: r.Decisions, DecisionRound: r.DecisionRound[:0], Crashed: r.Crashed}
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
// (the shared receive row, the liveness array, the crash list and the
// identity send order) across calls. Sweeps that drive thousands of
// runs — exhaustive adversary model checking above all — should create one
// Engine and call its RunInto or RunGroup repeatedly; each call then costs
// only the small per-run Result (which the caller may retain freely), or
// nothing when it recycles one.
//
// An Engine is not safe for concurrent use.
type Engine struct {
	// down[i]: process i+1 has crashed or decided, and sends and steps no more.
	down     []bool
	identity []ProcessID

	// crashers is the run's crash schedule, ascending by round and then by
	// ID; next is its first entry whose round has not come yet.
	crashers []crasher
	next     int

	// mt is the built-in transport of runs whose adversary overrides a
	// send order, embedded so that they reuse its matrix across runs.
	mt MatrixTransport

	// row is the one receive row every destination's compute phase reads.
	// A transport's Deliver fills it per destination; without a transport
	// the send phase writes destination 1's row, the last segment's row
	// lacks the crashing senders whose prefix ends short of n, and each
	// segment down gets back those whose prefix ends there, instead of
	// materializing the n×n matrix.
	row []any
	// stash holds a round's crashing senders' payloads, parallel to its
	// crash list, while the shared row lacks them; added is Round.added.
	stash []any
	added []int

	rd    Round
	procs processes // RunInto's Group
}

// crasher is one entry of a run's crash schedule: process i+1's crash.
type crasher struct {
	i int
	Crash
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
		e.crashers = make([]crasher, 0, n)
		e.row = make([]any, n)
		e.stash = make([]any, n)
		e.added = make([]int, 0, n)
	}
	e.down = e.down[:n]
	// A transport sizes its send loop by len(order), so the identity
	// order of a larger earlier run must not leak into a smaller one.
	e.identity = e.identity[:n]
	e.row = e.row[:n]
	e.crashers, e.next = e.crashers[:0], 0
	clear(e.down)
}

// RunInto executes the processes lock-step under the failure pattern.
// procs[i] is process i+1. It returns an error only for malformed
// configurations; protocol outcomes (including nobody deciding) are
// reported in the Result. res is cleared (Reset) and returned; res == nil
// allocates a fresh one, which remains valid after further runs. Sweeps
// that only read each result before the next run recycle one Result and
// make the whole run allocation-free. The processes run as one Group that
// steps each of them on its own row.
func (e *Engine) RunInto(res *Result, procs []Process, fp FailurePattern, opts Options) (*Result, error) {
	for i, p := range procs {
		if p == nil {
			return nil, fmt.Errorf("rounds: process %d is nil", i+1)
		}
	}
	e.procs.procs = procs
	res, err := e.RunGroup(res, &e.procs, len(procs), fp, opts)
	e.procs.procs = nil
	return res, err
}

// RunGroup is RunInto over a Group of n processes.
func (e *Engine) RunGroup(res *Result, g Group, n int, fp FailurePattern, opts Options) (*Result, error) {
	if n == 0 {
		return nil, fmt.Errorf("rounds: no processes")
	}
	if opts.MaxRounds < 1 {
		return nil, fmt.Errorf("rounds: MaxRounds = %d, want ≥ 1", opts.MaxRounds)
	}
	e.reset(n) // then one pass validates and lists the crash schedule
	for id, cr := range fp.Crashes {
		if err := validateCrash(id, cr, n); err != nil {
			return nil, err
		}
		e.crashers = append(e.crashers, crasher{int(id) - 1, cr})
	}
	slices.SortFunc(e.crashers, func(a, b crasher) int {
		if a.Round != b.Round {
			return a.Round - b.Round
		}
		return a.i - b.i
	})
	if len(fp.Orders) > 0 {
		if err := fp.validateOrders(n); err != nil {
			return nil, err
		}
	}
	if res == nil {
		res = &Result{
			Decisions: make(map[ProcessID]vector.Value, n),
			Crashed:   make(map[ProcessID]bool, fp.NumCrashes()),
		}
	} else {
		res.Reset()
	}
	res.DecisionRound = slices.Grow(res.DecisionRound[:0], n)[:n]
	clear(res.DecisionRound)

	// The transport alone picks the delivery. Without one the engine's own
	// shared row is the paper's reliable network; an installed transport, or
	// the built-in matrix when the adversary reorders sends (rows are then no
	// containment chain), is driven through the seam.
	tr := opts.Transport
	if tr == nil && len(fp.Orders) > 0 {
		tr = &e.mt
	}
	if tr != nil {
		tr.Reset(n)
		// Blocking transports (the wire plane) honor the run's cancel
		// channel inside Deliver; the engine still checks it at every
		// round boundary.
		if ca, ok := tr.(CancelAware); ok {
			ca.SetCancel(opts.Cancel)
		}
	}

	for r, live := 1, n; r <= opts.MaxRounds && live > 0; r++ {
		if opts.Cancel != nil {
			select {
			case <-opts.Cancel:
				return nil, ErrCanceled
			default:
			}
		}
		live = e.runRound(g, fp, r, res, tr, live)
	}
	if fc, ok := tr.(FaultCounter); ok {
		res.Lost, res.Delayed, res.Duplicated = fc.FaultCounts()
	}
	return res, nil
}

// runRound executes round r, in which senders processes are live, and
// returns how many are live after it: the Group's Send, the crash
// adversary, the Group's Steps. tr == nil delivers on the shared row: a
// sender crashing after s sends reaches p_1..p_s, so the row is stepped in
// segments between prefix ends, from the last back, and extended at each.
// Otherwise each live destination's row is what tr delivers.
func (e *Engine) runRound(g Group, fp FailurePattern, r int, res *Result, tr Transport, senders int) (live int) {
	row, down := e.row, e.down
	n := len(row)
	if tr != nil {
		tr.BeginRound(r)
	}
	clear(row)
	g.Send(r, down, row)

	// The round's crashes, ascending by ID: cs, compacted in place, keeps
	// those of the processes that did not decide before their crash round.
	// Every sender delivers n copies but a crashing one, its prefix.
	cs := e.crashers[e.next:e.next]
	delivered := int64(senders) * int64(n)
	for ; e.next < len(e.crashers) && e.crashers[e.next].Round == r; e.next++ {
		c := e.crashers[e.next]
		if down[c.i] {
			continue
		}
		down[c.i] = true
		res.Crashed[ProcessID(c.i+1)] = true
		delivered -= int64(n - c.AfterSends)
		cs = append(cs, c)
	}
	res.Rounds = r
	e.rd = Round{R: r, down: down, res: res}

	if tr != nil {
		k := 0
		for i, payload := range row {
			limit := n
			if k < len(cs) && cs[k].i == i {
				limit = cs[k].AfterSends
				k++
			} else if down[i] {
				continue
			}
			// Round 1 is always the paper's fixed p_1..p_n (Validate admits no
			// order for it); later rounds honor the adversary's override.
			id := ProcessID(i + 1)
			order := fp.Orders[id][r]
			if order == nil {
				order = e.identity
			}
			tr.Send(r, id, payload, order, limit)
		}
		res.MessagesDelivered = tr.Delivered()
		for i := range row {
			if !down[i] {
				tr.Deliver(r, ProcessID(i+1), row)
				live += g.Step(&e.rd, row, i, i+1)
			}
		}
		return live
	}
	res.MessagesDelivered += delivered
	// The last segment's row lacks every crashing sender whose prefix ends
	// short of n; stash keeps their payloads.
	stash := e.stash[:len(cs)]
	for k, c := range cs {
		stash[k] = row[c.i]
		if c.AfterSends < n {
			row[c.i] = nil
		}
	}
	for hi := n; ; {
		// The segment reaches back to the latest prefix end below hi.
		lo := 0
		for _, c := range cs {
			if c.AfterSends < hi {
				lo = max(lo, c.AfterSends)
			}
		}
		live += g.Step(&e.rd, row, lo, hi)
		if lo == 0 {
			break
		}
		// The row one segment down adds the senders whose prefix ends at lo.
		added := e.added[:0]
		for k, c := range cs {
			if c.AfterSends == lo {
				row[c.i] = stash[k]
				added = append(added, c.i)
			}
		}
		e.rd.added = added
		hi = lo
	}
	clear(stash)
	return live
}
