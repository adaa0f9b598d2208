package async

import (
	"fmt"
	"sort"

	"kset/internal/condition"
	"kset/internal/prng"
	"kset/internal/vector"
)

// This file is the deterministic virtual scheduler behind Run: the
// asynchronous adversary as a seeded cooperative step machine instead of
// goroutines, sleep jitter and wall-clock patience.
//
// Every process is a little state machine — wait out a start delay, write
// the input value, then re-scan until it can decide, adopt or gives up —
// and the scheduler advances them in passes: each pass visits every live
// process once, in a fresh seeded shuffle (the adversary's interleaving
// choice). A step is one protocol action, so all asynchrony the algorithm
// can observe (who wrote before my scan? who decided first?) is still
// exercised, while the execution is single-goroutine, allocation-free and
// a pure function of (Config, Seed): the same seed replays the same
// interleaving bit for bit, whatever the host's core count or load.
//
// Termination is structural rather than temporal. Start delays are drawn
// from a bounded range, so by pass maxDelay+1 every non-crashed process
// has written; the next scan of any live process then sees at most x
// missing entries, and with an in-condition input it decides (P holds for
// every view of a condition member). The default scan budget covers that
// horizon with slack, so in-condition runs always decide within budget,
// while out-of-condition runs give up after a bounded number of re-scans
// — the same conditional-termination story the wall clock used to tell,
// minus the wall clock.

// schedDelayRange bounds the per-process start delay drawn for n
// processes: enough spread that writes interleave with scans in varied
// orders across seeds, small enough that the decision horizon — and with
// it the default scan budget — stays O(1).
func schedDelayRange(n int) int {
	if n < 2 {
		return 2
	}
	if n > 8 {
		return 8
	}
	return n
}

// defaultScanBudget is the ScanBudget applied when Config leaves it 0:
// twice the write horizon plus slack, so a decision that is structurally
// guaranteed (in-condition input, or another process's decision to adopt)
// is always reached.
func defaultScanBudget(n int) int { return 2*schedDelayRange(n) + 8 }

// procState is one process's position in its protocol state machine.
type procState uint8

const (
	procDelay procState = iota // waiting out its start delay
	procScan                   // value written; re-scanning to decide
)

// Runner executes asynchronous runs while reusing every piece of per-run
// state across calls: the snapshot substrates, the virtual network, the
// scheduler's process table and the outcome arrays. Batch drivers — the
// facade's campaign workers above all — hold one Runner per worker and
// drive millions of runs through RunInto with zero steady-state
// allocation on the default memory. A Runner is not safe for concurrent
// use; the package-level Run checks Runners out of an internal pool.
type Runner struct {
	rng   prng.Rand
	delay []int
	scans []int
	state []procState
	live  []int // 0-based ids still stepping, compacted each pass
	acp   []CrashPoint

	// The per-view memo: what a scan decides is a pure function of the
	// view, and the scheduler issues every value write itself, so their
	// count names the view. memo is what a scan after memoAt writes decides
	// (⊥: nothing); reset with the process table each run.
	writes, memoAt int
	memo           vector.Value

	ownVals, ownDecs *Snapshot
	wfVals, wfDecs   *AtomicSnapshot
	net              *Network
}

// NewRunner returns a Runner with no state allocated yet; buffers grow to
// the largest run seen and are reused afterwards.
func NewRunner() *Runner { return &Runner{} }

// RunInto executes the condition-based asynchronous ℓ-set agreement
// algorithm: every process deposits its value in the snapshot, re-scans
// until at most x entries are missing, and decides max(h_ℓ(view)) if the
// view can still belong to the condition (P); otherwise it adopts any
// value already decided by another process. Processes crash per the
// configured crash points. The execution is deterministic per seed (see
// Config.Seed).
//
// out is cleared and filled; its arrays are reused when large enough, so
// sweeps that read each outcome before the next run are allocation-free.
// A caller that keeps outcomes passes a fresh Outcome per run.
func (r *Runner) RunInto(cfg Config, out *Outcome) error {
	n, crashes, err := cfg.validate(r.acp)
	if err != nil {
		return err
	}
	if crashes != nil && cfg.CrashPoints == nil {
		r.acp = crashes // keep the scratch the validator may have grown
	}

	values, decisions, net, err := r.substrates(n, &cfg)
	if err != nil {
		return err
	}
	r.drive(&cfg, crashes, values, decisions, net, out)
	return nil
}

// drive executes a validated run over the stores resolved for it; net is
// the network its crashes silence, nil on shared memory.
func (r *Runner) drive(cfg *Config, crashes []CrashPoint, values, decisions Store, net *Network, out *Outcome) {
	n := len(cfg.Input)
	out.reset(n)
	r.reset(n, cfg.Seed)

	budget := cfg.ScanBudget
	if budget == 0 {
		budget = defaultScanBudget(n)
	}

	// Pass loop: shuffle the live processes, step each once, compact out
	// the ones that terminated. Every step strictly advances its process
	// (delay countdown, the write, or a counted scan), so the loop ends
	// after at most delayRange+budget+2 passes.
	live := r.live
	for len(live) > 0 {
		prng.Shuffle(&r.rng, live)
		w := 0
		for _, id := range live {
			if !r.step(id, cfg, crashes, budget, values, decisions, net, out) {
				live[w] = id
				w++
			}
		}
		live = live[:w]
	}
	sort.Ints(out.Undecided) // at most n entries
}

// step advances process id (0-based) by one action and reports whether it
// terminated (decided, crashed or gave up).
func (r *Runner) step(id int, cfg *Config, crashes []CrashPoint, budget int, values, decisions Store, net *Network, out *Outcome) bool {
	switch r.state[id] {
	case procDelay:
		cp := NoCrash
		if crashes != nil {
			cp = crashes[id]
		}
		if cp == CrashBeforeWrite {
			// The process dies before depositing its value; over message
			// passing its replica dies with it.
			if net != nil {
				net.Crash(id + 1)
			}
			return true
		}
		if r.delay[id] > 0 {
			r.delay[id]--
			return false
		}
		values.Write(id, cfg.Input[id])
		r.writes++
		if cp == CrashAfterWrite {
			if net != nil {
				net.Crash(id + 1)
			}
			return true
		}
		r.state[id] = procScan
		return false

	default: // procScan
		if cfg.Cancel != nil {
			select {
			case <-cfg.Cancel:
				out.Undecided = append(out.Undecided, id+1)
				return true
			default:
			}
		}
		if r.memoAt != r.writes {
			// Scan's view is valid until the next Write; decide keeps none.
			r.memo, r.memoAt = decide(cfg, values.Scan()), r.writes
		}
		if d := r.memo; d != vector.Bottom {
			decisions.Write(id, d)
			out.Decided[id] = d
			return true
		}
		if d := decisions.AnyNonBottom(); d != vector.Bottom {
			out.Decided[id] = d
			return true
		}
		r.scans[id]++
		if r.scans[id] >= budget {
			out.Undecided = append(out.Undecided, id+1)
			return true
		}
		return false
	}
}

// decide is what a process scanning view decides on its own: max h_ℓ(view)
// when at most x entries are missing and P(view) holds, ⊥ otherwise. ¬P is
// stable under growing views, so from then on only adoption can decide.
func decide(cfg *Config, view vector.Vector) vector.Value {
	if view.BottomCount() <= cfg.X && condition.Predicate(cfg.Cond, view) {
		if h, ok := condition.DecodeView(cfg.Cond, view); ok && !h.Empty() {
			return h.Max()
		}
	}
	return vector.Bottom
}

// substrates resolves the run's value and decision stores — and, over
// message passing, their network — resetting the Runner's pooled instances.
func (r *Runner) substrates(n int, cfg *Config) (values, decisions Store, net *Network, err error) {
	switch cfg.Memory {
	case WaitFreeMemory:
		if r.wfVals == nil {
			r.wfVals, r.wfDecs = NewAtomicSnapshot(n), NewAtomicSnapshot(n)
		} else {
			r.wfVals.Reset(n)
			r.wfDecs.Reset(n)
		}
		return r.wfVals, r.wfDecs, nil, nil
	case MessagePassingMemory:
		if r.net == nil {
			nw, err := NewNetwork(n, cfg.X, 2*n, n, cfg.Seed)
			if err != nil {
				return nil, nil, nil, err
			}
			r.net = nw
		} else {
			if n < 2 || cfg.X < 0 || 2*cfg.X >= n {
				return nil, nil, nil, fmt.Errorf("async: quorum emulation needs x < n/2, got x=%d n=%d", cfg.X, n)
			}
			r.net.reset(n, cfg.X, 2*n, n, cfg.Seed)
		}
		valRegs, err := r.net.Registers(0, n)
		if err != nil {
			return nil, nil, nil, err
		}
		decRegs, err := r.net.Registers(n, n)
		if err != nil {
			return nil, nil, nil, err
		}
		return NewSnapshotOver(valRegs), NewSnapshotOver(decRegs), r.net, nil
	default:
		if r.ownVals == nil {
			r.ownVals, r.ownDecs = NewSnapshot(n), NewSnapshot(n)
		} else {
			r.ownVals.Reset(n)
			r.ownDecs.Reset(n)
		}
		return r.ownVals, r.ownDecs, nil, nil
	}
}

// reset prepares the scheduler's process table for a run of n processes.
func (r *Runner) reset(n int, seed int64) {
	r.rng = prng.New(uint64(seed))
	r.writes, r.memoAt, r.memo = 0, -1, vector.Bottom
	if cap(r.delay) < n {
		r.delay = make([]int, n)
		r.scans = make([]int, n)
		r.state = make([]procState, n)
		r.live = make([]int, n)
	}
	r.delay = r.delay[:n]
	r.scans = r.scans[:n]
	r.state = r.state[:n]
	r.live = r.live[:n]
	dr := schedDelayRange(n)
	for i := 0; i < n; i++ {
		r.delay[i] = r.rng.Intn(dr)
		r.scans[i] = 0
		r.state[i] = procDelay
		r.live[i] = i
	}
}
