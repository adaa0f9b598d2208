package async

import (
	"fmt"

	"kset/internal/condition"
	"kset/internal/kerr"
	"kset/internal/vector"
)

// CrashPoint says where in its execution a process crashes.
type CrashPoint int

// Crash points for the asynchronous adversary.
const (
	// NoCrash lets the process run to completion.
	NoCrash CrashPoint = iota
	// CrashBeforeWrite stops the process before it deposits its value: its
	// input-vector entry stays ⊥ forever. This is the adversary the
	// density property is built against.
	CrashBeforeWrite
	// CrashAfterWrite stops the process after its value is visible but
	// before it helps or decides.
	CrashAfterWrite
)

// MemoryKind selects the shared-memory substrate of a run.
type MemoryKind int

// Available substrates.
const (
	// MutexMemory is the scheduler's own register array (default); the
	// name dates from the lock-serialized simulation it replaced.
	MutexMemory MemoryKind = iota
	// WaitFreeMemory is the lock-free Afek-et-al atomic snapshot.
	WaitFreeMemory
	// MessagePassingMemory emulates the registers over an asynchronous
	// message-passing network with ABD quorum operations; it requires
	// x < n/2 (quorum intersection) and crashes also silence the crashed
	// process's replica.
	MessagePassingMemory
)

// Config describes one asynchronous execution.
type Config struct {
	// X is the crash resilience: the condition must be (x,ℓ)-legal and
	// views with more than x missing entries are not decoded.
	X int
	// Cond is the (x,ℓ)-legal condition instantiating the algorithm.
	Cond condition.Condition
	// Input is the full input vector (entry i proposed by process i+1).
	Input vector.Vector
	// Crashes maps 1-based process ids to crash points. At most one of
	// Crashes and CrashPoints may be set.
	Crashes map[int]CrashPoint
	// CrashPoints is the dense form of Crashes: entry i is the crash
	// point of process i+1. Batch drivers reuse one slice across runs and
	// skip the per-run map. When non-nil its length must be n.
	CrashPoints []CrashPoint
	// Seed drives the virtual scheduler: per-process start delays, the
	// per-pass step order and (for MessagePassingMemory) the quorum
	// draws. Executions are a pure function of (Config, Seed) — the same
	// seed replays the same interleaving, decisions and outcome.
	Seed int64
	// ScanBudget bounds how many unsuccessful re-scans an undecided
	// process performs before giving up (condition-based termination is
	// conditional; giving up is reported, not an error). 0 selects a
	// default generous enough that in-condition runs always decide well
	// within it. Replaces the former wall-clock Patience: the scheduler
	// is virtual, so waiting is counted in steps, not time.
	ScanBudget int
	// Memory selects the snapshot substrate; the algorithm is oblivious to
	// the choice (all are linearizable).
	Memory MemoryKind
	// Cancel, when non-nil, aborts the run early when it is closed (e.g. a
	// context's Done channel): undecided processes stop re-scanning and are
	// reported in Outcome.Undecided.
	Cancel <-chan struct{}
}

// Outcome reports one asynchronous execution. Both fields are plain
// arrays, so Runner.RunInto recycles them across runs; same-seed runs
// produce byte-identical outcomes.
type Outcome struct {
	// Decided holds the decisions as a vector: entry i is the value
	// process i+1 decided, ⊥ if it crashed or gave up.
	Decided vector.Vector
	// Undecided lists correct processes (1-based, ascending) that
	// exhausted their scan budget: with an input outside the condition
	// this is expected behavior.
	Undecided []int
}

// Decision returns the value process id (1-based) decided, if any.
func (o *Outcome) Decision(id int) (vector.Value, bool) {
	if id < 1 || id > len(o.Decided) || o.Decided[id-1] == vector.Bottom {
		return vector.Bottom, false
	}
	return o.Decided[id-1], true
}

// DecidedCount returns how many processes decided.
func (o *Outcome) DecidedCount() int {
	c := 0
	for _, v := range o.Decided {
		if v != vector.Bottom {
			c++
		}
	}
	return c
}

// DistinctDecisions returns the set of decided values.
func (o *Outcome) DistinctDecisions() vector.Set {
	return o.Decided.Vals()
}

// reset sizes the outcome for n processes and clears it.
func (o *Outcome) reset(n int) {
	if cap(o.Decided) < n {
		o.Decided = vector.New(n)
	} else {
		o.Decided = o.Decided[:n]
		for i := range o.Decided {
			o.Decided[i] = vector.Bottom
		}
	}
	o.Undecided = o.Undecided[:0]
}

// validate checks the configuration and returns n and the run's dense
// crash points (dst, resized and filled, when crashes are configured;
// nil for a crash-free run).
func (cfg *Config) validate(dst []CrashPoint) (int, []CrashPoint, error) {
	n := len(cfg.Input)
	if n < 2 {
		return 0, nil, fmt.Errorf("async: n=%d, want ≥ 2: %w", n, kerr.ErrBadParams)
	}
	if !cfg.Input.IsFull() {
		return 0, nil, fmt.Errorf("async: input %v has ⊥ entries: %w", cfg.Input, kerr.ErrBadInput)
	}
	if cfg.Cond == nil || cfg.Cond.N() != n {
		return 0, nil, fmt.Errorf("async: condition missing or sized %d, want %d: %w", condN(cfg.Cond), n, kerr.ErrBadParams)
	}
	if cfg.X < 0 || cfg.X >= n {
		return 0, nil, fmt.Errorf("async: x=%d, want 0 ≤ x < n: %w", cfg.X, kerr.ErrBadParams)
	}
	if cfg.ScanBudget < 0 {
		return 0, nil, fmt.Errorf("async: ScanBudget=%d, want ≥ 0: %w", cfg.ScanBudget, kerr.ErrBadParams)
	}
	if cfg.Crashes != nil && cfg.CrashPoints != nil {
		return 0, nil, fmt.Errorf("async: both Crashes and CrashPoints set: %w", kerr.ErrBadParams)
	}
	var crashes []CrashPoint
	switch {
	case cfg.CrashPoints != nil:
		if len(cfg.CrashPoints) != n {
			return 0, nil, fmt.Errorf("async: CrashPoints sized %d, want %d: %w", len(cfg.CrashPoints), n, kerr.ErrBadParams)
		}
		crashes = cfg.CrashPoints
	case len(cfg.Crashes) > 0:
		if cap(dst) < n {
			dst = make([]CrashPoint, n)
		}
		dst = dst[:n]
		for i := range dst {
			dst[i] = NoCrash
		}
		for id, cp := range cfg.Crashes {
			if id < 1 || id > n {
				return 0, nil, fmt.Errorf("async: crash of unknown process %d: %w", id, kerr.ErrBadParams)
			}
			dst[id-1] = cp
		}
		crashes = dst
	}
	numCrashes := 0
	for _, cp := range crashes {
		if cp != NoCrash {
			numCrashes++
		}
	}
	if numCrashes > cfg.X {
		return 0, nil, fmt.Errorf("async: %d crashes exceed x=%d: %w", numCrashes, cfg.X, kerr.ErrBadParams)
	}
	return n, crashes, nil
}

func condN(c condition.Condition) int {
	if c == nil {
		return 0
	}
	return c.N()
}
