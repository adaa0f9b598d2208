// Package async implements the asynchronous side of the paper (Section 4):
// the condition-based ℓ-set agreement algorithm obtained by generalizing
// the consensus algorithm of Mostefaoui–Rajsbaum–Raynal [20] to
// (x,ℓ)-legal conditions, running over a wait-free atomic-snapshot shared
// memory (Afek et al. [1], the paper's reference for the view-containment
// structure its own synchronous round 1 emulates).
//
// The algorithm solves ℓ-set agreement among n asynchronous processes of
// which up to x may crash, whenever the input vector belongs to an
// (x,ℓ)-legal condition: every view scanned from the snapshot with at most
// x missing entries decodes (Definition 4 / Theorem 1) to between 1 and ℓ
// values, and because atomic snapshots are totally ordered by containment,
// the decoded sets are nested — at most ℓ values are ever decided, whatever
// the input. Termination, as always with the condition-based approach, is
// guaranteed only when the input belongs to the condition (or some process
// decides and its decision is adopted); the package reports processes that
// give up waiting, which is the executable face of the ℓ ≤ x impossibility.
//
// Executions are driven by a deterministic virtual scheduler (see
// sched.go): processes are cooperative state machines advanced in seeded
// shuffled passes, waiting is counted in re-scan steps (Config.ScanBudget)
// rather than wall-clock time, and a run is a pure function of its Config
// and Seed — the same seed replays the same interleaving, decisions and
// Outcome bit for bit on any machine. Batch drivers reuse a Runner, which
// pools every piece of per-run state.
//
// Paper map:
//
//	Section 4     Runner.RunInto — the condition-based asynchronous algorithm
//	Definition 4  view decoding against the condition (via condition)
//	Theorems 8–9  the give-up path mirrors the ℓ ≤ x impossibility
//
// Three interchangeable memory substrates back the snapshot: the
// scheduler's own register array (MutexMemory, the default: one goroutine
// drives a run, so there is no lock and a Scan is the array itself, valid
// until the next Write), the wait-free Afek et al. construction
// (WaitFreeMemory) and an ABD quorum emulation over a virtual asynchronous
// message-passing network (MessagePassingMemory, x < n/2). The latter two
// are linearizable under concurrent callers and their Scans immutable: in
// process an epoch published once per write, over the network a vector
// per scan. Under the virtual scheduler all three observe identical
// register histories, so a run's outcome is identical across the grid, and
// a Runner evaluates what a scan decides once per distinct view (sched.go).
package async
