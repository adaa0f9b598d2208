package async

import (
	"sync"
	"sync/atomic"

	"kset/internal/vector"
)

// Store is the shared-memory interface the asynchronous algorithm runs on:
// a single-writer-per-entry array with an atomic snapshot scan.
//
// Scan's view is read-only and valid until the next Write: Clone one to
// keep it longer. Snapshot gives exactly that (its Scan is the register
// array); AtomicSnapshot's Scans are immutable for good — an epoch shared
// by every in-process caller that observes the same state, a vector built
// for the call over a remote register array.
type Store interface {
	// Write sets entry i (0-based); only process i+1 may write it.
	Write(i int, v vector.Value)
	// Scan returns an atomic snapshot of the whole array, read-only and
	// valid until the next Write.
	Scan() vector.Vector
	// AnyNonBottom returns the greatest non-⊥ entry visible, or ⊥.
	AnyNonBottom() vector.Value
}

var (
	_ Store = (*Snapshot)(nil)
	_ Store = (*AtomicSnapshot)(nil)
)

// AtomicSnapshot is the wait-free atomic snapshot object of Afek, Attiya,
// Dolev, Gafni, Merritt and Shavit (the paper's reference [1]), built from
// single-writer atomic registers with no locks:
//
//   - every register holds (value, sequence number, embedded view);
//   - Write first Scans, then publishes the new value together with that
//     scan (the "help" other scanners may borrow);
//   - Scan repeatedly collects all registers; two identical consecutive
//     collects form a clean double collect (nothing moved, so the collect
//     is an atomic snapshot); otherwise a register that is seen to move
//     twice was written entirely within this scan's interval, and its
//     embedded view — taken inside that interval — is returned instead.
//
// Each scan terminates after at most n+2 collects (n single moves force a
// double move), making both operations wait-free. Scans are linearizable,
// hence totally ordered by containment in the algorithm's write-once use —
// the property the agreement argument needs.
//
// On top of the classical construction, in-process instances publish
// epochs: a version counter is bumped after every register store, and the
// last clean double collect is cached as an immutable (version, vector)
// pair. A Scan that observes an unchanged version returns the cached
// vector with zero allocation and zero register reads; only the first
// scan after a write pays for a fresh double collect. The cache is
// conservative by construction — it is tagged with a version loaded
// before its confirming collects, so it contains every write whose
// version bump precedes the tag, and a fast-path hit therefore contains
// every completed write (registers are read-monotone, so containing more
// is always linearizable). Register arrays emulated over the
// message-passing network bypass the cache: their reads are quorum
// operations and stay that way.
//
// Snapshot is the register array of a single-goroutine driver; this is
// the concurrent construction, and the two are interchangeable through
// Store (Config.Memory selects).
type AtomicSnapshot struct {
	regs RegisterArray

	// local is non-nil when regs is the in-process array: only then are
	// version bumps and the clean-epoch cache meaningful (remote arrays
	// have no single memory to version).
	local   localRegs
	version atomic.Uint64
	clean   atomic.Pointer[epoch]

	// initial is the shared all-⊥ register every entry starts from;
	// registers are immutable once stored, so one value serves all n
	// entries and every Reset.
	initial *snapReg
}

// epoch is one published clean double collect: the snapshot state vec as
// of version ver. vec is immutable once published.
type epoch struct {
	ver uint64
	vec vector.Vector
}

// snapReg is one single-writer register's contents. A stored register is
// immutable: writers always store a fresh value, never mutate an old one.
type snapReg struct {
	value vector.Value
	seq   uint64
	view  vector.Vector // scan embedded by the write, borrowed by helpers
}

// RegisterArray abstracts the n single-writer atomic registers the
// snapshot construction runs over. The in-process implementation uses
// atomic pointers; the message-passing implementation (package-level
// NewQuorumArray) emulates each register with ABD-style quorums. The
// snapshot algorithm is oblivious to the choice — that layering is exactly
// how the shared-memory algorithms of the condition-based literature are
// ported to message passing.
type RegisterArray interface {
	// Len returns n.
	Len() int
	// Load returns the current contents of register i.
	Load(i int) *snapReg
	// Store overwrites register i (single-writer discipline: only process
	// i+1 stores to it).
	Store(i int, r *snapReg)
}

// localRegs is the in-process RegisterArray over atomic pointers.
type localRegs []atomic.Pointer[snapReg]

func (l localRegs) Len() int                { return len(l) }
func (l localRegs) Load(i int) *snapReg     { return l[i].Load() }
func (l localRegs) Store(i int, r *snapReg) { l[i].Store(r) }

// NewAtomicSnapshot creates a wait-free snapshot object with n entries
// over in-process atomic registers.
func NewAtomicSnapshot(n int) *AtomicSnapshot {
	s := &AtomicSnapshot{}
	s.Reset(n)
	return s
}

// Reset restores the snapshot to n all-⊥ entries, reusing its register
// array when the size allows. Pooled runners call it between runs; the
// version advances (never rewinds) so stale epoch caches can never serve
// a fast-path scan of the new run.
func (s *AtomicSnapshot) Reset(n int) {
	if len(s.local) != n {
		s.local = make(localRegs, n)
		s.regs = s.local
		s.initial = &snapReg{value: vector.Bottom, view: vector.New(n)}
	}
	for i := range s.local {
		s.local[i].Store(s.initial)
	}
	s.version.Add(1)
	s.clean.Store(&epoch{ver: s.version.Load(), vec: s.initial.view})
}

// NewSnapshotOver runs the snapshot construction over any register array
// (every register must be initialized non-nil). The epoch cache stays
// disabled: a remote array's registers have no shared version to publish.
func NewSnapshotOver(regs RegisterArray) *AtomicSnapshot {
	return &AtomicSnapshot{regs: regs}
}

// Write implements Store. Per the single-writer discipline, entry i must
// only ever be written by one goroutine at a time.
func (s *AtomicSnapshot) Write(i int, v vector.Value) {
	view := s.Scan()
	old := s.regs.Load(i)
	s.regs.Store(i, &snapReg{value: v, seq: old.seq + 1, view: view})
	if s.local != nil {
		// The bump after the store makes the epoch tag conservative: every
		// write counted by a version has already stored its register.
		s.version.Add(1)
	}
}

// scanScratch is the pooled per-scan working set: the two collect arrays
// of the double-collect loop and the per-entry move counters. Pooling it
// keeps concurrent scanners safe while charging the slow path zero
// steady-state allocations beyond the published vector itself.
type scanScratch struct {
	prev, cur []*snapReg
	moved     []uint8
}

var scanPool = sync.Pool{New: func() any { return new(scanScratch) }}

func getScratch(n int) *scanScratch {
	sc := scanPool.Get().(*scanScratch)
	if cap(sc.prev) < n {
		sc.prev = make([]*snapReg, n)
		sc.cur = make([]*snapReg, n)
		sc.moved = make([]uint8, n)
	}
	sc.prev = sc.prev[:n]
	sc.cur = sc.cur[:n]
	sc.moved = sc.moved[:n]
	for i := range sc.moved {
		sc.moved[i] = 0
	}
	return sc
}

// collectInto reads every register once (not atomically as a whole).
func (s *AtomicSnapshot) collectInto(dst []*snapReg) {
	for i := range dst {
		dst[i] = s.regs.Load(i)
	}
}

// Scan implements Store. The fast path serves the published epoch; the
// slow path runs the double-collect-or-borrow loop and republishes.
func (s *AtomicSnapshot) Scan() vector.Vector {
	if s.local != nil {
		if ep := s.clean.Load(); ep != nil && ep.ver == s.version.Load() {
			return ep.vec
		}
	}
	return s.scanSlow()
}

func (s *AtomicSnapshot) scanSlow() vector.Vector {
	n := s.regs.Len()
	sc := getScratch(n)
	defer scanPool.Put(sc)

	// ver tags the epoch a clean double collect publishes. It must be
	// loaded before the earlier collect of the confirming pair: then any
	// write whose bump precedes ver has stored its register before both
	// collects and is contained in the published vector. (The vector may
	// additionally contain in-flight stores whose bump lands later — a
	// superset is linearizable because registers only grow.)
	var ver uint64
	if s.local != nil {
		ver = s.version.Load()
	}
	prev, cur := sc.prev, sc.cur
	s.collectInto(prev)
	for {
		var verCur uint64
		if s.local != nil {
			verCur = s.version.Load()
		}
		s.collectInto(cur)
		clean := true
		for i := 0; i < n; i++ {
			if cur[i].seq != prev[i].seq {
				clean = false
				sc.moved[i]++
				if sc.moved[i] >= 2 {
					// cur[i] was written entirely inside this scan: its
					// embedded view is an atomic snapshot within our
					// interval, immutable and safe to share.
					return cur[i].view
				}
			}
		}
		if clean {
			out := make(vector.Vector, n)
			for i := 0; i < n; i++ {
				out[i] = cur[i].value
			}
			if s.local != nil {
				s.clean.Store(&epoch{ver: ver, vec: out})
			}
			return out
		}
		prev, cur = cur, prev
		ver = verCur
	}
}

// AnyNonBottom implements Store with a single collect (existence of a
// non-⊥ entry needs no atomicity across entries).
func (s *AtomicSnapshot) AnyNonBottom() vector.Value {
	best := vector.Bottom
	for i := 0; i < s.regs.Len(); i++ {
		if r := s.regs.Load(i); r.value > best {
			best = r.value
		}
	}
	return best
}
