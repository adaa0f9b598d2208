package async

import "kset/internal/vector"

// Snapshot is the register array of a run the virtual scheduler drives:
// entry i is written by process i+1, and the scheduler's goroutine is the
// only one to touch the array, so every operation is atomic as it stands —
// no lock, no published copy, not safe for concurrent use (AtomicSnapshot
// is the concurrent construction the paper cites, behind the same Store).
//
// Scan returns the array itself, valid until the next Write. Entries are
// written at most once and only grow, so successive scans are ordered by
// containment and the greatest entry is a running maximum.
type Snapshot struct {
	regs vector.Vector
	max  vector.Value
}

// NewSnapshot creates a snapshot object with n entries, all ⊥.
func NewSnapshot(n int) *Snapshot {
	return &Snapshot{regs: vector.New(n)}
}

// Reset restores the snapshot to n all-⊥ entries, reusing its register
// storage when the size allows. Pooled runners call it between runs.
func (s *Snapshot) Reset(n int) {
	if cap(s.regs) < n {
		s.regs = vector.New(n)
	} else {
		s.regs = s.regs[:n]
		for i := range s.regs {
			s.regs[i] = vector.Bottom
		}
	}
	s.max = vector.Bottom
}

// Write sets entry i (0-based) to v.
func (s *Snapshot) Write(i int, v vector.Value) {
	s.regs[i] = v
	if v > s.max {
		s.max = v
	}
}

// Scan returns the current array, valid until the next Write. Callers must
// not modify it.
func (s *Snapshot) Scan() vector.Vector { return s.regs }

// AnyNonBottom returns the greatest non-⊥ entry, or ⊥.
func (s *Snapshot) AnyNonBottom() vector.Value { return s.max }
