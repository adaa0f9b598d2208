package condition

import "kset/internal/vector"

// Stream is a resumable pull iterator over a condition's member vectors —
// the streaming counterpart of Condition.ForEachMember. An Explicit
// condition streams its stored members by position with no copying; implicit conditions (max_ℓ / min_ℓ) stream by
// filtering the lexicographic {1..m}^n enumeration, which is practical at
// small n and m only. Either way the members arrive in a deterministic
// order, so two streams over the same condition yield identical sequences.
type Stream struct {
	c    Condition
	e    *Explicit // non-nil: stored-member fast path
	idx  int
	enum *vector.Enum // nil until the implicit path starts
}

// NewStream returns a stream positioned before the condition's first
// member.
func NewStream(c Condition) *Stream {
	e, _ := c.(*Explicit)
	return &Stream{c: c, e: e}
}

// Next advances to the next member and returns it, or false when the
// members are exhausted. The returned vector may be a reusable buffer
// (implicit conditions) or the condition's own storage (explicit
// conditions): Clone it to retain or mutate it.
func (s *Stream) Next() (vector.Vector, bool) {
	if s.e != nil {
		if s.idx >= s.e.Size() {
			return nil, false
		}
		v := s.e.MemberAt(s.idx)
		s.idx++
		return v, true
	}
	if s.c == nil {
		return nil, false
	}
	if s.enum == nil {
		s.enum = vector.NewEnum(s.c.N(), s.c.M())
	}
	for {
		v, ok := s.enum.Next()
		if !ok {
			return nil, false
		}
		if s.c.Contains(v) {
			return v, true
		}
	}
}

// Reset rewinds the stream to before the first member.
func (s *Stream) Reset() {
	s.idx = 0
	if s.enum != nil {
		s.enum.Reset()
	}
}
