package vector

// Enum is a resumable enumerator over the full vectors of {1..m}^n in
// lexicographic order. Unlike the callback-style ForEach it is a pull
// iterator: callers interleave Next with other work, suspend, and resume
// where they left off — the shape streaming scenario generators need.
// Resumption also works across processes: SeekTo repositions a fresh
// enumerator to any index in O(n), which is what checkpointed and sharded
// campaigns ride. The zero Enum is empty; build
// one with NewEnum.
type Enum struct {
	n, m    int
	cur     Vector
	started bool
	done    bool
}

// NewEnum returns an enumerator positioned before the first vector of
// {1..m}^n (there are m^n of them). A non-positive m or negative n yields
// an empty enumeration.
func NewEnum(n, m int) *Enum {
	e := &Enum{n: n, m: m}
	if n < 0 || m < 1 {
		e.done = true
	}
	return e
}

// Next advances to the next vector and returns it, or false when the
// enumeration is exhausted. The returned vector is the enumerator's
// reusable buffer: Clone it to retain it past the following Next call.
func (e *Enum) Next() (Vector, bool) {
	if e.done {
		return nil, false
	}
	if !e.started {
		if e.n < 0 || e.m < 1 { // the zero Enum is empty
			e.done = true
			return nil, false
		}
		e.started = true
		e.cur = make(Vector, e.n)
		for i := range e.cur {
			e.cur[i] = 1
		}
		return e.cur, true
	}
	// Odometer increment over {1..m}^n.
	i := e.n - 1
	for i >= 0 {
		if e.cur[i] < Value(e.m) {
			e.cur[i]++
			break
		}
		e.cur[i] = 1
		i--
	}
	if i < 0 {
		e.done = true
		return nil, false
	}
	return e.cur, true
}

// Reset rewinds the enumerator to before the first vector.
func (e *Enum) Reset() {
	e.started = false
	e.done = e.n < 0 || e.m < 1
}

// SeekTo repositions the enumerator so that the next Next call yields the
// vector with 0-based lexicographic index idx, in O(n) time: the digits
// of idx in base m are written straight into the odometer buffer, so no
// prefix of the enumeration is replayed. A non-positive idx rewinds to
// the start; idx ≥ m^n exhausts the enumeration. The n=0 domain has exactly one (empty) vector and m=1 domains
// exactly one all-ones vector, so for both, SeekTo(0) is the only position
// with anything left to yield.
func (e *Enum) SeekTo(idx int64) {
	e.Reset()
	if idx <= 0 || e.done {
		return
	}
	// Park the odometer on vector idx−1; the next increment yields idx.
	if len(e.cur) != e.n {
		e.cur = make(Vector, e.n)
	}
	rem := idx - 1
	for i := e.n - 1; i >= 0; i-- {
		e.cur[i] = Value(rem%int64(e.m)) + 1
		rem /= int64(e.m)
	}
	if rem > 0 { // idx−1 ≥ m^n: past the end
		e.done = true
		return
	}
	e.started = true
}

// ForEach enumerates every full input vector of size n over the value
// domain {1..m} and calls fn on each. The callback receives a reusable
// buffer: it must Clone the vector if it retains it. Enumeration stops
// early if fn returns false. There are m^n such vectors.
func ForEach(n, m int, fn func(Vector) bool) {
	e := NewEnum(n, m)
	for v, ok := e.Next(); ok; v, ok = e.Next() {
		if !fn(v) {
			return
		}
	}
}

// ForEachCompletion enumerates every full input vector I over {1..m} with
// J ≤ I: the ⊥ entries of J range over all values, the non-⊥ entries are
// fixed. The callback receives a reusable buffer (Clone to retain).
// Enumeration stops early if fn returns false.
func ForEachCompletion(j Vector, m int, fn func(Vector) bool) {
	holes := make([]int, 0, len(j))
	cur := j.Clone()
	for i, v := range j {
		if v == Bottom {
			holes = append(holes, i)
			cur[i] = 1
		}
	}
	for {
		if !fn(cur) {
			return
		}
		h := len(holes) - 1
		for h >= 0 {
			if cur[holes[h]] < Value(m) {
				cur[holes[h]]++
				break
			}
			cur[holes[h]] = 1
			h--
		}
		if h < 0 {
			return
		}
	}
}

// ForEachView enumerates every view J ≤ I with at most maxBottoms entries
// erased (including I itself, with zero erased). The callback receives a
// reusable buffer (Clone to retain). Enumeration stops early if fn
// returns false. There are Σ_{b≤maxBottoms} C(n,b) such views.
func ForEachView(i Vector, maxBottoms int, fn func(Vector) bool) {
	n := len(i)
	if maxBottoms > n {
		maxBottoms = n
	}
	cur := i.Clone()
	var rec func(start, erased int) bool
	rec = func(start, erased int) bool {
		if !fn(cur) {
			return false
		}
		if erased == maxBottoms {
			return true
		}
		for k := start; k < n; k++ {
			saved := cur[k]
			cur[k] = Bottom
			ok := rec(k+1, erased+1)
			cur[k] = saved
			if !ok {
				return false
			}
		}
		return true
	}
	rec(0, 0)
}
