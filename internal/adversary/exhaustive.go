package adversary

import (
	"fmt"
	"math"

	"kset/internal/rounds"
)

// ExhaustiveFamily is the §6.2 exhaustive adversary: every prefix-send
// failure pattern with at most t crashes in rounds 1..maxRounds over n
// processes, Σ_{f≤t} C(n,f)·(maxRounds·(n+1))^f patterns in depth-first
// order — a pattern, then its extensions by the next crashed id, the
// crash round and the sends delivered. Pattern(i) ranks i directly, in
// O(n·t) steps. It refuses a bad domain and a size past math.MaxInt
// (2³¹−1 on a 32-bit platform).
func ExhaustiveFamily(n, t, maxRounds int) (Family, error) {
	return exhaustiveFamily("exhaustive", n, t, maxRounds, false)
}

// ExhaustiveOrdersFamily is ExhaustiveFamily plus every variant that
// reverses the send order of some subset of the late-round partial
// crashers (round ≥ 2, 0 < AfterSends < n). The model fixes the send
// order in round 1 only; the identity order informs low ids first, the
// reversed one high ids, and the variants mix the two across crashers.
// A base pattern with p such crashers appears 2^p times. The patterns
// share one reversed-order slice, which must not be modified.
func ExhaustiveOrdersFamily(n, t, maxRounds int) (Family, error) {
	return exhaustiveFamily("exhaustive-orders", n, t, maxRounds, true)
}

// unranker walks the depth-first tree of an exhaustive family. A node is
// a pattern with f crashes whose highest crashed id is j; each child
// crashes one more id above j with one of digits crash choices, and
// sub[f·(n+1)+j] counts the node's subtree.
type unranker struct {
	n, digits int
	plain     int                // the identity-order choices, maxRounds·(n+1)
	rev       []rounds.ProcessID // p_n..p_1; nil for the plain family
	sub       []int
}

func exhaustiveFamily(name string, n, t, maxRounds int, orders bool) (Family, error) {
	if n < 1 || t < 0 || t > n || maxRounds < 1 {
		return Family{}, fmt.Errorf("adversary: bad enumeration domain n=%d t=%d rounds=%d", n, t, maxRounds)
	}
	plain, ok := mulAdd(0, int64(maxRounds), int64(n+1))
	digits := plain
	if orders && ok {
		digits, ok = mulAdd(plain, int64(maxRounds-1), int64(n-1))
	}
	u := &unranker{n: n, digits: int(digits), plain: int(plain), sub: make([]int, (t+1)*(n+1))}
	for f := t; f >= 0 && ok; f-- {
		for j := n; j >= 0 && ok; j-- {
			size := int64(1)
			for id := j + 1; f < t && id <= n && ok; id++ {
				size, ok = mulAdd(size, digits, int64(u.sub[(f+1)*(n+1)+id]))
			}
			u.sub[f*(n+1)+j] = int(size)
		}
	}
	if !ok {
		return Family{}, fmt.Errorf("adversary: exhaustive family n=%d t=%d rounds=%d has more than %d patterns", n, t, maxRounds, math.MaxInt)
	}
	if orders {
		u.rev = reversedOrder(n)
	}
	return newFamily(name, u.sub[0], u.pattern), nil
}

// mulAdd returns a + b·c for non-negative operands, or false when that
// exceeds math.MaxInt.
func mulAdd(a, b, c int64) (int64, bool) {
	if b != 0 && c > (math.MaxInt-a)/b {
		return 0, false
	}
	return a + b*c, true
}

// pattern walks from the root to pattern i. At a node, index 0 is the
// node itself; the rest falls in one child id's block of digits subtrees,
// and the quotient by the subtree size is the crash choice.
func (u *unranker) pattern(i int) rounds.FailurePattern {
	fp := rounds.FailurePattern{Crashes: make(map[rounds.ProcessID]rounds.Crash)}
	for f, j := 0, 0; i > 0; f++ {
		i--
		id := j + 1
		size := u.sub[(f+1)*(u.n+1)+id]
		for ; i >= u.digits*size; id++ {
			i -= u.digits * size
			size = u.sub[(f+1)*(u.n+1)+id+1]
		}
		u.crash(&fp, rounds.ProcessID(id), i/size)
		i %= size
		j = id
	}
	return fp
}

// crash schedules crash choice d of process id: below plain, (round,
// sends) in identity order, round-major; above it, a late-round partial
// crash (round ≥ 2, 0 < sends < n) in the reversed order.
func (u *unranker) crash(fp *rounds.FailurePattern, id rounds.ProcessID, d int) {
	if d < u.plain {
		fp.Crashes[id] = rounds.Crash{Round: 1 + d/(u.n+1), AfterSends: d % (u.n + 1)}
		return
	}
	d -= u.plain
	round := 2 + d/(u.n-1)
	fp.Crashes[id] = rounds.Crash{Round: round, AfterSends: 1 + d%(u.n-1)}
	if fp.Orders == nil {
		fp.Orders = make(map[rounds.ProcessID]map[int][]rounds.ProcessID)
	}
	fp.Orders[id] = map[int][]rounds.ProcessID{round: u.rev}
}

// reversedOrder returns p_n..p_1.
func reversedOrder(n int) []rounds.ProcessID {
	order := make([]rounds.ProcessID, n)
	for i := range order {
		order[i] = rounds.ProcessID(n - i)
	}
	return order
}
