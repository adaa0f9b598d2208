package count

import (
	"fmt"
	"math/big"
	"sync"

	"kset/internal/condition"
	"kset/internal/kerr"
	"kset/internal/vector"
)

// The combinatorial kernels — binomials, surjection counts and integer
// powers — recur with identical arguments throughout a Theorem-13 table
// sweep, so each is backed by a package-level memo table. The tables hand
// out *shared* big integers that callers inside this package only read;
// every exported count (NB, NBConsensus, Fraction) is built in a fresh
// big integer, so what a caller gets is its own.
//
// Concurrency: one mutex per table guards its map. The tables' callers
// make a few NB calls per build, not a hot loop, so a lock per lookup is
// all they need.
type memoTable struct {
	mu sync.Mutex
	m  map[uint64]*big.Int
}

func (t *memoTable) get(key uint64) (*big.Int, bool) {
	t.mu.Lock()
	v, ok := t.m[key]
	t.mu.Unlock()
	return v, ok
}

// put stores v under key unless another goroutine got there first, and
// returns the stored value, so every key has one canonical value.
func (t *memoTable) put(key uint64, v *big.Int) *big.Int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if prior, ok := t.m[key]; ok {
		return prior
	}
	if t.m == nil {
		t.m = make(map[uint64]*big.Int)
	}
	t.m[key] = v
	return v
}

func memoKey(a, b int) uint64 { return uint64(uint32(a))<<32 | uint64(uint32(b)) }

var (
	combMemo memoTable
	surjMemo memoTable
	powMemo  memoTable
)

// combShared returns the memoized C(n,k); the result is shared and must
// not be mutated.
func combShared(n, k int) *big.Int {
	if k < 0 || k > n {
		return bigZero
	}
	key := memoKey(n, k)
	if v, ok := combMemo.get(key); ok {
		return v
	}
	return combMemo.put(key, new(big.Int).Binomial(int64(n), int64(k)))
}

// surjShared returns the memoized number of surjections from an s-element
// set onto a j-element set; the result is shared and must not be mutated.
func surjShared(s, j int) *big.Int {
	if j < 0 || s < j {
		return bigZero
	}
	if j == 0 {
		if s == 0 {
			return bigOne
		}
		return bigZero
	}
	key := memoKey(s, j)
	if v, ok := surjMemo.get(key); ok {
		return v
	}
	// Σ_i (−1)^i C(j,i)(j−i)^s, with big.Int scratch reused across terms.
	total := new(big.Int)
	term := new(big.Int)
	for i := 0; i <= j; i++ {
		term.Mul(powShared(j-i, s), combShared(j, i))
		if i%2 == 0 {
			total.Add(total, term)
		} else {
			total.Sub(total, term)
		}
	}
	return surjMemo.put(key, total)
}

// powShared returns the memoized b^e with the convention 0^0 = 1; the
// result is shared and must not be mutated.
func powShared(b, e int) *big.Int {
	key := memoKey(b, e)
	if v, ok := powMemo.get(key); ok {
		return v
	}
	p := new(big.Int).Exp(big.NewInt(int64(b)), big.NewInt(int64(e)), nil)
	return powMemo.put(key, p)
}

var (
	bigZero = big.NewInt(0)
	bigOne  = big.NewInt(1)
)

// pow returns a freshly owned b^e with the convention 0^0 = 1.
func pow(b, e int) *big.Int {
	return new(big.Int).Set(powShared(b, e))
}

// NBConsensus returns NB(x,1) by Theorem 3's closed form:
//
//	NB(x,1) = Σ_{v=1..m} Σ_{β=x+1..n} C(n,β)·(v−1)^{n−β}.
//
// v ranges over the greatest value of the vector, β over its number of
// occurrences (the density property demands β > x), and (v−1)^{n−β} places
// the smaller values. At x = 0 the sum telescopes to m^n.
func NBConsensus(n, m, x int) *big.Int {
	total := new(big.Int)
	term := new(big.Int)
	for v := 1; v <= m; v++ {
		for beta := x + 1; beta <= n; beta++ {
			total.Add(total, term.Mul(combShared(n, beta), powShared(v-1, n-beta)))
		}
	}
	return total
}

// NB returns NB(x,ℓ), the number of vectors in the (x,ℓ)-legal condition
// generated by max_ℓ (Theorem 13). The count splits, as in Appendix A, into
//
//   - A: vectors with fewer than ℓ distinct values — all belong (their
//     recognized values occupy every entry, and x < n);
//
//   - B: vectors with at least ℓ distinct values whose ℓ greatest values
//     occupy s > x entries, enumerated over w (the smallest of the ℓ
//     greatest values; the remaining ℓ−1 top values are chosen above w and
//     the n−s other entries range below w):
//
//     B = Σ_{w=1..m} C(m−w, ℓ−1) · Σ_{s=max(x+1,ℓ)..n} C(n,s)·Surj(s,ℓ)·(w−1)^{n−s}.
func NB(n, m, x, l int) (*big.Int, error) {
	switch {
	case n < 1 || m < 1 || l < 1:
		return nil, fmt.Errorf("count: NB(n=%d, m=%d, x=%d, ℓ=%d): n, m, ℓ must be ≥ 1: %w", n, m, x, l, kerr.ErrBadParams)
	case x < 0 || x >= n:
		return nil, fmt.Errorf("count: NB(x=%d): want 0 ≤ x < n=%d: %w", x, n, kerr.ErrBadParams)
	}

	// A: fewer than ℓ distinct values: Σ_{j<ℓ} C(m,j)·Surj(n,j).
	a := new(big.Int)
	term := new(big.Int)
	for j := 1; j < l; j++ {
		a.Add(a, term.Mul(combShared(m, j), surjShared(n, j)))
	}

	// B: at least ℓ distinct values with dense top-ℓ.
	b := new(big.Int)
	sMin := max(x+1, l)
	// C(n,s)·Surj(s,ℓ) does not depend on w: hoist the table out of the w
	// loop so each entry is computed once per NB call (and, through the
	// memo tables, amortizes further across a swept table).
	table := make([]*big.Int, n+1)
	for s := sMin; s <= n; s++ {
		table[s] = new(big.Int).Mul(combShared(n, s), surjShared(s, l))
	}
	inner := new(big.Int)
	for w := 1; w <= m; w++ {
		upper := combShared(m-w, l-1)
		if upper.Sign() == 0 {
			continue
		}
		inner.SetInt64(0)
		for s := sMin; s <= n; s++ {
			inner.Add(inner, term.Mul(table[s], powShared(w-1, n-s)))
		}
		b.Add(b, inner.Mul(inner, upper))
	}

	return a.Add(a, b), nil
}

// MustNB is NB that panics on error.
func MustNB(n, m, x, l int) *big.Int {
	v, err := NB(n, m, x, l)
	if err != nil {
		panic(err)
	}
	return v
}

// BruteForce counts the members of the max_ℓ-generated (x,ℓ)-legal
// condition by enumerating {1..m}^n. It is exponential and exists to
// cross-check NB in tests and experiments.
func BruteForce(n, m, x, l int) int64 {
	c := condition.MustNewMax(n, m, x, l)
	var count int64
	vector.ForEach(n, m, func(i vector.Vector) bool {
		if c.Contains(i) {
			count++
		}
		return true
	})
	return count
}

// Fraction returns NB(x,ℓ)/m^n as a float: the share of all input vectors
// the max_ℓ condition admits. It quantifies the paper's size/speed
// tradeoff (Section 5): smaller x (larger condition degree d = t−x) admits
// more vectors.
func Fraction(n, m, x, l int) (float64, error) {
	nb, err := NB(n, m, x, l)
	if err != nil {
		return 0, err
	}
	total := pow(m, n)
	f, _ := new(big.Float).Quo(new(big.Float).SetInt(nb), new(big.Float).SetInt(total)).Float64()
	return f, nil
}
