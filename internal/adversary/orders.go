package adversary

import (
	"kset/internal/rounds"
)

// The paper's model fixes the send order only in round 1; from round 2 on
// the adversary may deliver a crashing process's prefix in any order. The
// plain Enumerate uses the identity order everywhere, which biases partial
// deliveries toward low process ids. EnumerateWithOrders additionally
// assigns each late-round partial crash the reversed order, covering the
// opposite knowledge distribution (high ids informed, low ids starved) and
// every mix of the two across crashers.

// reversedOrder returns p_n..p_1.
func reversedOrder(n int) []rounds.ProcessID {
	order := make([]rounds.ProcessID, n)
	for i := range order {
		order[i] = rounds.ProcessID(n - i)
	}
	return order
}

// EnumerateWithOrders calls fn on every pattern Enumerate generates, and
// additionally on every variant that reverses the send order of some
// subset of the late-round partial crashers (crashes in rounds ≥ 2 with
// 0 < AfterSends < n). The callback must not retain the pattern: like
// Enumerate, the variants reuse one Orders map (and one inner per-round
// map per crasher slot) across all steps instead of copying the pattern's
// maps per variant, so a sweep's order expansion allocates nothing after
// warm-up.
func EnumerateWithOrders(n, t, maxRounds int, fn func(rounds.FailurePattern) bool) error {
	rev := reversedOrder(n)
	partial := make([]rounds.ProcessID, 0, n)
	orders := make(map[rounds.ProcessID]map[int][]rounds.ProcessID, n)
	var inner []map[int][]rounds.ProcessID // reusable inner map per partial slot
	return Enumerate(n, t, maxRounds, func(fp rounds.FailurePattern) bool {
		// Collect the crashers whose delivery order matters, in id order
		// (the Crashes map iterates randomly; sorting keeps the variant
		// sequence deterministic).
		partial = partial[:0]
		for id, cr := range fp.Crashes {
			if cr.Round >= 2 && cr.AfterSends > 0 && cr.AfterSends < n {
				partial = append(partial, id)
			}
		}
		// Insertion sort: at most t elements, and it allocates nothing.
		for i := 1; i < len(partial); i++ {
			for j := i; j > 0 && partial[j] < partial[j-1]; j-- {
				partial[j], partial[j-1] = partial[j-1], partial[j]
			}
		}
		for len(inner) < len(partial) {
			inner = append(inner, make(map[int][]rounds.ProcessID, 1))
		}
		// Try every subset of them reversed (identity subset first).
		for mask := 0; mask < 1<<len(partial); mask++ {
			variant := fp
			if mask != 0 {
				clear(orders)
				for b, id := range partial {
					if mask&(1<<b) != 0 {
						m := inner[b]
						clear(m)
						m[fp.Crashes[id].Round] = rev
						orders[id] = m
					}
				}
				variant.Orders = orders
			}
			if !fn(variant) {
				return false
			}
		}
		return true
	})
}
