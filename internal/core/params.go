package core

import (
	"fmt"

	"kset/internal/condition"
	"kset/internal/kerr"
)

// Params fixes one instance of the synchronous k-set agreement problem and
// the condition class the algorithm is instantiated with: n processes, at
// most t crashes, at most k decided values, and a condition C ∈ S^d_t[ℓ]
// (that is, a (t−d, ℓ)-legal condition).
type Params struct {
	// N is the number of processes.
	N int
	// T is the maximum number of crashes tolerated (1 ≤ T < N).
	T int
	// K is the agreement degree: at most K distinct values decided.
	K int
	// D is the condition degree: the condition is (T−D, ℓ)-legal. Larger D
	// means a larger (weaker) condition and more rounds.
	D int
	// L is the ℓ of the condition: how many values one of its vectors may
	// encode. The paper requires ℓ ≤ k (otherwise the condition cannot
	// bound the decided values by k) and notes the condition only helps
	// when ℓ ≤ t−d.
	L int
}

// Validate checks the parameter ranges of Section 6.1.
func (p Params) Validate() error {
	switch {
	case p.N < 2:
		return fmt.Errorf("core: n=%d, want ≥ 2: %w", p.N, kerr.ErrBadParams)
	case p.T < 1 || p.T >= p.N:
		return fmt.Errorf("core: t=%d, want 1 ≤ t < n=%d: %w", p.T, p.N, kerr.ErrBadParams)
	case p.K < 1:
		return fmt.Errorf("core: k=%d, want ≥ 1: %w", p.K, kerr.ErrBadParams)
	case p.L < 1 || p.L > p.K:
		return fmt.Errorf("core: ℓ=%d, want 1 ≤ ℓ ≤ k=%d: %w", p.L, p.K, kerr.ErrBadParams)
	case p.D < 0 || p.D > p.T:
		return fmt.Errorf("core: d=%d, want 0 ≤ d ≤ t=%d: %w", p.D, p.T, kerr.ErrBadParams)
	}
	return nil
}

// X returns the legality parameter of the instantiating condition class:
// x = t − d.
func (p Params) X() int { return p.T - p.D }

// RCond is the round at which processes decide when the input vector
// belongs to the condition (or when more than t−d processes crashed
// initially): ⌊(d+ℓ−1)/k⌋ + 1, clamped to at least 2 because the algorithm
// can only decide from round 2 on, and to at most RMax.
//
// Special cases: k = ℓ = 1 gives d+1, the condition-based consensus bound
// of [22]; d = t, ℓ = 1 gives ⌊t/k⌋+1, the classical bound.
func (p Params) RCond() int {
	r := (p.D+p.L-1)/p.K + 1
	if r < 2 {
		r = 2
	}
	if m := p.RMax(); r > m {
		r = m
	}
	return r
}

// RMax is the classical worst-case decision round ⌊t/k⌋ + 1, reached when
// the input vector is outside the condition. Like RCond it is clamped to at
// least 2: Figure 2's flood loop runs from round 2 and cannot decide
// earlier, so when k > t (where a one-round classical algorithm exists)
// this algorithm still needs its single state-exchange round.
func (p Params) RMax() int {
	r := p.T/p.K + 1
	if r < 2 {
		r = 2
	}
	return r
}

// ValidateWith additionally checks that the condition's dimensions match
// the parameters.
func (p Params) ValidateWith(c condition.Condition) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if c == nil {
		return fmt.Errorf("core: nil condition: %w", kerr.ErrBadParams)
	}
	if c.N() != p.N {
		return fmt.Errorf("core: condition over n=%d vectors, params have n=%d: %w", c.N(), p.N, kerr.ErrBadParams)
	}
	if c.L() != p.L {
		return fmt.Errorf("core: condition has ℓ=%d, params have ℓ=%d: %w", c.L(), p.L, kerr.ErrBadParams)
	}
	return nil
}

// ValidateClassical checks the parameter ranges of the classical
// (condition-free) baseline.
func ValidateClassical(n, t, k int) error {
	if n < 2 || t < 1 || t >= n || k < 1 {
		return fmt.Errorf("core: classical: bad parameters n=%d t=%d k=%d: %w", n, t, k, kerr.ErrBadParams)
	}
	return nil
}
