package core

import (
	"kset/internal/rounds"
	"kset/internal/vector"
)

// ClassicalProcess is the classical synchronous k-set agreement algorithm
// (Chaudhuri et al.): flood the largest value seen and decide it at round
// ⌊t/k⌋ + 1. It is the baseline the paper's algorithm collapses to when
// instantiated with d = t and ℓ = 1, and the comparison point for every
// round-complexity experiment.
//
// (Flooding max rather than the more customary min keeps the decision rule
// aligned with the condition-based algorithm, which decides max values;
// either choice satisfies the specification.)
type ClassicalProcess struct {
	est       vector.Value
	lastRound int // ⌊t/k⌋ + 1
}

// NewClassicalRun builds the n baseline protocol instances for the input
// vector.
func NewClassicalRun(n, t, k int, input vector.Vector) ([]rounds.Process, error) {
	if err := ValidateClassical(n, t, k); err != nil {
		return nil, err
	}
	if err := ValidateInput(n, input); err != nil {
		return nil, err
	}
	procs := make([]rounds.Process, n)
	for i := range procs {
		procs[i] = &ClassicalProcess{est: input[i], lastRound: t/k + 1}
	}
	return procs, nil
}

// Send implements rounds.Process.
func (c *ClassicalProcess) Send(int) any { return c.est }

// Step implements rounds.Process: the row's digest, then stepDigest.
func (c *ClassicalProcess) Step(round int, recv []any) (vector.Value, bool) {
	return c.stepDigest(round, rowMax(recv))
}

// rowMax is a row's digest, its largest value. Non-Value payloads (possible
// only under a fault-injecting transport mixing in stale copies) are
// discarded.
func rowMax(recv []any) vector.Value {
	largest := vector.Bottom
	for _, payload := range recv {
		if v, ok := payload.(vector.Value); ok && v > largest {
			largest = v
		}
	}
	return largest
}

// maxOf is rowMax of a row that extends one whose digest is largest by the
// senders in added.
func maxOf(largest vector.Value, recv []any, added []int) vector.Value {
	for _, j := range added {
		if v, ok := recv[j].(vector.Value); ok && v > largest {
			largest = v
		}
	}
	return largest
}

// stepDigest max-merges a row's digest and decides at the last round.
func (c *ClassicalProcess) stepDigest(round int, digest vector.Value) (vector.Value, bool) {
	c.est = maxValue(c.est, digest)
	if round >= c.lastRound {
		return c.est, true
	}
	return vector.Bottom, false
}
