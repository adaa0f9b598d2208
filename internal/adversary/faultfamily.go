package adversary

import (
	"kset/internal/faultnet"
)

// FaultFamily is a finite, deterministic, indexed family of fault plans —
// the link-fault counterpart of Family. Like Family it is defined by a
// size and a pure index → plan function, so fault sweeps are
// random-access and reproducible; by convention index 0 is fault-free,
// anchoring every sweep to the reliable baseline.
//
// The generator caches nothing, so Plan(i) returns a fresh *faultnet.Plan
// each call; callers that need pointer-stable plans (the transport caches
// derived state by plan pointer) should materialize the family once per
// iteration, as the kset generators do.
type FaultFamily struct {
	name string
	size int
	gen  func(i int) *faultnet.Plan
}

// newFaultFamily builds a family from a name, a size and a pure index →
// plan function. gen must be deterministic; it is called with indices
// 0..size-1.
func newFaultFamily(name string, size int, gen func(i int) *faultnet.Plan) FaultFamily {
	if size < 0 {
		size = 0
	}
	return FaultFamily{name: name, size: size, gen: gen}
}

// Name returns the family's label, used in scenario and sweep keys.
func (f FaultFamily) Name() string { return f.name }

// Size returns the number of plans in the family.
func (f FaultFamily) Size() int { return f.size }

// Plan returns the i-th plan. It panics when i is out of range.
func (f FaultFamily) Plan(i int) *faultnet.Plan {
	if i < 0 || i >= f.size {
		panic("adversary: fault family index out of range")
	}
	return f.gen(i)
}

// frac returns i scaled into [0, 1] over a family of the given size
// (index 0 ↦ 0, the last index ↦ 1).
func frac(i, size int) float64 {
	if size <= 1 {
		return 0
	}
	return float64(i) / float64(size-1)
}

// LossSweep is the family of size uniform-loss plans ramping the
// every-link loss rate linearly from 0 (index 0: fault-free) to maxLoss —
// the loss axis of a fault trade-off grid.
func LossSweep(seed int64, size int, maxLoss float64) FaultFamily {
	return newFaultFamily("loss", size, func(i int) *faultnet.Plan {
		p := &faultnet.Plan{Seed: seed + int64(i)}
		if rate := maxLoss * frac(i, size); rate > 0 {
			p.Default = faultnet.LinkFaults{Loss: rate}
		}
		return p
	})
}

// DelaySweep is the family of size uniform-delay plans: plan i defers
// each copy with probability prob by up to i rounds (index 0:
// fault-free) — the delay-bound axis of a fault trade-off grid.
func DelaySweep(seed int64, size int, prob float64) FaultFamily {
	return newFaultFamily("delay", size, func(i int) *faultnet.Plan {
		p := &faultnet.Plan{Seed: seed + int64(i)}
		if i > 0 && prob > 0 {
			p.Default = faultnet.LinkFaults{DelayProb: prob, MaxDelay: i}
		}
		return p
	})
}

// Storm is the family of size everything-at-once plans: plan i scales
// loss, delay (up to maxDelay rounds), duplication and send-order
// reordering together from 0 (index 0: fault-free) to the given peak
// intensity — the stress axis that bounds how badly a protocol can
// degrade when every fault kind strikes at once.
func Storm(seed int64, size, maxDelay int, intensity float64) FaultFamily {
	if maxDelay < 1 {
		maxDelay = 1
	}
	return newFaultFamily("storm", size, func(i int) *faultnet.Plan {
		p := &faultnet.Plan{Seed: seed + int64(i)}
		if x := intensity * frac(i, size); x > 0 {
			p.Default = faultnet.LinkFaults{
				Loss:      x,
				DelayProb: x,
				MaxDelay:  maxDelay,
				Duplicate: x,
			}
			p.Reorder = x
		}
		return p
	})
}
