package kset

import (
	"kset/internal/adversary"
	"kset/internal/faultnet"
)

// This file is the public surface of the fault-injection transport plane:
// link-fault plans, their indexed families, and the generator combinators
// that cross them with inputs and executors. The paper's model (Section
// 6.2) assumes reliable links and admits only process crashes; fault
// plans go beyond it, probing how the algorithms degrade when the network
// itself drops, delays, duplicates or reorders message copies. Faults
// compose with any crash FailurePattern and apply only to synchronous
// executors — Asynchronous runs model delay through scheduling jitter
// already and ignore the plan.

// FaultPlan is a deterministic link-fault plan: per-link loss, delay and
// duplication rates plus explicitly scheduled faults, replayed
// identically for a given seed. A plan is immutable once installed on a
// Scenario. The zero plan injects no faults.
type FaultPlan = faultnet.Plan

// LinkFaults is the per-link fault profile of a FaultPlan: loss, delay
// and duplication probabilities and the delay bound in rounds.
type LinkFaults = faultnet.LinkFaults

// FaultLink is a directed sender→receiver link, the key of a FaultPlan's
// per-link profile overrides.
type FaultLink = faultnet.Link

// ScheduledFault is one explicitly scheduled fault of a FaultPlan: a
// drop, delay or duplication pinned to a round and link.
type ScheduledFault = faultnet.Fault

// FaultKind discriminates scheduled faults: FaultDrop, FaultDelay or
// FaultDuplicate.
type FaultKind = faultnet.Kind

// The scheduled-fault kinds.
const (
	// FaultDrop loses the copy.
	FaultDrop = faultnet.Drop
	// FaultDelay defers the copy by the fault's Delay rounds.
	FaultDelay = faultnet.Delay
	// FaultDuplicate delivers the copy twice: on time and Delay rounds
	// late.
	FaultDuplicate = faultnet.Duplicate
)

// FaultFamily is a finite, deterministic, indexed family of fault plans:
// Size plans, Plan(i) equivalent for the same i, index 0 fault-free by
// convention. Families are the fault-plane counterpart of FailureFamily —
// cross one with an input source via FaultSchedules, or expand a sweep
// grid point per plan via SweepFaults.
type FaultFamily = adversary.FaultFamily

// LossSweepFamily is the family of size plans ramping the uniform loss
// rate linearly from 0 (plan 0: fault-free) to maxLoss — the loss axis of
// a fault trade-off grid.
func LossSweepFamily(seed int64, size int, maxLoss float64) FaultFamily {
	return adversary.LossSweep(seed, size, maxLoss)
}

// DelaySweepFamily is the family of size plans raising the uniform delay
// bound: plan i defers copies with probability prob by up to i rounds
// (plan 0: fault-free).
func DelaySweepFamily(seed int64, size int, prob float64) FaultFamily {
	return adversary.DelaySweep(seed, size, prob)
}

// StormFamily is the family of size plans scaling loss, delay (up to
// maxDelay rounds), duplication and reordering together from 0 (plan 0:
// fault-free) to the peak intensity — the everything-at-once stress axis.
func StormFamily(seed int64, size, maxDelay int, intensity float64) FaultFamily {
	return adversary.Storm(seed, size, maxDelay, intensity)
}

// CrossFaults takes the cross product of a source with an explicit
// fault-plan list: each scenario is yielded once per plan, with that plan
// installed. A nil plan entry yields the scenario fault-free, so a
// reliable baseline can ride in the same product.
func CrossFaults(src ScenarioSource, plans ...*FaultPlan) ScenarioSource {
	return crossSource(src, len(plans), func(sc Scenario, j int) Scenario {
		sc.Faults = plans[j]
		return sc
	})
}

// FaultSchedules takes the cross product of a source with a fault family:
// each scenario is yielded once per family plan. The family's plans are
// materialized once, when the product source is built (like
// FailureSchedules' patterns), not once per iteration: every scenario
// sharing plan i — in every pass, shard and checkpoint chunk over the
// source — carries the same *FaultPlan pointer, so the transport's
// per-plan caches stay warm.
func FaultSchedules(src ScenarioSource, fam FaultFamily) ScenarioSource {
	plans := make([]*FaultPlan, fam.Size())
	for i := range plans {
		plans[i] = fam.Plan(i)
	}
	return CrossFaults(src, plans...)
}

// SweepFaults expands one grid point into one point per plan of the
// family, keyed "<key>/<family>=<i>" (or "<family>=<i>" when the base key
// is empty) — the fault axis of a trade-off grid. Each point's source is
// the base source crossed with that single plan.
func SweepFaults(base SweepPoint, fam FaultFamily) []SweepPoint {
	return sweepAxis(base, fam.Name(), fam.Size(), func(src ScenarioSource, i int) ScenarioSource {
		return CrossFaults(src, fam.Plan(i))
	})
}

// faultSeed derives the per-run transport seed: an FNV-1a mix of the
// plan's seed, the scenario's seed and the input values. Tying the seed
// to the scenario (not to a worker-local stream) is what keeps campaign
// fault draws independent of worker count and submission order.
func faultSeed(plan *FaultPlan, sc *Scenario) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime
			v >>= 8
		}
	}
	mix(uint64(plan.Seed))
	mix(uint64(sc.Seed))
	for _, v := range sc.Input {
		mix(uint64(v))
	}
	return h
}
