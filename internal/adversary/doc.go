// Package adversary generates failure patterns for the synchronous model
// of the paper's Section 6.2 — the crash adversary that picks which
// processes crash, in which round, after delivering to which prefix of
// their send order.
//
// Three generation styles cover the module's workloads:
//
//   - canned scenarios: the failure-free pattern, initial crashes (the
//     paper's "initially crashed" processes whose entries stay ⊥), the
//     mid-round splitter, and the staggered containment-chain worst case
//     of the agreement proof's counting argument;
//   - deterministic, indexed Family values (fixed lists, the f-sweep
//     initial family, staggered and seeded-random families) — the
//     adversary side of the root package's scenario generators, where
//     random-access determinism keeps generated campaigns reproducible;
//   - the exhaustive families of every prefix-send crash pattern
//     (ExhaustiveFamily, and ExhaustiveOrdersFamily with the reversed
//     send orders of late-round partial crashes) for model checking
//     small configurations: indexed like the others, Pattern(i) ranks
//     the i-th pattern directly; the pattern space is
//     Σ_{f≤t} C(n,f)·(r·(n+1))^f.
//
// Beyond the paper's crash-only model, the package also builds the link
// adversary: deterministic indexed FaultFamily values over faultnet
// plans (LossSweep, DelaySweep, Storm) — the fault-plane counterpart of
// Family, feeding the root package's fault generators and sweeps.
package adversary
