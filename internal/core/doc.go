// Package core implements the paper's primary contribution (Section 6): the
// synchronous condition-based k-set agreement algorithm of Figure 2,
// together with the classical flood-based k-set agreement baseline it
// generalizes, the early-deciding extension sketched in Section 8, and a
// verifier for the termination/validity/agreement properties and round
// bounds.
//
// Paper map:
//
//	Section 6.1   Params (n, t, k and the class S^d_t[ℓ], x = t−d)
//	Figure 2      Runner.RunCond — decide by round RCond when I ∈ C
//	Theorem 10    the max(2, ⌊(d+ℓ−1)/k⌋+1) vs ⌊t/k⌋+1 round bounds
//	Section 8     Runner.RunEarly — never later than min(⌊f/k⌋+3, the bounds)
//	(baseline)    Runner.RunClassical — condition-free flood, exactly ⌊t/k⌋+1
//	(spec)        Verify — termination, validity, agreement, round bounds
//
// The Runner is the per-worker execution handle: it owns a rounds.Engine
// plus the per-run protocol state for all three synchronous algorithms,
// so a campaign worker re-running scenarios validates nothing and
// allocates nothing per run.
package core
