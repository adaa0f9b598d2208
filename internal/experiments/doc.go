// Package experiments is the declarative registry of the paper's
// evaluation artifacts: each experiment is a Spec — identifier, paper
// anchor, default parameters and a runner — and each run produces a
// structured, JSON-marshalable Report whose sections hold named tables,
// series and notes instead of preformatted strings. cmd/experiments
// enumerates the registry (-list), renders reports as text or JSON
// (-json), and CI diffs the JSON structurally.
//
// The runners execute on the library's batch infrastructure — System
// campaigns with labeled scenarios, SweepDegrees/SweepFailures/
// SweepExecutors grids under RunSweep, and RunScenario replays of
// adversary.ExhaustiveFamily for exhaustive model checks — and read
// their measurements off the results plane (internal/stats): campaign
// accumulators, per-label/per-crash-count breakdowns and decision-round
// histograms.
//
// Paper map (experiment → claim):
//
//	E1  Figure 1 lattice arrows        E6  the dividing power of k
//	E2  Table 1 / Theorem 14           E7  early deciding (Section 8)
//	E3  Theorems 3 and 13 sizes        E8  classical baseline contrast
//	E4  Theorem 10 round bounds        E9  exhaustive adversary safety
//	E5  the d size/speed tradeoff      E10 the Section-4 asynchronous run
//
// E11 steps beyond the paper's model: the loss × delay fault-injection
// sweep over faultnet link adversaries (faultsweep.go).
package experiments
