// Package kset is a library for condition-based k-set agreement in
// synchronous (and asynchronous) crash-prone systems, reproducing Bonnet &
// Raynal, "Conditions for Set Agreement with an Application to Synchronous
// Systems" (IRISA PI 1870 / ICDCS 2008).
//
// # Background
//
// In the k-set agreement problem, n processes each propose a value and
// every non-faulty process must decide a proposed value such that at most k
// distinct values are decided. In a synchronous system with at most t
// crashes, ⌊t/k⌋+1 rounds are necessary in the worst case. The
// condition-based approach restricts the admissible input vectors to a
// condition C and decides faster whenever the actual input belongs to C.
//
// This package exposes:
//
//   - (x,ℓ)-legal conditions (Definition 2): max_ℓ-generated conditions for
//     realistic sizes, explicit conditions for hand-built sets — a hashed
//     member index with allocation-free O(1) membership, snapshotted at
//     System construction — a legality checker and a recognizing-function
//     search;
//   - the synchronous condition-based k-set agreement algorithm (the
//     paper's Figure 2), deciding in max(2, ⌊(d+ℓ−1)/k⌋+1) rounds when the
//     input is in the condition and ⌊t/k⌋+1 otherwise, plus the classical
//     baseline and early-deciding variants (Section 8);
//   - the asynchronous condition-based ℓ-set agreement algorithm over an
//     atomic-snapshot memory (Section 4);
//   - the condition-size counting functions NB(x,ℓ) (Theorems 3 and 13);
//   - a scenario-generation subsystem (ScenarioSource, FailureFamily,
//     Sweep) that constructs the scenario spaces the paper's quantitative
//     claims are demonstrated on;
//   - a fault-injection plane that goes beyond the paper's reliable-link
//     model: deterministic seeded link adversaries (FaultPlan,
//     Scenario.Faults) that drop, delay, duplicate and
//     reorder messages, with FaultFamily sweeps and undecided-run
//     accounting for measuring how the algorithms degrade off-model.
//
// # Paper → package map
//
// The root package is a facade; the machinery lives under internal/ and
// maps onto the paper as follows (ARCHITECTURE.md has the full tour):
//
//	internal/vector     §2.1  input vectors, views, containment, value sets
//	internal/condition  §2.2  (x,ℓ)-legality (Def. 2), recognizers, decoding (Def. 4)
//	internal/lattice    §3    the legality lattice (Fig. 1, Table 1)
//	internal/async      §4    asynchronous ℓ-set agreement over snapshots
//	internal/count      §5,7  NB(x,ℓ) condition sizes (Theorems 3 and 13)
//	internal/core       §6,8  the Figure-2 algorithm, baseline, early deciding
//	internal/rounds     §6.2  the synchronous round-based crash-prone model
//	internal/adversary  §6.2  failure-pattern construction and enumeration
//	internal/faultnet   —     the fault-injecting transport (beyond the model)
//
// # Quick start
//
// A System is the package's one run entry point. Construct it once —
// parameters, condition and executor are validated there — then Run it
// as many times as the workload demands (Run is safe for concurrent use):
//
//	p := kset.Params{N: 6, T: 3, K: 2, D: 1, L: 1}
//	c, _ := kset.NewMaxCondition(p.N, 4, p.X(), p.L) // C ∈ S^d_t[ℓ]
//	sys, _ := kset.New(kset.WithParams(p), kset.WithCondition(c))
//	input := kset.VectorOf(4, 4, 4, 2, 1, 2)
//	res, _ := sys.Run(context.Background(), input, kset.NoFailures())
//	fmt.Println(res.Decisions, res.MaxDecisionRound())
//
// The executors Figure2 (default), EarlyDeciding, Classical and
// Asynchronous select the algorithm; kset.WithExecutor picks the system
// default and Scenario.Executor overrides it per run.
//
// # Campaigns
//
// For the quantitative workloads the paper's results call for — sweeping
// millions of inputs × failure patterns × algorithms — a Campaign fans
// scenarios across a bounded worker pool that reuses per-worker engines
// and aggregates decision-round histograms, condition-hit rates and
// specification violations into a CampaignStats:
//
//	stats, _ := sys.RunCampaign(ctx, scenarios)
//	fmt.Println(stats.HitRate(), stats.MeanDecisionRound())
//
// # The results plane
//
// Behind CampaignStats sits one observability pipeline: every run emits
// a flat Observation (decision round, messages, crashes, condition hit,
// verdict), and every installed Collector folds it in a worker-local
// shard joined deterministically when the campaign completes. The
// campaign's own Accumulator — a bounded decision-round histogram,
// min/mean/max summaries and per-executor / per-crash-count / per-label
// breakdowns, exposed as CampaignStats.Metrics — is worker-count- and
// scheduling-invariant and JSON-marshalable; CollectInto attaches custom
// collectors to the same stream:
//
//	acc := kset.NewAccumulator()
//	stats, _ := sys.RunCampaign(ctx, scenarios, kset.CollectInto(acc))
//	fmt.Println(acc.ByExecutor["figure2"].Rounds.Mean())
//
// # Generators and sweeps
//
// Campaigns are fed best from scenario generators: a ScenarioSource
// streams a structured scenario family — every vector of {1..m}^n
// (ExhaustiveInputs), a condition's members (ConditionMembers), seeded
// random inputs (RandomInputs) — and combinators cross it with failure
// patterns (CrossFailures, FailureSchedules) and executors
// (CrossExecutors) without materializing anything:
//
//	src := kset.FailureSchedules(
//		kset.RandomInputs(seed, p.N, m, 10_000),
//		kset.RandomCrashFamily(seed+1, p.N, p.T, p.RMax(), 10),
//	)
//	stats, _ := sys.RunSource(ctx, src, kset.VerifyRuns())
//
// A campaign has two feeds. RunSource pulls a sized source: the workers
// claim index ranges of the stream and generate their own scenarios, with
// no producer and no queue (RunCampaign is RunSource over ScenariosOf).
// An unsized or foreign source cannot be cut into ranges: RunSource
// generates it and pushes it through a bounded queue instead, and so does
// NewCampaign's SubmitAll. A
// campaign reports through its collectors alone (CollectInto adds custom
// ones); a run is a pure function of its scenario, so RunScenario replays
// any one of them.
//
// For trade-off curves across a parameter grid — the paper's d and f
// sweeps — RunSweep runs one campaign per SweepPoint and returns keyed
// stats; SweepDegrees, SweepFailures and SweepExecutors build the grids.
//
// # Fault injection
//
// The paper's model has reliable links: only processes fail, by
// crashing. The fault plane deliberately steps outside it. A FaultPlan
// describes a seeded link adversary — per-link loss, delay-by-rounds and
// duplication rates, a reorder rate, scheduled per-copy faults — that
// the synchronous executors inject between send and receive, composable
// with any crash FailurePattern. A scenario carries its plan in
// Scenario.Faults; CrossFaults installs plans on a whole source:
//
//	plan := &kset.FaultPlan{Seed: 1, Default: kset.LinkFaults{Loss: 0.05}}
//	stats, _ := sys.RunSource(ctx, kset.CrossFaults(src, plan))
//
// Build the System with kset.WithTransport(kset.UDPLoopback(cfg)) and the
// same faults, draw for draw, hit copies that travel as encoded
// datagrams. The asynchronous executor ignores the plan. Fault draws are
// seeded per scenario (plan seed
// × scenario seed × input), so lossy campaigns stay byte-reproducible at
// any worker count. Runs always terminate within the model's round
// bound: a process that loses every copy halts undecided, counted in
// CampaignStats.UndecidedRuns rather than hanging or deciding ⊥.
// FaultFamily sweeps (LossSweepFamily, DelaySweepFamily, StormFamily)
// and the CrossFaults / FaultSchedules / SweepFaults generators cross
// plans with scenario sources; see ExampleSweepFaults.
//
// The deeper machinery (exhaustive adversaries, the Section-3 lattice
// harness, proofs-by-enumeration) lives in the internal packages and is
// surfaced through cmd/experiments.
package kset
