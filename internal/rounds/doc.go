// Package rounds implements the synchronous round-based message-passing
// model of the paper's Section 6.2: computation proceeds in rounds made of
// a send phase, a receive phase and a compute phase; a message sent in
// round r is received in round r; processes fail by crashing.
//
// Crash semantics follow the paper's refinement of the standard model:
// every process sends its round messages in a predetermined order
// (p_1, …, p_n in round 1), and a process that crashes during its send
// phase delivers only a prefix of them. Round 1's fixed order is what makes
// the processes' views of the input vector totally ordered by containment —
// the property the Figure-2 algorithm's agreement argument builds on.
// In later rounds the adversary may reorder deliveries (the paper permits
// any order after round 1).
//
// There is one executor: processes are stepped in-line in id order. A
// process's compute phase touches only its own state, so that order is the
// lock-step model itself, and it keeps every run deterministic — the basis
// of exhaustive adversary model checking.
//
// Paper map:
//
//	Section 6.2   the model: rounds, prefix-send crashes, FailurePattern
//	Section 6.3   the view-containment invariant round 1 establishes
//
// The Engine is the module's synchronous hot path: it reuses its buffers
// across runs (RunInto + Result.Reset make stats-only campaign runs
// allocation-free) and reads the failure pattern into a crash list once per
// run. It has one round loop — the processes' sends, the round's crashes,
// then their compute phases, each decision taking effect where it is made —
// and the transport alone picks the delivery: Options.Transport == nil is the
// model's reliable network, delivered on one row the engine shares among the
// destinations; an installed Transport — or the built-in MatrixTransport,
// when the adversary overrides a send order — is driven through the
// Transport seam.
//
// The engine steps a round, not a process: a run's processes are one Group,
// with one Send per round and one Step per set of destinations that read
// the same row. Without a transport a round's receivers can only disagree
// about the senders that crash in it: the fixed p_1..p_n order makes their
// rows a containment chain, so Step runs once per segment between prefix
// ends. The engine steps the segments from the last one back: the last
// row lacks every sender whose prefix ends short of n, and each row down is
// the previous one plus the senders whose prefix ends there, which
// Round.Added lists. A Group that extends its digest by the added senders
// folds a round's row once, n payloads whatever the crashes. Package core's
// Runner runs its three algorithms as such Groups; RunInto runs a slice of
// Processes as a Group that steps each of them on the row itself.
//
// Through the seam the engine applies the crash adversary to each round's
// sends (order and prefix length) and hands the surviving copies to the
// Transport, which decides what each destination receives — possibly
// something different each, so every process gets Step. MatrixTransport is
// the reliable n×n matrix, result for result the shared row; the seam is
// an interface, not a cost (BenchmarkEngineTransport is gated at
// 0 allocs/run in scripts/benchgate.sh). Package faultnet plugs in the
// lossy alternative: a transport may drop, delay by whole rounds,
// duplicate or reorder copies, report its tampering through the optional
// FaultCounter interface, and retain payloads past their send round by
// freezing them (Freezer) instead of aliasing sender-reused buffers.
// Freeze takes the retired copy to overwrite, so a transport recycles the
// copies of its finished runs; what makes that safe is the Process
// contract that a received payload is not retained past Step.
package rounds
