package stats

import (
	"errors"
	"sort"
)

// Observation is one run's flat metric record: the quantities every
// execution layer can report about a single agreement run without
// retaining the run's Result. Producers fill what they know — the round
// engine fills the execution facts, the campaign layer adds condition
// membership and the verdict — and collectors fold the rest.
type Observation struct {
	// Round is the latest round at which any process decided; 0 means no
	// round at all (an asynchronous run, or nobody decided).
	Round int
	// Messages is the number of messages delivered across the run.
	Messages int64
	// Crashes is the number of processes that crashed during the run.
	Crashes int
	// Decided is the number of processes that decided.
	Decided int
	// Undecided is the number of processes that neither decided nor
	// crashed within the run's round limit — the counted outcome of a
	// fault-injected run whose message losses starved a process of the
	// state it needed (0 on every fault-free synchronous run).
	Undecided int
	// Lost, Delayed and Duplicated count the message copies the run's
	// transport dropped, deferred and duplicated (all 0 under reliable
	// delivery).
	Lost, Delayed, Duplicated int64
	// InCondition reports whether the input vector belongs to the
	// system's condition.
	InCondition bool
	// Verified reports whether the run was checked against the k-set
	// agreement specification.
	Verified bool
	// Violation reports a verified run that failed the specification.
	// Meaningful only when Verified is set.
	Violation bool
	// Err marks a run that failed to execute; errored runs count toward
	// Runs and Errors and stay out of every other aggregate.
	Err bool
	// Executor is the short executor name ("figure2", "early", …), or
	// empty when unknown; it keys the per-executor breakdown.
	Executor string
	// Label is the scenario's label, or empty; it keys the per-label
	// breakdown.
	Label string
}

// Collector receives one Observation per run. A collector need not be
// safe for concurrent use: batch drivers give every worker a private
// shard (Fork) fed from a single goroutine, and fold the shards back in
// a deterministic order (Join) once the workers are done.
type Collector interface {
	// Observe folds one run into the collector.
	Observe(o Observation)
	// Fork returns a fresh, empty collector of the same kind, to be used
	// as a worker-local shard.
	Fork() Collector
	// Join folds a shard previously returned by this collector's Fork
	// back in. Implementations may panic when handed a foreign collector.
	Join(shard Collector)
}

// HistogramBuckets bounds the decision-round histogram: rounds 0 through
// HistogramBuckets−1 are counted individually, later rounds land in the
// exact overflow summary. Synchronous runs decide within ⌊t/k⌋+1 rounds,
// so any realistic configuration fits the tracked range; the bound is
// what keeps Observe free of append and allocation.
const HistogramBuckets = 64

// Histogram is the bounded decision-round histogram. Index 0 counts runs
// that decided in no round at all — asynchronous runs (which have no
// rounds) and runs where nobody decided.
type Histogram struct {
	// Buckets[r] counts runs whose latest decision came at round r.
	Buckets [HistogramBuckets]int64
	// Overflow summarizes the rounds ≥ HistogramBuckets exactly (count,
	// sum, min, max), so Mean and Max lose nothing to the bound.
	Overflow Summary
}

// Observe counts one run's latest decision round.
func (h *Histogram) Observe(round int) {
	switch {
	case round < 0:
		h.Buckets[0]++
	case round < HistogramBuckets:
		h.Buckets[round]++
	default:
		h.Overflow.Observe(int64(round))
	}
}

// Merge folds o into h. Merging is commutative and associative.
func (h *Histogram) Merge(o *Histogram) {
	for r, n := range o.Buckets {
		h.Buckets[r] += n
	}
	h.Overflow.Merge(o.Overflow)
}

// Decided returns the number of runs that decided in some round (≥ 1).
func (h *Histogram) Decided() int64 {
	n := h.Overflow.Count
	for r := 1; r < HistogramBuckets; r++ {
		n += h.Buckets[r]
	}
	return n
}

// Max returns the latest decision round observed (≥ 1), or 0 when every
// run decided in no round.
func (h *Histogram) Max() int {
	if h.Overflow.Count > 0 {
		return int(h.Overflow.Max)
	}
	for r := HistogramBuckets - 1; r >= 1; r-- {
		if h.Buckets[r] > 0 {
			return r
		}
	}
	return 0
}

// Mean returns the mean latest decision round over the runs that decided
// in some round, or 0 when none did.
func (h *Histogram) Mean() float64 {
	var runs, sum int64
	for r := 1; r < HistogramBuckets; r++ {
		runs += h.Buckets[r]
		sum += int64(r) * h.Buckets[r]
	}
	runs += h.Overflow.Count
	sum += h.Overflow.Sum
	if runs == 0 {
		return 0
	}
	return float64(sum) / float64(runs)
}

// Slice returns the tracked buckets as a slice trimmed to the highest
// non-empty index (index 0 included), or nil when the histogram is
// empty. Overflowed rounds are not representable positionally and are
// omitted; read them from Overflow.
func (h *Histogram) Slice() []int64 {
	top := -1
	for r := HistogramBuckets - 1; r >= 0; r-- {
		if h.Buckets[r] > 0 {
			top = r
			break
		}
	}
	if top < 0 {
		return nil
	}
	out := make([]int64, top+1)
	copy(out, h.Buckets[:top+1])
	return out
}

// Summary is an exact min/mean/max fold of an integer quantity.
type Summary struct {
	// Count is the number of observations.
	Count int64 `json:"count"`
	// Sum is the total over all observations.
	Sum int64 `json:"sum"`
	// Min and Max are the extremes (0 when Count is 0).
	Min int64 `json:"min"`
	Max int64 `json:"max"`
}

// Observe folds one value.
func (s *Summary) Observe(v int64) {
	if s.Count == 0 || v < s.Min {
		s.Min = v
	}
	if s.Count == 0 || v > s.Max {
		s.Max = v
	}
	s.Count++
	s.Sum += v
}

// Merge folds o into s. Merging is commutative and associative.
func (s *Summary) Merge(o Summary) {
	if o.Count == 0 {
		return
	}
	if s.Count == 0 || o.Min < s.Min {
		s.Min = o.Min
	}
	if s.Count == 0 || o.Max > s.Max {
		s.Max = o.Max
	}
	s.Count += o.Count
	s.Sum += o.Sum
}

// Mean returns Sum/Count, or 0 when empty.
func (s Summary) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Group is one breakdown bucket of an Accumulator: the per-key slice of
// the same counters, keyed by executor, crash count or scenario label.
type Group struct {
	// Runs, Errors, ConditionHits and Violations count as in Accumulator.
	Runs          int64 `json:"runs"`
	Errors        int64 `json:"errors,omitempty"`
	ConditionHits int64 `json:"condition_hits,omitempty"`
	Violations    int64 `json:"violations,omitempty"`
	// Messages sums delivered messages across the group's successful runs.
	Messages int64 `json:"messages"`
	// Rounds summarizes the latest decision rounds of the group's runs
	// that decided in some round.
	Rounds Summary `json:"rounds"`
}

// observe folds one run into the group.
func (g *Group) observe(o Observation) {
	g.Runs++
	if o.Err {
		g.Errors++
		return
	}
	if o.InCondition {
		g.ConditionHits++
	}
	if o.Verified && o.Violation {
		g.Violations++
	}
	g.Messages += o.Messages
	if o.Round > 0 {
		g.Rounds.Observe(int64(o.Round))
	}
}

// merge folds o into g.
func (g *Group) merge(o *Group) {
	g.Runs += o.Runs
	g.Errors += o.Errors
	g.ConditionHits += o.ConditionHits
	g.Violations += o.Violations
	g.Messages += o.Messages
	g.Rounds.Merge(o.Rounds)
}

// FaultTally summarizes the transport faults of the runs that suffered
// any: one Summary per fault kind, each folding the per-run copy counts.
// An Accumulator materializes it lazily — fault-free campaigns keep a
// nil tally (and their JSON encoding unchanged).
type FaultTally struct {
	// Lost, Delayed and Duplicated summarize the per-run counts of
	// dropped, deferred and duplicated message copies over the runs with
	// at least one transport fault.
	Lost       Summary `json:"lost"`
	Delayed    Summary `json:"delayed"`
	Duplicated Summary `json:"duplicated"`
}

// observe folds one faulty run's copy counts.
func (t *FaultTally) observe(o Observation) {
	t.Lost.Observe(o.Lost)
	t.Delayed.Observe(o.Delayed)
	t.Duplicated.Observe(o.Duplicated)
}

// Merge folds o into t. Merging is commutative and associative.
func (t *FaultTally) Merge(o *FaultTally) {
	t.Lost.Merge(o.Lost)
	t.Delayed.Merge(o.Delayed)
	t.Duplicated.Merge(o.Duplicated)
}

// Accumulator is the canonical Collector: every aggregate the evaluation
// reads off a batch of runs, in mergeable form. All fields are sums,
// minima or maxima, so for a fixed multiset of observations the
// accumulator's value is independent of observe order, shard assignment
// and merge grouping — worker-count-invariant by construction.
//
// The zero Accumulator is ready to use. Observe allocates nothing once
// the breakdown keys have been seen; Merge allocates only for breakdowns
// that gain keys, one group slab each.
type Accumulator struct {
	// Runs counts every observed run, errored ones included.
	Runs int64 `json:"runs"`
	// Errors counts runs whose execution returned an error.
	Errors int64 `json:"errors"`
	// ConditionHits counts successful runs whose input vector belongs to
	// the system's condition.
	ConditionHits int64 `json:"condition_hits"`
	// Verified counts runs checked against the specification; Violations
	// counts the checked runs that failed it.
	Verified   int64 `json:"verified"`
	Violations int64 `json:"violations"`
	// Rounds is the bounded decision-round histogram.
	Rounds Histogram `json:"rounds"`
	// Messages summarizes delivered messages per successful run.
	Messages Summary `json:"messages"`
	// Crashes summarizes crashed processes per successful run.
	Crashes Summary `json:"crashes"`
	// UndecidedRuns counts successful runs in which some process neither
	// decided nor crashed within the round limit — the bounded-rounds
	// outcome of fault-injected campaigns.
	UndecidedRuns int64 `json:"undecided_runs,omitempty"`
	// Faults summarizes transport faults over the runs that suffered any;
	// nil when every run was fault-free. Whether a run folds in depends
	// only on the run itself, so the tally stays worker-count-invariant.
	Faults *FaultTally `json:"faults,omitempty"`
	// ByExecutor, ByCrashes and ByLabel break the same counters down by
	// executor name, by the run's crash count and by scenario label.
	// Absent keys (empty executor or label) are not recorded.
	ByExecutor map[string]*Group `json:"by_executor,omitempty"`
	ByCrashes  map[int]*Group    `json:"by_crashes,omitempty"`
	ByLabel    map[string]*Group `json:"by_label,omitempty"`
}

// NewAccumulator returns an empty accumulator. The zero value works too;
// the constructor exists for use as a Collector-typed expression.
func NewAccumulator() *Accumulator { return &Accumulator{} }

// Observe folds one run into the accumulator. It never allocates beyond
// first-seen breakdown keys.
func (a *Accumulator) Observe(o Observation) {
	a.Runs++
	if o.Executor != "" {
		groupOf(&a.ByExecutor, o.Executor).observe(o)
	}
	if o.Label != "" {
		groupOf(&a.ByLabel, o.Label).observe(o)
	}
	if o.Err {
		a.Errors++
		return
	}
	groupOf(&a.ByCrashes, o.Crashes).observe(o)
	a.Rounds.Observe(o.Round)
	a.Messages.Observe(o.Messages)
	a.Crashes.Observe(int64(o.Crashes))
	if o.Undecided > 0 {
		a.UndecidedRuns++
	}
	if o.Lost != 0 || o.Delayed != 0 || o.Duplicated != 0 {
		if a.Faults == nil {
			a.Faults = &FaultTally{}
		}
		a.Faults.observe(o)
	}
	if o.InCondition {
		a.ConditionHits++
	}
	if o.Verified {
		a.Verified++
		if o.Violation {
			a.Violations++
		}
	}
}

// groupOf returns the group at key, creating map and group on first use.
func groupOf[K comparable](m *map[K]*Group, key K) *Group {
	g := (*m)[key]
	if g == nil {
		if *m == nil {
			*m = make(map[K]*Group, 8)
		}
		g = &Group{}
		(*m)[key] = g
	}
	return g
}

// Merge folds o into a. Merging is commutative and associative: any
// grouping of shards yields the same accumulator.
func (a *Accumulator) Merge(o *Accumulator) {
	a.Runs += o.Runs
	a.Errors += o.Errors
	a.ConditionHits += o.ConditionHits
	a.Verified += o.Verified
	a.Violations += o.Violations
	a.Rounds.Merge(&o.Rounds)
	a.Messages.Merge(o.Messages)
	a.Crashes.Merge(o.Crashes)
	a.UndecidedRuns += o.UndecidedRuns
	if o.Faults != nil {
		if a.Faults == nil {
			a.Faults = &FaultTally{}
		}
		a.Faults.Merge(o.Faults)
	}
	mergeGroups(&a.ByExecutor, o.ByExecutor)
	mergeGroups(&a.ByCrashes, o.ByCrashes)
	mergeGroups(&a.ByLabel, o.ByLabel)
}

// The refusals of Check, one per broken invariant.
var (
	errNullGroup  = errors.New("stats: a breakdown holds a null group")
	errNegative   = errors.New("stats: a negative count")
	errErrors     = errors.New("stats: more errors than runs")
	errVerified   = errors.New("stats: more verified runs than successful ones")
	errViolations = errors.New("stats: more violations than verified runs")
	errHits       = errors.New("stats: more condition hits than successful runs")
	errUndecided  = errors.New("stats: more undecided runs than successful ones")
	errRounds     = errors.New("stats: the decision-round histogram does not count every successful run once")
)

// Check refuses an accumulator that Observe and Merge could not have
// built: a breakdown holding a nil group, which a decoded JSON null
// leaves and Merge cannot fold, or counts that contradict each other.
// Each count below is kept by the Observe line it names, and Merge only
// adds counts, so every invariant survives it. Decoders call Check before
// anything merges what they decoded; it allocates nothing.
func (a *Accumulator) Check() error {
	if hasNilGroup(a.ByExecutor) || hasNilGroup(a.ByCrashes) || hasNilGroup(a.ByLabel) {
		return errNullGroup
	}
	// Observe only ever increments.
	if a.Runs < 0 || a.Errors < 0 || a.ConditionHits < 0 || a.Verified < 0 ||
		a.Violations < 0 || a.UndecidedRuns < 0 || a.Rounds.Overflow.Count < 0 {
		return errNegative
	}
	// "a.Runs++" counts every run, "a.Errors++" only a run with o.Err.
	if a.Errors > a.Runs {
		return errErrors
	}
	// The rest of Observe runs past "if o.Err { ...; return }", once per
	// successful run.
	ok := a.Runs - a.Errors
	// "a.Verified++" sits in "if o.Verified".
	if a.Verified > ok {
		return errVerified
	}
	// "a.Violations++" sits in "if o.Violation" inside "if o.Verified".
	if a.Violations > a.Verified {
		return errViolations
	}
	// "a.ConditionHits++" sits in "if o.InCondition".
	if a.ConditionHits > ok {
		return errHits
	}
	// "a.UndecidedRuns++" sits in "if o.Undecided > 0".
	if a.UndecidedRuns > ok {
		return errUndecided
	}
	// "a.Rounds.Observe(o.Round)" counts the run in one bucket or in the
	// overflow summary. Counting down keeps adversarial counts from
	// wrapping the sum.
	rest := ok - a.Rounds.Overflow.Count
	for _, n := range a.Rounds.Buckets {
		if n < 0 {
			return errNegative
		}
		if n > rest {
			return errRounds
		}
		rest -= n
	}
	if rest != 0 {
		return errRounds
	}
	return nil
}

func hasNilGroup[K comparable](groups map[K]*Group) bool {
	for _, g := range groups {
		if g == nil {
			return true
		}
	}
	return false
}

// mergeGroups folds the groups of src into dst key-wise. The keys new to
// dst get their groups from one exactly sized slab, so a merge allocates
// per breakdown, not per key.
func mergeGroups[K comparable](dst *map[K]*Group, src map[K]*Group) {
	fresh := 0
	for key := range src {
		if (*dst)[key] == nil {
			fresh++
		}
	}
	var slab []Group
	if fresh > 0 {
		if *dst == nil {
			*dst = make(map[K]*Group, len(src))
		}
		slab = make([]Group, fresh)
	}
	for key, g := range src {
		d := (*dst)[key]
		if d == nil {
			d = &slab[0]
			slab = slab[1:]
			(*dst)[key] = d
		}
		d.merge(g)
	}
}

// Fork implements Collector: worker shards are fresh accumulators.
func (a *Accumulator) Fork() Collector { return &Accumulator{} }

// Join implements Collector by merging a shard produced by Fork. It
// panics when handed a collector that is not an *Accumulator.
func (a *Accumulator) Join(shard Collector) { a.Merge(shard.(*Accumulator)) }

// Reset clears the accumulator for reuse, keeping breakdown map storage.
func (a *Accumulator) Reset() {
	clear(a.ByExecutor)
	clear(a.ByCrashes)
	clear(a.ByLabel)
	be, bc, bl := a.ByExecutor, a.ByCrashes, a.ByLabel
	*a = Accumulator{ByExecutor: be, ByCrashes: bc, ByLabel: bl}
}

// HitRate returns the fraction of runs whose input was in the condition.
func (a *Accumulator) HitRate() float64 {
	if a.Runs == 0 {
		return 0
	}
	return float64(a.ConditionHits) / float64(a.Runs)
}

// MessagesDelivered returns the total number of messages delivered
// across all successful runs.
func (a *Accumulator) MessagesDelivered() int64 { return a.Messages.Sum }

// MaxDecisionRound returns the latest decision round any run reached, or
// 0 when no run decided in a round.
func (a *Accumulator) MaxDecisionRound() int { return a.Rounds.Max() }

// MeanDecisionRound returns the mean latest decision round over the runs
// that decided in some round.
func (a *Accumulator) MeanDecisionRound() float64 { return a.Rounds.Mean() }

// DecisionRounds returns the decision-round histogram as a slice trimmed
// to the highest observed round (index 0 counts runs that decided in no
// round), or nil when no run succeeded.
func (a *Accumulator) DecisionRounds() []int64 { return a.Rounds.Slice() }

// ExecutorKeys returns the per-executor breakdown keys, sorted.
func (a *Accumulator) ExecutorKeys() []string { return sortedStrings(a.ByExecutor) }

// LabelKeys returns the per-label breakdown keys, sorted.
func (a *Accumulator) LabelKeys() []string { return sortedStrings(a.ByLabel) }

// CrashKeys returns the per-crash-count breakdown keys, ascending.
func (a *Accumulator) CrashKeys() []int {
	keys := make([]int, 0, len(a.ByCrashes))
	for k := range a.ByCrashes {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// sortedStrings returns m's keys in sorted order.
func sortedStrings(m map[string]*Group) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
