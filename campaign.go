package kset

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"kset/internal/core"
	"kset/internal/stats"
)

// CampaignOption configures a campaign before its workers start.
type CampaignOption func(*Campaign)

// VerifyRuns makes every synchronous run's result checked against the
// k-set agreement specification; failures increment
// CampaignStats.Violations.
func VerifyRuns() CampaignOption {
	return func(c *Campaign) { c.verify = true }
}

// CampaignStats aggregates a campaign: the flat counters the original
// batch API exposed, rendered from the results-plane accumulator the
// campaign's workers actually fed. Everything the accumulator folds is a
// sum, a minimum or a maximum, so for a fixed multiset of scenarios the
// stats are identical regardless of worker count or scheduling — seeded
// sweeps are reproducible run to run, byte for byte.
type CampaignStats struct {
	// Runs is the number of scenarios executed (including failed ones).
	Runs int64 `json:"runs"`
	// Errors is the number of scenarios whose run returned an error.
	Errors int64 `json:"errors"`
	// ConditionHits counts runs whose input vector belongs to the
	// system's condition.
	ConditionHits int64 `json:"condition_hits"`
	// Violations counts verified runs that failed the k-set agreement
	// specification (only populated under VerifyRuns).
	Violations int64 `json:"violations"`
	// UndecidedRuns counts runs some process of which neither decided
	// nor crashed: synchronous runs that exhausted the round limit
	// (possible only under a fault-injecting transport — reliable
	// synchronous runs always terminate) and asynchronous runs whose
	// processes gave up their scan budget, the executable face of the
	// ℓ ≤ x impossibility. Non-termination is a counted outcome, never a
	// hang.
	UndecidedRuns int64 `json:"undecided_runs,omitempty"`
	// MessagesDelivered sums delivered messages across all runs.
	MessagesDelivered int64 `json:"messages_delivered"`
	// DecisionRounds is the histogram of latest decision rounds:
	// DecisionRounds[r] = runs whose last decision came at round r.
	// Index 0 counts runs that decided in no round at all — asynchronous
	// runs (which have no rounds) and runs where nobody decided. Rounds
	// past the accumulator's tracked range (≥ stats.HistogramBuckets, far
	// beyond any realistic ⌊t/k⌋+1) are not positionally representable
	// here; they are summarized exactly in Metrics.Rounds.Overflow, and
	// the accessors below account for them.
	DecisionRounds []int64 `json:"decision_rounds,omitempty"`
	// Metrics is the full results-plane accumulator behind the flat
	// fields: the bounded histogram, min/mean/max summaries of messages
	// and crashes, and the per-executor / per-crash-count / per-label
	// breakdowns, all JSON-marshalable and deterministically mergeable.
	Metrics *Accumulator `json:"metrics,omitempty"`
}

// newCampaignStats renders the merged accumulator as the flat stats view.
func newCampaignStats(acc *Accumulator) *CampaignStats {
	return &CampaignStats{
		Runs:              acc.Runs,
		Errors:            acc.Errors,
		ConditionHits:     acc.ConditionHits,
		Violations:        acc.Violations,
		UndecidedRuns:     acc.UndecidedRuns,
		MessagesDelivered: acc.MessagesDelivered(),
		DecisionRounds:    acc.DecisionRounds(),
		Metrics:           acc,
	}
}

// AppendJSON appends the stats' JSON encoding to dst: the bytes
// encoding/json writes for the struct tags, the accumulator's through
// Accumulator.AppendJSON, with no reflection.
func (s *CampaignStats) AppendJSON(dst []byte) []byte {
	dst = strconv.AppendInt(append(dst, `{"runs":`...), s.Runs, 10)
	dst = strconv.AppendInt(append(dst, `,"errors":`...), s.Errors, 10)
	dst = strconv.AppendInt(append(dst, `,"condition_hits":`...), s.ConditionHits, 10)
	dst = strconv.AppendInt(append(dst, `,"violations":`...), s.Violations, 10)
	if s.UndecidedRuns != 0 {
		dst = strconv.AppendInt(append(dst, `,"undecided_runs":`...), s.UndecidedRuns, 10)
	}
	dst = strconv.AppendInt(append(dst, `,"messages_delivered":`...), s.MessagesDelivered, 10)
	if len(s.DecisionRounds) > 0 {
		dst = append(dst, `,"decision_rounds":[`...)
		for i, n := range s.DecisionRounds {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, n, 10)
		}
		dst = append(dst, ']')
	}
	if s.Metrics != nil {
		dst = s.Metrics.AppendJSON(append(dst, `,"metrics":`...))
	}
	return append(dst, '}')
}

// MarshalJSON encodes the stats through AppendJSON.
func (s *CampaignStats) MarshalJSON() ([]byte, error) { return s.AppendJSON(nil), nil }

// HitRate returns the fraction of runs whose input was in the condition.
func (s *CampaignStats) HitRate() float64 {
	if s.Runs == 0 {
		return 0
	}
	return float64(s.ConditionHits) / float64(s.Runs)
}

// MaxDecisionRound returns the latest decision round any run reached, or
// 0 when no run decided in a round. It reads the full accumulator, so
// rounds in the histogram's overflow summary are never dropped.
func (s *CampaignStats) MaxDecisionRound() int {
	if s.Metrics != nil {
		return s.Metrics.MaxDecisionRound()
	}
	for r := len(s.DecisionRounds) - 1; r >= 1; r-- {
		if s.DecisionRounds[r] > 0 {
			return r
		}
	}
	return 0
}

// MeanDecisionRound returns the mean latest decision round over the runs
// that decided in some round. Like MaxDecisionRound it reads the full
// accumulator, overflow included.
func (s *CampaignStats) MeanDecisionRound() float64 {
	if s.Metrics != nil {
		return s.Metrics.MeanDecisionRound()
	}
	var runs, sum int64
	for r := 1; r < len(s.DecisionRounds); r++ {
		runs += s.DecisionRounds[r]
		sum += int64(r) * s.DecisionRounds[r]
	}
	if runs == 0 {
		return 0
	}
	return float64(sum) / float64(runs)
}

// Campaign fans a stream of scenarios across a bounded pool of workers,
// each owning its engine and protocol buffers, and folds every run's
// Observation into its collectors: the Accumulator behind CampaignStats
// and any CollectInto additions. That is its only per-run output; a run
// is a pure function of its scenario, so System.RunScenario replays one
// that needs a closer look. RunSource runs a source through one and
// returns its stats; System.NewCampaign starts one to feed with SubmitAll
// before Wait:
//
//	camp := sys.NewCampaign(ctx)
//	if err := camp.SubmitAll(scenarios); err != nil {
//		// cancelled, or the campaign was already waited on
//	}
//	stats, err := camp.Wait()
//
// SubmitAll is safe from multiple goroutines. Cancelling the context stops
// the workers; Wait then reports the context error alongside the stats of
// the scenarios that did run.
type Campaign struct {
	sys      *System
	ctx      context.Context
	nworkers int

	// The two feeds: producers push through queue (NewCampaign), or the
	// workers claim claim-long index ranges of pull off next, up to
	// pull.size: the stream's end under RunSource, the open chunk's under
	// RunCheckpointed, whose barrier parks the workers there.
	queue  chan Scenario
	pull   funcSource
	claim  int64
	next   atomic.Int64
	chunks *barrier // nil outside RunCheckpointed

	// The collector pipeline: acc backs Wait's CampaignStats, extra holds
	// CollectInto additions; every worker observes into its own forked
	// shard row, joined back in worker order by Wait, and publishes its
	// acc shard to a TrackProgress handle through its tracker slot.
	acc        *stats.Accumulator
	extra      []Collector
	collectors []Collector   // acc + extra
	shards     [][]Collector // [worker][collector]
	progress   *tracker      // nil without TrackProgress
	wg         sync.WaitGroup

	// closed is guarded by mu. It and verify (VerifyRuns) sit before
	// waitOnce's 12 bytes, sharing their word: that keeps a Campaign in the
	// 256-byte size class (TestCampaignSizeClass).
	mu       sync.RWMutex
	closed   bool
	verify   bool
	waitOnce sync.Once
	stats    *CampaignStats
	waitErr  error
}

// NewCampaign starts a campaign's workers and returns the handle. The
// scenario queue is bounded, so SubmitAll exerts backpressure on producers
// that outrun the workers.
func (s *System) NewCampaign(ctx context.Context, opts ...CampaignOption) *Campaign {
	c := s.newCampaign(ctx, opts)
	c.start()
	return c
}

// RunCampaign runs a fixed scenario slice to completion and returns the
// aggregate stats: RunSource over ScenariosOf(scenarios...).
func (s *System) RunCampaign(ctx context.Context, scenarios []Scenario, opts ...CampaignOption) (*CampaignStats, error) {
	return s.RunSource(ctx, ScenariosOf(scenarios...), opts...)
}

// RunSource runs a scenario source through a campaign to completion and
// returns the aggregate stats. A sized source built by this package is
// pulled: the workers claim index ranges of the stream with one atomic
// add each and generate their own scenarios — no producer, no queue, no
// channel operation per scenario, and an m^n-sized source in constant
// memory. An unsized or foreign source cannot be cut into ranges; it is
// generated here and pushed through the bounded queue, under its
// backpressure. The stats are the same, byte for byte.
func (s *System) RunSource(ctx context.Context, src ScenarioSource, opts ...CampaignOption) (*CampaignStats, error) {
	c := s.newCampaign(ctx, opts)
	if fs, ok := src.(funcSource); ok && fs.sized {
		c.pull = fs
		c.openChunk(0, fs.size)
		c.closed = true // nothing to submit to, no queue to close
	}
	c.start()
	if c.queue != nil {
		// Generated lazily, under the queue's backpressure: an m^n-sized
		// source never materializes. A submission error means cancellation
		// (only Wait closes), which Wait reports with the stats of the
		// scenarios that did run.
		src.ForEach(func(sc Scenario) bool { return c.submit(sc) == nil })
	}
	return c.Wait()
}

// claimsPerWorker cuts a pulled stream into that many claims per worker.
// Both directions cost; BenchmarkCampaignFeeds -cpu 1,2 priced them (n=8,
// lower quartile of 10 alternating repetitions, ns per run; CHANGES.md PR
// 18): every claim then sought, so the random arm at four workers read
// 2245, 2275, 2236, 3513, 3846 for 1, 2, 4, 8, 16 (20 more repetitions
// split the first three: 2141, 2585, 2664) with the seek-free source arm
// flat, and one claim per worker is a static split — a stream whose second
// half is the dearer ran at 12.4 µs per run against 9.9 with two (n=48,
// two workers, two Ps). Two is the smallest count that rebalances.
const claimsPerWorker = 2

// claimLen returns how many stream indices a pulling worker claims at a
// time: the whole stream (or chunk) when it is alone, otherwise
// ⌈size / (claimsPerWorker·workers)⌉. A share of the stream, never a fixed
// count: a claim that does not start where its worker's generator stopped
// (see genStore) burns lo·n RandomInputs draws to reach lo, and several
// workers' claims interleave, so fixed-length claims would make a long
// stream quadratic, while claimsPerWorker·workers claims cost (claims+1)/2
// stream lengths of generation at worst (a replayed foreign base),
// whatever the length. A lone worker's claims continue one another.
func claimLen(size int64, workers int) int64 {
	parts := int64(1)
	if workers > 1 {
		parts = claimsPerWorker * int64(workers)
	}
	return (size-1)/parts + 1
}

// openChunk points the pulled feed at stream indices [lo, hi): the
// workers claim from lo, claimLen(hi−lo) at a time, and stop at hi. It
// runs before the workers start or while every one is parked.
func (c *Campaign) openChunk(lo, hi int64) {
	c.next.Store(lo)
	c.pull.size, c.claim = hi, claimLen(hi-lo, c.nworkers)
}

// newCampaign builds the campaign shell: options applied, workers not yet
// started.
func (s *System) newCampaign(ctx context.Context, opts []CampaignOption) *Campaign {
	c := &Campaign{sys: s, ctx: ctx, nworkers: s.workers}
	for _, opt := range opts {
		opt(c)
	}
	c.acc = stats.NewAccumulator()
	c.collectors = append(make([]Collector, 0, 1+len(c.extra)), c.acc)
	c.collectors = append(c.collectors, c.extra...)
	c.shards = make([][]Collector, c.nworkers)
	for i := range c.shards {
		row := make([]Collector, len(c.collectors))
		for j, col := range c.collectors {
			row[j] = col.Fork()
		}
		c.shards[i] = row
	}
	if t := c.progress; t != nil {
		t.slots = make([]progressSlot, c.nworkers)
		t.p.mu.Lock()
		// A read made before the campaign registers has nothing of it to
		// see: answering that read would cost its first run a slot copy.
		seen := t.p.requests.Load()
		for i := range t.slots {
			t.slots[i].seen = seen
		}
		t.p.live = append(t.p.live, t)
		t.p.mu.Unlock()
	}
	return c
}

// start launches the workers, behind a queue unless the campaign pulls.
func (c *Campaign) start() {
	if c.pull.ranged == nil {
		c.queue = make(chan Scenario, 4*c.nworkers+64)
	}
	c.wg.Add(c.nworkers)
	for i := 0; i < c.nworkers; i++ {
		go c.worker(i)
	}
}

// submit enqueues one scenario, blocking while the queue is full. It
// returns the context's error after cancellation and ErrCampaignClosed
// after Wait.
func (c *Campaign) submit(sc Scenario) error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.closed {
		return ErrCampaignClosed
	}
	select {
	case c.queue <- sc:
		return nil
	case <-c.ctx.Done():
		return c.ctx.Err()
	}
}

// SubmitAll enqueues the scenarios in order, blocking while the queue is
// full and stopping at the first error: the context's after cancellation,
// ErrCampaignClosed after Wait.
func (c *Campaign) SubmitAll(scs []Scenario) error {
	for i := range scs {
		if err := c.submit(scs[i]); err != nil {
			return err
		}
	}
	return nil
}

// Wait closes the campaign, waits for the workers to drain the queue,
// joins every worker's collector shards back into their collectors — in
// worker order, so any order-sensitive custom collector sees a fixed
// merge sequence — and into the TrackProgress handle, if any, and returns
// the merged stats. After cancellation it returns the context's error
// together with the stats of the scenarios that completed.
func (c *Campaign) Wait() (*CampaignStats, error) {
	c.waitOnce.Do(func() {
		c.mu.Lock() // no submission after this: the workers drain the queue
		if !c.closed {
			c.closed = true
			close(c.queue)
		}
		c.mu.Unlock()
		c.wg.Wait()
		for j, col := range c.collectors {
			for i := range c.shards {
				col.Join(c.shards[i][j])
			}
		}
		c.stats = newCampaignStats(c.acc)
		if c.progress != nil {
			c.progress.join(c.acc)
		}
		c.waitErr = c.ctx.Err()
	})
	return c.stats, c.waitErr
}

// safeRun executes one scenario's run, converting an executor panic into
// a per-run error: a poisoned scenario fails its own run (surfacing in
// CampaignStats.Errors) instead of killing the worker goroutine and,
// with it, the process.
func safeRun(ctx context.Context, ex Executor, s *System, w *worker, sc *Scenario, reuse *Result) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("kset: executor %s panicked: %v", ex.Name(), r)
		}
	}()
	return ex.run(ctx, s, w, sc, reuse)
}

// worker is one campaign worker: it checks engine/protocol buffers out of
// the shared pool once and runs scenarios — the ranges it claims of a
// pulled source, generated into its own storage, or whatever the queue
// hands it — until the feed ends or the context is cancelled, folding
// each run's Observation into its own collector shards (joined,
// deterministically, by Wait). Under RunCheckpointed a worker parks at
// each chunk's end, cancelled or not, until the next chunk opens or the
// run ends.
func (c *Campaign) worker(i int) {
	defer c.wg.Done()
	w := getWorker()
	defer putWorker(w)
	if c.pull.ranged != nil {
		run := func(sc Scenario) bool {
			c.runOne(w, i, sc)
			return c.ctx.Err() == nil
		}
		for {
			for c.ctx.Err() == nil {
				lo := c.next.Add(c.claim) - c.claim
				if lo >= c.pull.size {
					break
				}
				c.pull.ranged(c.ctx, &w.gen, lo, min(lo+c.claim, c.pull.size), run)
			}
			if c.chunks == nil || !c.chunks.park() {
				return
			}
		}
	}
	for {
		select {
		case <-c.ctx.Done():
			return
		case sc, ok := <-c.queue:
			if !ok {
				return
			}
			c.runOne(w, i, sc)
		}
	}
}

// runOne executes one scenario on worker w, number i, folds its
// Observation into the worker's collector shards and polls its progress
// slot. The worker recycles a single Result, so the run — observation
// included — allocates nothing.
func (c *Campaign) runOne(w *worker, i int, sc Scenario) {
	// Executors take the scenario by pointer through an interface, which
	// would move sc to the heap on every run; the worker's slot is there
	// already.
	w.sc = sc
	ex, err := c.sys.resolveExecutor(&w.sc)
	var res *Result
	if err == nil {
		if w.res == nil {
			w.res = &Result{}
		}
		res, err = safeRun(c.ctx, ex, c.sys, w, &w.sc, w.res)
	}
	// A run aborted by the campaign's own cancellation did not run at all:
	// it is excluded from the stats (Wait reports the context error next to
	// the scenarios that did complete) instead of counting as a failure.
	if err != nil && c.ctx.Err() != nil && errors.Is(err, c.ctx.Err()) {
		return
	}
	var o Observation
	if err != nil {
		o.Err = true
	} else {
		o = core.Observe(res)
		o.InCondition = c.sys.cond != nil && c.sys.cond.Contains(sc.Input)
		// Decided and crashed are disjoint (a process that crashes never
		// reaches a deciding step), so the remainder is the processes the
		// run left undecided — the round limit under an injected-fault
		// transport on synchronous runs, the scan budget on asynchronous
		// ones.
		if u := len(sc.Input) - len(res.Decisions) - len(res.Crashed); u > 0 {
			o.Undecided = u
		}
		if c.verify && ex.synchronous() {
			o.Verified = true
			o.Violation = !Verify(sc.Input, sc.FP, res, c.sys.p.K).OK()
		}
	}
	if ex != nil {
		o.Executor = ex.Name()
	}
	o.Label = sc.Label
	for _, col := range c.shards[i] {
		col.Observe(o)
	}
	if c.progress != nil {
		c.progress.poll(i, c.shards[i][0])
	}
}

// barrier parks a checkpointed campaign's workers at each chunk's end. A
// worker reports on parked, then waits on resume; RunCheckpointed waits
// for every report, reads the shards, and opens the next chunk with one
// resume per worker or ends the run. A report follows each resume a
// worker takes, so with all reports in no worker is running, whichever
// worker took which resume.
type barrier struct {
	parked chan struct{}
	resume chan bool
}

func newBarrier(workers int) *barrier {
	return &barrier{make(chan struct{}, workers), make(chan bool, workers)}
}

// park waits, on a worker, for the next chunk; false when the run ended.
func (b *barrier) park() bool {
	b.parked <- struct{}{}
	return <-b.resume
}

// wait blocks until every worker has parked.
func (b *barrier) wait() {
	for i := 0; i < cap(b.parked); i++ {
		<-b.parked
	}
}

// open sends the parked workers into the next chunk.
func (b *barrier) open() {
	for i := 0; i < cap(b.resume); i++ {
		b.resume <- true
	}
}

// end sends every worker, parked or still to park, home.
func (b *barrier) end() { close(b.resume) }
