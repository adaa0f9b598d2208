package kset

import (
	"slices"
	"sync"
	"sync/atomic"

	"kset/internal/stats"
)

// Results-plane types. Every layer of the stack reports runs through one
// pipeline: executions emit an Observation per run, Collectors fold
// observations into mergeable aggregates, and consumers (CampaignStats,
// experiment reports, the CLI's -json output) read the folded form.
type (
	// Observation is one run's flat metric record: decision round,
	// messages delivered, crashes, condition membership, verdict. The
	// campaign feeds one per scenario to every installed Collector.
	Observation = stats.Observation
	// Collector receives one Observation per run. Campaign workers fold
	// observations into worker-local shards (Fork) and the shards are
	// joined back deterministically on Wait, so a Collector
	// implementation never needs to be concurrency-safe — it only needs
	// Fork/Join. Deterministic collectors (all of whose aggregates are
	// order-insensitive, like Accumulator's sums, minima and maxima)
	// yield worker-count-invariant results.
	Collector = stats.Collector
	// Accumulator is the canonical Collector: bounded decision-round
	// histogram (with an exact overflow summary), run/error/violation
	// counters, min/mean/max summaries of messages and crashes, and
	// per-executor / per-crash-count / per-label breakdowns. It is
	// JSON-marshalable with deterministic byte output for a fixed
	// multiset of observations.
	Accumulator = stats.Accumulator
	// Histogram is the Accumulator's bounded decision-round histogram
	// with its exact overflow summary.
	Histogram = stats.Histogram
	// Summary is an exact min/mean/max fold of an integer quantity
	// (messages, crashes, rounds within a breakdown group).
	Summary = stats.Summary
	// Group is one breakdown bucket of an Accumulator (the value type of
	// ByExecutor, ByCrashes and ByLabel).
	Group = stats.Group
)

// NewAccumulator returns an empty results-plane accumulator, ready to be
// installed on a campaign with CollectInto or fed by hand.
func NewAccumulator() *Accumulator { return stats.NewAccumulator() }

// CollectInto installs an additional collector on the campaign: every
// run's Observation is folded into a worker-local shard of c (via
// c.Fork) and the shards are joined back into c, in worker order, when
// the campaign completes. The campaign's own statistics are unaffected —
// Wait still returns its CampaignStats; CollectInto is how callers
// attach richer or custom aggregation to the same stream.
//
// When the same option value is reused across sequential campaigns — one
// RunSweep, say, whose campaign options apply to every grid point — c
// accumulates across all of them, which makes it the grid-total
// collector; per-point aggregates are keyed by the sweep itself (each
// SweepResult carries its point's own Metrics).
func CollectInto(c Collector) CampaignOption {
	return func(camp *Campaign) { camp.extra = append(camp.extra, c) }
}

// Progress is a live view of the campaigns TrackProgress attaches it to,
// safe to read from any goroutine while they run. A read bumps a request
// counter that each worker loads once per run, publishing a copy of its
// own accumulator shard when it has moved, and merges those copies onto
// the ended campaigns: it lags one request behind the workers, but no
// counter ever falls from one read to the next. Wait folds each campaign
// in, so a handle reused across sequential campaigns (RunSweep's points,
// say) accumulates them all; a RunCheckpointed call is one campaign, its
// chunks included, and a resumed one's handle covers the runs it ran,
// not the checkpoint's. The latest ended
// campaign's CampaignStats.Metrics is read in place until the next one
// ends: write into it only once the handle is no longer read. The zero
// Progress is ready to use.
type Progress struct {
	requests atomic.Int64
	mu       sync.Mutex
	joined   stats.Accumulator  // the ended campaigns before the latest
	latest   *stats.Accumulator // the latest ended campaign's
	live     []*tracker
}

// TrackProgress attaches p to the campaign. Without it a run pays one nil
// check for progress, with it and no reader one atomic load more.
func TrackProgress(p *Progress) CampaignOption {
	return func(c *Campaign) { c.progress = &tracker{p: p} }
}

// Snapshot merges what the handle covers into a fresh Accumulator.
func (p *Progress) Snapshot() *Accumulator {
	out := stats.NewAccumulator()
	p.each(out.Merge)
	return out
}

// Runs returns the runs a Snapshot taken now would count.
func (p *Progress) Runs() (n int64) {
	p.each(func(a *stats.Accumulator) { n += a.Runs })
	return n
}

// each requests a publication, then calls fn on all the handle covers.
func (p *Progress) each(fn func(*stats.Accumulator)) {
	p.requests.Add(1)
	p.mu.Lock()
	defer p.mu.Unlock()
	fn(&p.joined)
	if p.latest != nil {
		fn(p.latest)
	}
	for _, t := range p.live {
		for i := range t.slots {
			s := &t.slots[i]
			s.mu.Lock()
			fn(&s.copy)
			s.mu.Unlock()
		}
	}
}

// tracker is one campaign's part in its Progress handle.
type tracker struct {
	p     *Progress
	slots []progressSlot
}

// poll copies worker i's shard into its slot if a reader asked since.
func (t *tracker) poll(i int, shard Collector) {
	s := &t.slots[i]
	if r := t.p.requests.Load(); r != s.seen {
		s.seen = r
		s.mu.Lock()
		s.copy.Reset()
		s.copy.Merge(shard.(*stats.Accumulator))
		s.mu.Unlock()
	}
}

// join swaps the ended campaign's slots for its accumulator, read in
// place: a copy would cost a short job as much as its breakdown groups.
func (t *tracker) join(acc *stats.Accumulator) {
	p := t.p
	p.mu.Lock()
	if p.latest != nil {
		p.joined.Merge(p.latest)
	}
	p.latest = acc
	i := slices.Index(p.live, t)
	p.live = slices.Delete(p.live, i, i+1)
	p.mu.Unlock()
}

// progressSlot is what one worker publishes, under its lock; any other
// per-worker sample a reader wants mid-run belongs here too.
type progressSlot struct {
	seen int64 // the request count last answered; the worker's alone
	mu   sync.Mutex
	copy stats.Accumulator
}
