package service

import (
	"sync"

	"kset"
	"kset/internal/stats"
)

// Progress is a concurrency-safe stats.Collector for live campaign
// observation. Campaign workers fork lock-guarded shards and observe into
// them while the run is in flight; Snapshot merges the joined base with
// every live shard into a fresh Accumulator at any moment, giving the SSE
// stream monotone mid-run snapshots. The final, worker-count-invariant
// statistics are NOT read from here — they come from the campaign's own
// Wait(), so the stream's terminal event is byte-identical to an
// in-process RunCampaign of the same job. A completed campaign's last
// snapshot is not read from here either: it is that same accumulator,
// which encodes to the bytes a Snapshot of its every observation would.
// Snapshot serves the ticker, sweeps, and jobs that failed or were
// canceled mid-run.
type Progress struct {
	mu     sync.Mutex
	joined stats.Accumulator
	live   []*progressShard
}

var _ kset.Collector = (*Progress)(nil)

// Observe records one observation directly into the joined base.
func (p *Progress) Observe(o stats.Observation) {
	p.mu.Lock()
	p.joined.Observe(o)
	p.mu.Unlock()
}

// Fork registers and returns a live shard for one campaign worker.
func (p *Progress) Fork() stats.Collector {
	s := &progressShard{}
	p.mu.Lock()
	p.live = append(p.live, s)
	p.mu.Unlock()
	return s
}

// Join folds a forked shard into the joined base and retires it from the
// live set. The campaign calls Join in worker order; since Snapshot
// results are advisory, Progress only needs the merge to be atomic, not
// ordered.
func (p *Progress) Join(c stats.Collector) {
	s, ok := c.(*progressShard)
	if !ok {
		return
	}
	p.mu.Lock()
	s.mu.Lock()
	p.joined.Merge(&s.acc)
	s.mu.Unlock()
	for i := range p.live {
		if p.live[i] == s {
			p.live = append(p.live[:i], p.live[i+1:]...)
			break
		}
	}
	p.mu.Unlock()
}

// Snapshot merges the joined base with every live shard into a fresh,
// caller-owned Accumulator. Successive snapshots are monotone: every
// counter is non-decreasing, because observations only accumulate.
func (p *Progress) Snapshot() *stats.Accumulator {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := p.joined.Snapshot()
	for _, s := range p.live {
		s.mu.Lock()
		out.Merge(&s.acc)
		s.mu.Unlock()
	}
	return out
}

// Runs returns the number of observations recorded so far — the cheap
// progress counter for status endpoints.
func (p *Progress) Runs() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := p.joined.Runs
	for _, s := range p.live {
		s.mu.Lock()
		n += s.acc.Runs
		s.mu.Unlock()
	}
	return n
}

// progressShard is one worker's lock-guarded accumulator.
type progressShard struct {
	mu  sync.Mutex
	acc stats.Accumulator
}

// Observe implements stats.Collector.
func (s *progressShard) Observe(o stats.Observation) {
	s.mu.Lock()
	s.acc.Observe(o)
	s.mu.Unlock()
}

// Fork implements stats.Collector; a shard is a leaf, so it hands out an
// independent shard rather than splitting further.
func (s *progressShard) Fork() stats.Collector { return &progressShard{} }

// Join implements stats.Collector by folding the forked shard back in.
func (s *progressShard) Join(c stats.Collector) {
	o, ok := c.(*progressShard)
	if !ok {
		return
	}
	s.mu.Lock()
	o.mu.Lock()
	s.acc.Merge(&o.acc)
	o.mu.Unlock()
	s.mu.Unlock()
}
