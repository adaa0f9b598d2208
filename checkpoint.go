package kset

import (
	"context"
	"fmt"

	"kset/internal/shard"
	"kset/internal/stats"
)

// CheckpointVersion is the checkpoint wire-format version this build
// encodes, and the only one DecodeCheckpoint accepts.
const CheckpointVersion = shard.Version

// Checkpoint is the resumable state of a partially executed campaign
// shard: the shard's cursor, the number of runs already completed within
// it, and a snapshot of the results accumulated over exactly those runs.
// RunCheckpointed emits them and resumes from them; EncodeCheckpoint /
// DecodeCheckpoint are the strict, versioned wire round-trip.
type Checkpoint = shard.Checkpoint

// EncodeCheckpoint renders the checkpoint as its canonical JSON
// encoding, validating first so a corrupt envelope is never persisted.
func EncodeCheckpoint(c Checkpoint) ([]byte, error) { return c.Encode() }

// DecodeCheckpoint parses and validates a checkpoint encoding. Decoding
// is strict: malformed or truncated JSON, unknown fields, trailing
// bytes, version skew and inconsistent cursors all return errors
// wrapping ErrBadCheckpoint, and the decoder never panics — arbitrary
// bytes are safe to feed it.
func DecodeCheckpoint(data []byte) (Checkpoint, error) { return shard.Decode(data) }

// CampaignStatsOf renders an accumulator — a decoded shard upload, a
// checkpoint snapshot, or the fold of several — as the flat campaign
// stats view, exactly as a campaign over the same runs would have
// reported it.
func CampaignStatsOf(metrics *Accumulator) *CampaignStats {
	return newCampaignStats(metrics)
}

// CheckpointSink receives each checkpoint RunCheckpointed emits. A sink
// error aborts the campaign (the error is returned alongside the stats
// accumulated so far); persist-and-continue sinks simply return nil.
type CheckpointSink func(Checkpoint) error

// RunCheckpointed runs a scenario source (or the shard of one that a
// resumed checkpoint addresses) through one campaign in chunks of every
// runs, emitting a checkpoint to sink after each chunk. The source must
// be sized (ErrUnsizedSource otherwise). every ≤ 0 disables chunking —
// the whole remainder runs as one chunk, with one final checkpoint.
//
// Resume semantics: pass resume = nil to start fresh over the whole
// source, or a checkpoint to continue an interrupted run — its cursor
// selects the shard, its RunsDone runs are skipped, and its snapshot
// seeds the stats. The checkpoint is validated: a corrupt one, or one
// whose cursor runs past a sized source (it was taken over a different
// stream), is ErrBadCheckpoint. A resumed run is byte-identical to the
// uninterrupted one: chunks only ever cut the stream at run boundaries,
// and the accumulator's Merge is order- and grouping-invariant, so where
// the stream was cut leaves no trace in the result.
//
// A chunk boundary is a barrier: the workers claim only inside the open
// chunk and park at its end — they finish out of order, so no consistent
// cursor exists mid-chunk — and once all have parked, the checkpoint's
// Stats are the resumed snapshot and every worker's shard merged into a
// fresh accumulator, isolated from the campaign: sinks may retain them,
// serialize them later, or upload them to a ksetd merge endpoint as is.
// Workers, buffers, shards and goroutines are set up once per call, and a
// worker's generator continues across the boundary (see genStore), so
// one worker draws each random input once however small the chunks.
//
// A sink error ends the run with the stats of the runs its checkpoint
// covers; a cancellation, with those of the runs that completed and no
// further checkpoint.
func (s *System) RunCheckpointed(ctx context.Context, src ScenarioSource, resume *Checkpoint, every int64, sink CheckpointSink, opts ...CampaignOption) (*CampaignStats, error) {
	var cur Cursor
	var done int64
	var resumed *stats.Accumulator
	if resume != nil {
		if err := resume.Validate(); err != nil {
			return nil, err
		}
		if total, ok := src.Size(); ok && resume.Cursor.Hi > total {
			return nil, fmt.Errorf("%w: cursor [%d, %d) runs past the source's %d scenarios",
				ErrBadCheckpoint, resume.Cursor.Lo, resume.Cursor.Hi, total)
		}
		cur, done, resumed = resume.Cursor, resume.RunsDone, resume.Stats
	} else {
		total, ok := src.Size()
		if !ok {
			return nil, ErrUnsizedSource
		}
		cur = Cursor{Lo: 0, Hi: total}
	}
	chunkEnd := func() int64 {
		if every > 0 && cur.Len()-done > every {
			return done + every
		}
		return cur.Len()
	}
	c := s.newCampaign(ctx, opts)
	c.pull, c.chunks, c.closed = Range(src, cur.Lo, cur.Hi).(funcSource), newBarrier(c.nworkers), true
	c.openChunk(done, chunkEnd())
	c.start()
	var err error
	for done < cur.Len() {
		c.chunks.wait()
		// A cancelled chunk ran an unknown prefix: surface the partial
		// stats, but no checkpoint — its cursor would be inconsistent.
		if err = ctx.Err(); err != nil {
			break
		}
		done = c.pull.size
		if sink != nil {
			cp := Checkpoint{Version: CheckpointVersion, Cursor: cur, RunsDone: done, Stats: c.snapshot(resumed)}
			if err = sink(cp); err != nil {
				break
			}
		}
		if done < cur.Len() {
			c.openChunk(done, chunkEnd())
			c.chunks.open()
		}
	}
	c.chunks.end()
	st, _ := c.Wait()
	if resumed != nil {
		st = CampaignStatsOf(c.snapshot(resumed))
	}
	return st, err
}

// snapshot merges base, when there is one, and every worker's
// accumulator shard into a fresh accumulator. It reads the shards, so it
// runs while the workers are parked or after Wait.
func (c *Campaign) snapshot(base *stats.Accumulator) *stats.Accumulator {
	acc := stats.NewAccumulator()
	if base != nil {
		acc.Merge(base)
	}
	for _, row := range c.shards {
		acc.Join(row[0])
	}
	return acc
}
