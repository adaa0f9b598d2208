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

// RunCheckpointed streams a scenario source (or the shard of one that a
// resumed checkpoint addresses) through campaigns in chunks of every
// runs, emitting a checkpoint to sink after each chunk. The source must
// be sized (ErrUnsizedSource otherwise). every ≤ 0 disables chunking —
// the whole remainder runs as one chunk, with one final checkpoint.
//
// Resume semantics: pass resume = nil to start fresh over the whole
// source, or a checkpoint to continue an interrupted run — its cursor
// selects the shard, its RunsDone runs are skipped, and its snapshot
// seeds the accumulator. The checkpoint is validated: a corrupt one, or
// one whose cursor runs past a sized source (it was taken over a
// different stream), is ErrBadCheckpoint. A resumed run is byte-identical
// to the uninterrupted one: chunks only ever cut the stream at run
// boundaries, and the accumulator's Merge is order- and
// grouping-invariant, so where the stream was cut leaves no trace in the
// result.
//
// Checkpoints are emitted only at chunk boundaries — the workers inside
// a chunk finish out of order, so no consistent cursor exists mid-chunk.
// The emitted checkpoint's Stats snapshot is isolated from the live
// accumulator: sinks may retain it, serialize it later, or upload it to
// a ksetd merge endpoint as is.
func (s *System) RunCheckpointed(ctx context.Context, src ScenarioSource, resume *Checkpoint, every int64, sink CheckpointSink, opts ...CampaignOption) (*CampaignStats, error) {
	acc := stats.NewAccumulator()
	var cur Cursor
	var done int64
	if resume != nil {
		if err := resume.Validate(); err != nil {
			return nil, err
		}
		if total, ok := src.Size(); ok && resume.Cursor.Hi > total {
			return nil, fmt.Errorf("%w: cursor [%d, %d) runs past the source's %d scenarios",
				ErrBadCheckpoint, resume.Cursor.Lo, resume.Cursor.Hi, total)
		}
		cur, done = resume.Cursor, resume.RunsDone
		if resume.Stats != nil {
			acc.Merge(resume.Stats)
		}
	} else {
		total, ok := src.Size()
		if !ok {
			return nil, ErrUnsizedSource
		}
		cur = Cursor{Lo: 0, Hi: total}
	}
	for done < cur.Len() {
		chunk := cur.Len() - done
		if every > 0 && chunk > every {
			chunk = every
		}
		st, err := s.RunSource(ctx, Range(src, cur.Lo+done, cur.Lo+done+chunk), opts...)
		acc.Merge(st.Metrics)
		if err != nil {
			// A cancelled chunk ran an unknown prefix: surface the partial
			// stats, but no checkpoint — its cursor would be inconsistent.
			return CampaignStatsOf(acc), err
		}
		done += chunk
		if sink != nil {
			cp := Checkpoint{
				Version:  CheckpointVersion,
				Cursor:   cur,
				RunsDone: done,
				Stats:    acc.Snapshot(),
			}
			if err := sink(cp); err != nil {
				return CampaignStatsOf(acc), err
			}
		}
	}
	return CampaignStatsOf(acc), nil
}
