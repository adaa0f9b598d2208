package shard

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"

	"kset/internal/stats"
)

// Version is the checkpoint wire-format version this build encodes, and
// the only one Decode accepts: a checkpoint written by an incompatible
// build must fail loudly at resume time, not merge garbage silently.
const Version = 1

// ErrBadCheckpoint marks a checkpoint or cursor that failed decoding or
// validation: malformed JSON, unknown fields, trailing bytes, a version
// this build does not read, or a cursor, progress count and stats
// snapshot that contradict each other. Returned (wrapped) by Decode,
// Encode and the Validate methods.
var ErrBadCheckpoint = errors.New("shard: bad checkpoint")

// Plan is the deterministic partition of Total stream items into K
// contiguous, disjoint, collectively exhaustive index ranges. Shard
// sizes differ by at most one (the first Total mod K shards get the
// extra item), so the partition is balanced and depends only on
// (Total, K) — every process that computes the same plan agrees on
// every shard boundary without coordination.
type Plan struct {
	// Total is the number of items partitioned.
	Total int64 `json:"total"`
	// K is the number of shards.
	K int `json:"k"`
}

// NewPlan validates and returns the partition of total items into k
// shards. A negative total or k < 1 is an error; k may exceed total, in
// which case the surplus shards are empty.
func NewPlan(total int64, k int) (Plan, error) {
	if total < 0 || k < 1 {
		return Plan{}, fmt.Errorf("shard: bad plan: total=%d k=%d", total, k)
	}
	return Plan{Total: total, K: k}, nil
}

// Bounds returns shard i's half-open index range [lo, hi). It panics
// when i is outside [0, K) — plans are validated at construction, so an
// out-of-range shard index is a caller bug, not an input error.
func (p Plan) Bounds(i int) (lo, hi int64) {
	if i < 0 || i >= p.K {
		panic(fmt.Sprintf("shard: index %d outside plan of %d shards", i, p.K))
	}
	base, rem := p.Total/int64(p.K), p.Total%int64(p.K)
	lo = int64(i)*base + min(int64(i), rem)
	hi = lo + base
	if int64(i) < rem {
		hi++
	}
	return lo, hi
}

// Cursor addresses the half-open index range [Lo, Hi) of a deterministic
// scenario stream: the serializable identity of one campaign shard.
// Because every source in the root package is deterministic and
// re-iterable, a cursor plus the source's construction parameters fully
// determine the shard's scenarios — across processes and machines.
type Cursor struct {
	// Lo is the first stream index the cursor covers.
	Lo int64 `json:"lo"`
	// Hi is the first stream index past the cursor (exclusive).
	Hi int64 `json:"hi"`
}

// Len returns the number of stream items the cursor covers.
func (c Cursor) Len() int64 { return c.Hi - c.Lo }

// Validate checks the cursor's internal consistency: 0 ≤ Lo ≤ Hi.
func (c Cursor) Validate() error {
	if c.Lo < 0 || c.Hi < c.Lo {
		return fmt.Errorf("%w: cursor [%d, %d)", ErrBadCheckpoint, c.Lo, c.Hi)
	}
	return nil
}

// Checkpoint is the resumable state of a partially executed campaign
// shard: the shard's cursor, the number of runs already completed within
// it (always a prefix — chunked execution never checkpoints mid-chunk),
// and a snapshot of the results accumulated over exactly those runs.
// Resuming from a checkpoint and running to completion reproduces the
// uninterrupted run's accumulator byte for byte, because the remaining
// runs fold into the snapshot the same way they would have folded into
// the live accumulator.
type Checkpoint struct {
	// Version is the wire-format version (see Version).
	Version int `json:"version"`
	// Cursor is the shard this checkpoint belongs to.
	Cursor Cursor `json:"cursor"`
	// RunsDone is the number of runs completed: the shard's scenarios
	// with stream indices in [Cursor.Lo, Cursor.Lo+RunsDone) have run and
	// are covered by Stats.
	RunsDone int64 `json:"runs_done"`
	// Stats is the accumulator snapshot over the completed runs (nil
	// stands for the empty accumulator).
	Stats *stats.Accumulator `json:"stats,omitempty"`
}

// Validate checks the envelope's internal consistency: the version must
// be this build's, the cursor well-formed, RunsDone within it, and Stats
// a snapshot over exactly RunsDone runs that passes Accumulator.Check.
func (c Checkpoint) Validate() error {
	if c.Version != Version {
		return fmt.Errorf("%w: version %d (this build reads version %d)",
			ErrBadCheckpoint, c.Version, Version)
	}
	if err := c.Cursor.Validate(); err != nil {
		return err
	}
	if c.RunsDone < 0 || c.RunsDone > c.Cursor.Len() {
		return fmt.Errorf("%w: runs_done %d outside cursor [%d, %d)",
			ErrBadCheckpoint, c.RunsDone, c.Cursor.Lo, c.Cursor.Hi)
	}
	var covered int64
	if c.Stats != nil {
		if err := c.Stats.Check(); err != nil {
			return fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
		}
		covered = c.Stats.Runs
	}
	if covered != c.RunsDone {
		return fmt.Errorf("%w: stats cover %d runs, runs_done says %d",
			ErrBadCheckpoint, covered, c.RunsDone)
	}
	return nil
}

// Encode renders the checkpoint as its canonical JSON encoding,
// validating first so a corrupt envelope can never be persisted. The
// encoding is the bytes encoding/json writes for the struct tags, and so
// byte-deterministic for a fixed checkpoint, appended without reflection:
// the envelope here, the snapshot by Accumulator.AppendJSON (breakdown
// keys sorted as encoding/json sorts them), into one exactly sized copy.
func (c Checkpoint) Encode() ([]byte, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return stats.Encode(c.appendJSON), nil
}

// appendJSON appends the envelope's encoding to dst.
func (c *Checkpoint) appendJSON(dst []byte) []byte {
	dst = strconv.AppendInt(append(dst, `{"version":`...), int64(c.Version), 10)
	dst = strconv.AppendInt(append(dst, `,"cursor":{"lo":`...), c.Cursor.Lo, 10)
	dst = strconv.AppendInt(append(dst, `,"hi":`...), c.Cursor.Hi, 10)
	dst = strconv.AppendInt(append(dst, `},"runs_done":`...), c.RunsDone, 10)
	if c.Stats != nil {
		dst = c.Stats.AppendJSON(append(dst, `,"stats":`...))
	}
	return append(dst, '}')
}

// Decode parses and validates a checkpoint encoding. Decoding is strict:
// malformed or truncated JSON, unknown fields (the shape version skew
// takes when a future build adds fields), trailing bytes and failed
// Validate checks all return errors wrapping ErrBadCheckpoint. Decode
// never panics, and allocates proportionally to the input, so arbitrary
// bytes — a corrupt checkpoint file — are safe to feed it.
func Decode(data []byte) (Checkpoint, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var c Checkpoint
	if err := dec.Decode(&c); err != nil {
		return Checkpoint{}, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
	}
	var trailing json.RawMessage
	if err := dec.Decode(&trailing); err != io.EOF {
		return Checkpoint{}, fmt.Errorf("%w: trailing data after envelope", ErrBadCheckpoint)
	}
	if err := c.Validate(); err != nil {
		return Checkpoint{}, err
	}
	return c, nil
}
