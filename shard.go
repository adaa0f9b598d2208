package kset

import (
	"context"
	"fmt"

	"kset/internal/shard"
)

// Cursor addresses the half-open index range [Lo, Hi) of a deterministic
// scenario stream: the serializable identity of one campaign shard.
// Sources are deterministic and re-iterable, so a cursor plus the
// source's construction parameters fully determine the shard's scenarios
// across processes and machines. Turn one back into a stream with
// Range(src, cur.Lo, cur.Hi).
type Cursor = shard.Cursor

// ShardSource returns shard i of src split k ways: the sub-stream
// covering the i-th of k balanced, contiguous index ranges. The union of
// the k shard streams is exactly the unsharded stream — disjoint,
// collectively exhaustive, in order within each shard — and every process
// that cuts the same source the same k ways agrees on every boundary
// without coordination. The source must be sized (ErrUnsizedSource
// otherwise); k < 1 is an error, while k larger than the stream leaves the
// surplus shards empty.
func ShardSource(src ScenarioSource, i, k int) (ScenarioSource, error) {
	total, ok := src.Size()
	if !ok {
		return nil, fmt.Errorf("%w: cannot plan shards", ErrUnsizedSource)
	}
	plan, err := shard.NewPlan(total, k)
	if err != nil {
		return nil, err
	}
	if i < 0 || i >= k {
		return nil, fmt.Errorf("kset: shard index %d outside [0, %d)", i, k)
	}
	lo, hi := plan.Bounds(i)
	return Range(src, lo, hi), nil
}

// Range returns the sub-stream of src covering stream indices [lo, hi),
// clamped to the stream. Every source this package builds seeks straight
// to lo (a source over stored or filtered members counts up to it); a
// foreign ScenarioSource implementation is replayed and its prefix
// discarded, preserving correctness at O(lo) iteration cost.
func Range(src ScenarioSource, lo, hi int64) ScenarioSource {
	if lo < 0 {
		lo = 0
	}
	if hi < lo {
		hi = lo
	}
	n, sized := src.Size()
	if sized {
		lo, hi = min(lo, n), min(hi, n)
	}
	return funcSource{size: hi - lo, sized: sized, ranged: func(ctx context.Context, g *genStore, rlo, rhi int64, yield func(Scenario) bool) {
		// Clamp before offsetting: rhi is math.MaxInt64 under ForEach.
		if rhi = min(rhi, hi-lo); rlo < rhi {
			forEachRange(ctx, g, src, lo+rlo, lo+rhi, yield)
		}
	}}
}

// forEachRange yields src's scenarios with stream indices in [lo, hi):
// through the source's range function, generating into g, when it is one
// of ours, and for a foreign ScenarioSource by replaying and discarding
// the prefix, whose inputs the source owns.
func forEachRange(ctx context.Context, g *genStore, src ScenarioSource, lo, hi int64, yield func(Scenario) bool) {
	if lo >= hi {
		return
	}
	if fs, ok := src.(funcSource); ok {
		fs.ranged(ctx, g, lo, hi, yield)
		return
	}
	i := int64(0)
	src.ForEach(func(sc Scenario) bool {
		ok := !seekStopped(ctx, i) && (i < lo || yield(sc))
		i++
		return ok && i < hi
	})
}
