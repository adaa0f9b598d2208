package kset

import (
	"context"
	"math"
	"math/rand"

	"kset/internal/condition"
	"kset/internal/count"
	"kset/internal/vector"
)

// ScenarioSource is a stream of scenarios: the input side of the
// generator subsystem. Sources are deterministic and re-iterable — every
// ForEach over the same source yields the same scenarios in the same
// order, which is what makes generator-fed campaigns reproducible — and
// they stream: a source never materializes its scenario set, so sweeping
// all m^n inputs of a domain costs one vector of memory, not m^n.
//
// Build sources with the builders (ScenariosOf, Inputs, ExhaustiveInputs,
// ConditionMembers, RandomInputs), shape them with the combinators
// (CrossFailures, FailureSchedules, CrossExecutors, Labeled, Concat), and
// feed them to System.RunSource, RunCheckpointed or a Sweep.
//
// Ownership: scenarios ForEach yields remain valid after yield returns,
// but their Input vectors must be treated as read-only — a source may
// share one input buffer across the scenarios it derives from it. A
// campaign that pulls a source (System.RunSource, RunCheckpointed) does
// not go through ForEach: each worker has the source draw every input
// into that worker's one vector, overwritten by the next input, so
// nothing may keep a run's Input after the run — an Observation carries
// none, and Verify, Contains and the fault plane read it during the run
// only.
type ScenarioSource interface {
	// ForEach yields the scenarios in order, stopping early when yield
	// returns false.
	ForEach(yield func(Scenario) bool)
	// Size returns the number of scenarios the source yields, when it is
	// known without iterating.
	Size() (int64, bool)
}

// funcSource adapts one range function (plus an optional size) to
// ScenarioSource; every builder and combinator is one of these.
type funcSource struct {
	size  int64
	sized bool
	// ranged yields the scenarios with stream indices in [lo, hi), in
	// order, ending early where the stream does — the one iterator whole
	// streams, shards and checkpoint chunks all ride. Callers guarantee
	// 0 ≤ lo < hi, and hi may be math.MaxInt64 (ForEach), so
	// implementations must not add to it; they seek instead of replaying
	// the prefix wherever the underlying stream allows it, and where it
	// does not — the seek costs O(lo) — they give up once ctx is done
	// (seekStopped), so a campaign worker is never out of cancellation's
	// reach for the length of a stream.
	//
	// g is the caller's generation storage, lent for the call: with a
	// non-nil g a builder draws every input into g's vector, overwriting
	// the previous one, so a yielded Input is valid only until yield
	// returns; with nil every input is a fresh vector. Combinators pass g
	// through to the one input stream they wrap — at most one builder
	// generates into g at a time (see genStore).
	ranged func(ctx context.Context, g *genStore, lo, hi int64, yield func(Scenario) bool)
}

func (s funcSource) ForEach(yield func(Scenario) bool) {
	s.ranged(context.Background(), nil, 0, math.MaxInt64, yield)
}
func (s funcSource) Size() (int64, bool) { return s.size, s.sized }

// genStore is a campaign worker's generation storage: one input vector
// and one seeded generator, reused by every input a pulled campaign draws
// on that worker, so a generator-fed run allocates nothing. Two
// invariants make the sharing sound:
//
//   - At most one builder generates into a genStore at a time. Every
//     combinator varies the FP, Executor, Faults or Label of one input
//     stream; none nests a second input stream inside the first.
//   - Nothing keeps a run's Input after Campaign.runOne returns: the
//     Observation carries no input, and Verify, Contains and the fault
//     plane's seed read it during the run only.
//
// The generator remembers where it stopped: the RandomInputs stream
// (seed, n, m) it draws and the index of the next input. Those fix the
// draws to come exactly (how much of the source Intn(m) consumes depends
// on m), so a range that starts there or later on the same stream draws
// on from there, and any other range reseeds and seeks. A worker whose
// claims only move forward — every worker of a pulled campaign,
// RunCheckpointed's chunks included — draws at most the stream once. The
// store outlives its campaign in the worker pool; a continuation is exact
// whichever campaign drew the prefix.
type genStore struct {
	in  Vector
	rng *rand.Rand
	at  randPos // where rng stopped; the zero randPos matches no stream

	// reseeds and draws count the generator's restarts and the values it
	// drew, seeks included.
	reseeds, draws int64
}

// randPos is a position in a RandomInputs stream: the stream's
// parameters and the index of the next input.
type randPos struct {
	seed int64
	n, m int
	next int64
}

// input returns an n-entry vector for the next input: the store's own,
// or a fresh one when g is nil.
func (g *genStore) input(n int) Vector {
	if g == nil {
		return make(Vector, n)
	}
	if cap(g.in) < n {
		g.in = make(Vector, n)
	}
	g.in = g.in[:n]
	return g.in
}

// randAt returns a generator at input lo of the stream (seed, n, m): the
// store's own, drawn on from where it stopped if that is on the stream at
// or before lo, else reseeded — Seed restarts the same source, so the
// stream is exactly a new generator's — and advanced past lo inputs of n
// draws each; a new one when g is nil. It returns nil when ctx ends the
// seek.
func (g *genStore) randAt(ctx context.Context, seed int64, n, m int, lo int64) *rand.Rand {
	if g == nil {
		return seek(ctx, rand.New(rand.NewSource(seed)), lo*int64(n), m)
	}
	at := g.at
	if g.rng == nil || at.seed != seed || at.n != n || at.m != m || at.next > lo {
		if g.rng == nil {
			g.rng = rand.New(rand.NewSource(seed))
		} else {
			g.rng.Seed(seed)
		}
		g.reseeds++
		at = randPos{seed: seed, n: n, m: m}
	}
	skip := (lo - at.next) * int64(n)
	g.at = randPos{}
	g.draws += skip
	if seek(ctx, g.rng, skip, m) == nil {
		return nil
	}
	g.at = randPos{seed: seed, n: n, m: m, next: lo}
	return g.rng
}

// drew records that the store's generator drew one more input of n
// values.
func (g *genStore) drew(n int) {
	if g != nil {
		g.at.next++
		g.draws += int64(n)
	}
}

// seek discards skip draws of Intn(m) from rng and returns it, or nil
// when ctx ends the seek first.
func seek(ctx context.Context, rng *rand.Rand, skip int64, m int) *rand.Rand {
	for s := int64(0); s < skip; s++ {
		if seekStopped(ctx, s) {
			return nil
		}
		rng.Intn(m)
	}
	return rng
}

// seekStopped reports, once every 64k steps of a seek, whether ctx is done.
func seekStopped(ctx context.Context, step int64) bool {
	return step&0xffff == 0 && ctx.Err() != nil
}

// ScenariosOf wraps an explicit scenario list as a source.
func ScenariosOf(scs ...Scenario) ScenarioSource {
	return funcSource{
		size: int64(len(scs)), sized: true,
		ranged: func(_ context.Context, _ *genStore, lo, hi int64, yield func(Scenario) bool) {
			for i := lo; i < min(hi, int64(len(scs))); i++ {
				if !yield(scs[i]) {
					return
				}
			}
		},
	}
}

// Inputs wraps a list of input vectors as a source of failure-free
// scenarios; attach adversaries with CrossFailures or FailureSchedules.
func Inputs(inputs ...Vector) ScenarioSource {
	return funcSource{
		size: int64(len(inputs)), sized: true,
		ranged: func(_ context.Context, _ *genStore, lo, hi int64, yield func(Scenario) bool) {
			for i := lo; i < min(hi, int64(len(inputs))); i++ {
				if !yield(Scenario{Input: inputs[i]}) {
					return
				}
			}
		},
	}
}

// ExhaustiveInputs streams every full input vector of {1..m}^n in
// lexicographic order — all m^n of them — as failure-free scenarios. This
// is the proof-by-enumeration source: crossed with an adversary family it
// sweeps an entire scenario space without materializing it. Range shards
// of the stream seek the enumerator's cursor directly (vector.Enum.SeekTo),
// so shard i of a 10⁹-vector sweep starts in O(n), not O(i·10⁹/K).
func ExhaustiveInputs(n, m int) ScenarioSource {
	size, sized := powInt64(m, n)
	return funcSource{
		size: size, sized: sized,
		ranged: func(_ context.Context, g *genStore, lo, hi int64, yield func(Scenario) bool) {
			e := vector.NewEnum(n, m)
			e.SeekTo(lo)
			for i := lo; i < hi; i++ {
				v, ok := e.Next()
				if !ok {
					return
				}
				in := g.input(n)
				copy(in, v)
				if !yield(Scenario{Input: in}) {
					return
				}
			}
		},
	}
}

// ConditionMembers streams the condition's member vectors as failure-free
// scenarios, in the deterministic member order. Explicit conditions
// stream their stored members; implicit (max_ℓ/min_ℓ) conditions stream
// by filtering the {1..m}^n enumeration, practical at small n and m. The
// size is known for explicit conditions (their member count) and for
// max_ℓ/min_ℓ conditions (the Theorem-13 closed form NB(x,ℓ), when it
// fits in an int64).
func ConditionMembers(c Condition) ScenarioSource {
	size, sized := memberCount(c)
	return funcSource{size: size, sized: sized, ranged: func(ctx context.Context, g *genStore, lo, hi int64, yield func(Scenario) bool) {
		st := condition.NewStream(c)
		for i := int64(0); i < hi; i++ {
			v, ok := st.Next()
			if !ok || seekStopped(ctx, i) {
				return
			}
			if i < lo {
				continue
			}
			in := g.input(len(v))
			copy(in, v)
			if !yield(Scenario{Input: in}) {
				return
			}
		}
	}}
}

// memberCount returns the condition's cardinality when a closed form or
// stored count is available. min_ℓ conditions count like max_ℓ ones: the
// value mirror v ↦ m+1−v is a size-preserving bijection between them.
func memberCount(c Condition) (int64, bool) {
	switch cc := c.(type) {
	case *ExplicitCondition:
		return int64(cc.Size()), true
	case *MaxCondition:
		return nbInt64(cc.N(), cc.M(), cc.X(), cc.L())
	case *MinCondition:
		return nbInt64(cc.N(), cc.M(), cc.X(), cc.L())
	}
	return 0, false
}

func nbInt64(n, m, x, l int) (int64, bool) {
	nb, err := count.NB(n, m, x, l)
	if err != nil || !nb.IsInt64() {
		return 0, false
	}
	return nb.Int64(), true
}

// powInt64 returns m^n, or false on overflow or an empty domain.
func powInt64(m, n int) (int64, bool) {
	if n < 0 || m < 1 {
		return 0, true
	}
	size := int64(1)
	for i := 0; i < n; i++ {
		if size > math.MaxInt64/int64(m) {
			return 0, false
		}
		size *= int64(m)
	}
	return size, true
}

// RandomInputs streams count seeded uniform random input vectors over
// {1..m}^n as failure-free scenarios. The stream is deterministic: the
// same seed yields the same inputs, every time it is iterated. Like
// ExhaustiveInputs, a degenerate domain (n < 0 or m < 1) yields an empty
// stream.
func RandomInputs(seed int64, n, m, count int) ScenarioSource {
	if count < 0 || n < 0 || m < 1 {
		count = 0
	}
	return funcSource{
		size: int64(count), sized: true,
		ranged: func(ctx context.Context, g *genStore, lo, hi int64, yield func(Scenario) bool) {
			hi = min(hi, int64(count))
			if lo >= hi {
				return
			}
			// Continue the worker's generator, or fast-forward the seed
			// stream past the first lo vectors without building them, so a
			// shard yields exactly the bytes the unsharded stream would at
			// the same indices.
			rng := g.randAt(ctx, seed, n, m, lo)
			if rng == nil {
				return
			}
			for i := lo; i < hi; i++ {
				in := g.input(n)
				for j := range in {
					in[j] = Value(1 + rng.Intn(m))
				}
				g.drew(n)
				if !yield(Scenario{Input: in}) {
					return
				}
			}
		},
	}
}

// crossSource is the shared core of the cross-product combinators: each
// source scenario is yielded k times, variant j produced by set. The
// product stream splits on the outer axis — product index i maps to source
// index i/k and variant i mod k — so shards of a crossed sweep seek the
// underlying source instead of replaying it.
func crossSource(src ScenarioSource, k int, set func(sc Scenario, j int) Scenario) ScenarioSource {
	size, sized := scaled(src, k)
	return funcSource{size: size, sized: sized, ranged: func(ctx context.Context, g *genStore, lo, hi int64, yield func(Scenario) bool) {
		if k == 0 {
			return
		}
		k64 := int64(k)
		i := lo / k64 * k64 // product index of the outer range's start
		// (hi−1)/k+1 is ⌈hi/k⌉ without the overflow of hi+k−1.
		forEachRange(ctx, g, src, lo/k64, (hi-1)/k64+1, func(sc Scenario) bool {
			for j := 0; j < k; j++ {
				if i >= hi {
					return false
				}
				if i >= lo && !yield(set(sc, j)) {
					return false
				}
				i++
			}
			return true
		})
	}}
}

// CrossFailures takes the cross product of a source with an explicit
// failure-pattern list: each scenario is yielded once per pattern, with
// that pattern installed. The scenarios of one input share its Input
// buffer.
func CrossFailures(src ScenarioSource, fps ...FailurePattern) ScenarioSource {
	return crossSource(src, len(fps), func(sc Scenario, j int) Scenario {
		sc.FP = fps[j]
		return sc
	})
}

// FailureSchedules takes the cross product of a source with a failure
// family: each scenario is yielded once per family pattern. Families are
// index-deterministic (see the FailureFamily builders), so the product
// stream is too. The family's patterns are generated once, when the
// product source is built, not once per input scenario.
func FailureSchedules(src ScenarioSource, fam FailureFamily) ScenarioSource {
	return CrossFailures(src, fam.Patterns()...)
}

// CrossExecutors takes the cross product of a source with an executor
// list: each scenario is yielded once per executor, with that executor
// installed as the scenario override.
func CrossExecutors(src ScenarioSource, execs ...Executor) ScenarioSource {
	return crossSource(src, len(execs), func(sc Scenario, j int) Scenario {
		sc.Executor = execs[j]
		return sc
	})
}

// Labeled stamps the label on every scenario of the source; labels key
// the accumulator's per-label breakdown. Like the cross products it seeks
// the underlying source, so a labelled stream shards, checkpoints and
// feeds a campaign exactly as the unlabelled one does.
func Labeled(src ScenarioSource, label string) ScenarioSource {
	return crossSource(src, 1, func(sc Scenario, _ int) Scenario {
		sc.Label = label
		return sc
	})
}

// Concat chains sources: all scenarios of the first, then the second, …
func Concat(srcs ...ScenarioSource) ScenarioSource {
	size, sized := int64(0), true
	for _, s := range srcs {
		n, ok := s.Size()
		if !ok || size > math.MaxInt64-n {
			size, sized = 0, false
			break
		}
		size += n
	}
	return funcSource{size: size, sized: sized, ranged: func(ctx context.Context, g *genStore, lo, hi int64, yield func(Scenario) bool) {
		stopped := false
		pass := func(sc Scenario) bool {
			stopped = !yield(sc)
			return !stopped
		}
		off := int64(0) // stream index of the current child's first scenario
		for _, s := range srcs {
			n, ok := s.Size()
			if ok {
				forEachRange(ctx, g, s, max(lo-off, 0), min(hi-off, n), pass)
			} else {
				// An unsized child is walked whole (up to hi), counting,
				// because the next child's offset is this one's length.
				n = 0
				s.ForEach(func(sc Scenario) bool {
					n++
					return (off+n <= lo || pass(sc)) && off+n < hi
				})
			}
			if off += n; stopped || off >= hi {
				return
			}
		}
	}}
}

// scaled returns the source's size times k, unknown when the source's
// size is unknown or the product overflows int64.
func scaled(src ScenarioSource, k int) (int64, bool) {
	n, ok := src.Size()
	if !ok {
		return 0, false
	}
	if k != 0 && n > math.MaxInt64/int64(k) {
		return 0, false
	}
	return n * int64(k), true
}
