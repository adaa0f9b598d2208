package kset_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"kset"
	"kset/internal/shard"
)

// sig renders a scenario as a canonical comparison key: input, executor,
// the sorted crash schedule and the fault plan. Map iteration order never
// leaks in, so equal scenarios always collide.
func sig(sc kset.Scenario) string {
	s := "in=" + sc.Input.String()
	if sc.Executor != nil {
		s += " ex=" + sc.Executor.Name()
	}
	if len(sc.FP.Crashes) > 0 {
		ids := make([]int, 0, len(sc.FP.Crashes))
		for id := range sc.FP.Crashes {
			ids = append(ids, int(id))
		}
		sort.Ints(ids)
		for _, id := range ids {
			cr := sc.FP.Crashes[kset.ProcessID(id)]
			s += fmt.Sprintf(" c%d@%d.%d", id, cr.Round, cr.AfterSends)
		}
	}
	if sc.Faults != nil {
		s += fmt.Sprintf(" f=%+v", *sc.Faults)
	}
	return s
}

// foreignSource is a ScenarioSource this package did not build — no range
// function to seek with, and no size.
type foreignSource []kset.Vector

func (f foreignSource) Size() (int64, bool) { return 0, false }
func (f foreignSource) ForEach(yield func(kset.Scenario) bool) {
	for _, in := range f {
		if !yield(kset.Scenario{Input: in}) {
			return
		}
	}
}

// sigs collects a source's full stream as signature sequence.
func sigs(src kset.ScenarioSource) []string {
	var out []string
	src.ForEach(func(sc kset.Scenario) bool {
		out = append(out, sig(sc))
		return true
	})
	return out
}

// shardKinds builds one source of every kind the sharding plane must
// split correctly: exhaustive enumeration, seeded random, condition
// members, literal lists, cross products (crash, executor and fault axes,
// a nil plan included) and concatenations, sized and — around a foreign
// child — unsized.
func shardKinds(t *testing.T) map[string]kset.ScenarioSource {
	t.Helper()
	cond, err := kset.NewMaxCondition(4, 3, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	lit := []kset.Vector{
		kset.VectorOf(1, 2, 3, 1), kset.VectorOf(2, 2, 2, 2),
		kset.VectorOf(3, 1, 1, 3), kset.VectorOf(1, 1, 1, 1), kset.VectorOf(3, 3, 3, 3),
	}
	return map[string]kset.ScenarioSource{
		"exhaustive": kset.ExhaustiveInputs(3, 3),
		"random":     kset.RandomInputs(7, 4, 3, 25),
		"members":    kset.ConditionMembers(cond),
		"literal":    kset.Inputs(lit...),
		"cross": kset.CrossExecutors(
			kset.FailureSchedules(
				kset.RandomInputs(3, 4, 3, 4),
				kset.RandomCrashFamily(5, 4, 2, 3, 3),
			),
			kset.Figure2, kset.EarlyDeciding,
		),
		"concat": kset.Concat(
			kset.ExhaustiveInputs(2, 2),
			kset.RandomInputs(9, 2, 2, 5),
			kset.Inputs(lit[0][:2], lit[1][:2]),
		),
		"faults": kset.FaultSchedules(
			kset.FailureSchedules(
				kset.RandomInputs(5, 4, 3, 6),
				kset.RandomCrashFamily(8, 4, 2, 3, 2),
			),
			kset.StormFamily(11, 3, 2, 0.3),
		),
		"crossfaults": kset.CrossFaults(kset.ExhaustiveInputs(2, 3),
			nil, &kset.FaultPlan{Seed: 5, Default: kset.LinkFaults{Loss: 0.2}},
			&kset.FaultPlan{Seed: 6, Default: kset.LinkFaults{DelayProb: 0.1, MaxDelay: 2}}),
		"foreign": kset.Concat(
			kset.ExhaustiveInputs(2, 2),
			foreignSource{lit[2][:2], lit[0][:2], lit[4][:2]},
			kset.RandomInputs(9, 2, 2, 5),
		),
	}
}

// TestShardStreamUnion pins the partition law on real sources: for every
// source kind and K, the shard streams concatenated in shard order are
// exactly the unsharded stream — each scenario once, in order, no seams.
// An unsized source cannot be planned, so its shards are the same plan's
// ranges over its counted length.
func TestShardStreamUnion(t *testing.T) {
	for name, src := range shardKinds(t) {
		t.Run(name, func(t *testing.T) {
			want := sigs(src)
			_, sized := src.Size()
			for _, k := range []int{1, 2, 3, 7, 16} {
				plan, err := shard.NewPlan(int64(len(want)), k)
				if err != nil {
					t.Fatal(err)
				}
				var got []string
				for i := 0; i < k; i++ {
					lo, hi := plan.Bounds(i)
					sh := kset.Range(src, lo, hi)
					if sized {
						if sh, err = kset.ShardSource(src, i, k); err != nil {
							t.Fatalf("ShardSource(%d, %d): %v", i, k, err)
						}
					}
					part := sigs(sh)
					if n, ok := sh.Size(); ok != sized || (ok && int(n) != len(part)) {
						t.Fatalf("shard %d/%d Size() = %d, %v; yielded %d", i, k, n, ok, len(part))
					}
					got = append(got, part...)
				}
				if len(got) != len(want) {
					t.Fatalf("K=%d: %d scenarios, want %d", k, len(got), len(want))
				}
				for j := range want {
					if got[j] != want[j] {
						t.Fatalf("K=%d: scenario %d = %q, want %q", k, j, got[j], want[j])
					}
				}
			}
		})
	}
}

// TestShardStreamUnionRandomized fuzzes the same law over random domain
// shapes, source kinds and shard counts with a fixed seed.
func TestShardStreamUnionRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		n, m := 1+rng.Intn(4), 1+rng.Intn(3)
		k := 1 + rng.Intn(16)
		var src kset.ScenarioSource
		kind := rng.Intn(4)
		switch kind {
		case 0:
			src = kset.ExhaustiveInputs(n, m)
		case 1:
			src = kset.RandomInputs(rng.Int63(), n, m, rng.Intn(40))
		case 2:
			vecs := make([]kset.Vector, rng.Intn(10))
			for i := range vecs {
				v := make(kset.Vector, n)
				for j := range v {
					v[j] = kset.Value(1 + rng.Intn(m))
				}
				vecs[i] = v
			}
			src = kset.Inputs(vecs...)
		default:
			src = kset.CrossExecutors(
				kset.RandomInputs(rng.Int63(), n, m, 1+rng.Intn(10)),
				kset.Figure2, kset.EarlyDeciding, kset.Classical)
		}
		want := sigs(src)
		var got []string
		for i := 0; i < k; i++ {
			sh, err := kset.ShardSource(src, i, k)
			if err != nil {
				t.Fatalf("trial %d (kind %d): %v", trial, kind, err)
			}
			got = append(got, sigs(sh)...)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d (n=%d m=%d kind=%d K=%d): %d scenarios, want %d",
				trial, n, m, kind, k, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("trial %d (n=%d m=%d kind=%d K=%d): scenario %d = %q, want %q",
					trial, n, m, kind, k, j, got[j], want[j])
			}
		}
	}
}

// TestRangeSemantics pins Range's clamping and composition.
func TestRangeSemantics(t *testing.T) {
	src := kset.ExhaustiveInputs(2, 3) // 9 scenarios
	full := sigs(src)
	cases := []struct {
		lo, hi   int64
		from, to int // expected slice of full
	}{
		{0, 9, 0, 9}, {2, 5, 2, 5}, {0, 0, 0, 0}, {5, 5, 5, 5},
		{-3, 2, 0, 2}, {7, 99, 7, 9}, {4, 2, 4, 4}, {99, 120, 9, 9},
	}
	for _, tc := range cases {
		r := kset.Range(src, tc.lo, tc.hi)
		got := sigs(r)
		want := full[tc.from:tc.to]
		if n, ok := r.Size(); !ok || int(n) != len(want) {
			t.Fatalf("Range(%d,%d).Size() = %d, %v; want %d", tc.lo, tc.hi, n, ok, len(want))
		}
		if len(got) != len(want) {
			t.Fatalf("Range(%d,%d) yielded %d, want %d", tc.lo, tc.hi, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Range(%d,%d)[%d] = %q, want %q", tc.lo, tc.hi, i, got[i], want[i])
			}
		}
	}
	// Ranges of ranges compose: offsets are relative to the outer range.
	inner := sigs(kset.Range(kset.Range(src, 2, 8), 1, 3))
	if len(inner) != 2 || inner[0] != full[3] || inner[1] != full[4] {
		t.Fatalf("Range(Range(2,8),1,3) = %v, want full[3:5]", inner)
	}
	// Unbounded above and offset below: ForEach's math.MaxInt64 bound must
	// not be added to either lo, through a cross product's ⌈hi/k⌉ as well.
	open := sigs(kset.Range(kset.Range(kset.CrossFaults(src, nil, nil), 4, 16), 2, math.MaxInt64))
	if len(open) != 10 || open[0] != full[3] || open[9] != full[7] {
		t.Fatalf("Range(Range(cross,4,16),2,max) = %v, want full[3:8] twice each", open)
	}
}

// TestShardUnsizedSource pins the ErrUnsizedSource contract: streams of
// unknown length cannot be index-partitioned.
func TestShardUnsizedSource(t *testing.T) {
	unsized := kset.ExhaustiveInputs(64, 4) // m^n overflows int64: size unknown
	if _, ok := unsized.Size(); ok {
		t.Fatal("test premise broken: source is sized")
	}
	if _, err := kset.ShardSource(unsized, 0, 4); !errors.Is(err, kset.ErrUnsizedSource) {
		t.Fatalf("ShardSource on unsized source: %v, want ErrUnsizedSource", err)
	}
	sized := kset.ExhaustiveInputs(2, 2)
	if _, err := kset.ShardSource(sized, 4, 4); err == nil {
		t.Fatal("ShardSource accepted an out-of-range shard index")
	}
	if _, err := kset.ShardSource(sized, -1, 4); err == nil {
		t.Fatal("ShardSource accepted a negative shard index")
	}
}

// statsJSON runs src through sys and renders the campaign stats JSON.
func statsJSON(t *testing.T, sys *kset.System, src kset.ScenarioSource) []byte {
	t.Helper()
	st, err := sys.RunSource(context.Background(), src, kset.VerifyRuns())
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestShardedStatsByteIdentical is the acceptance matrix: for exhaustive,
// random, member and cross-product sources, a K-way sharded campaign —
// each shard run separately, accumulators folded with Merge — produces
// byte-identical stats JSON to the single-process run, for K ∈ {1,3,16}
// and worker counts {1,4,16}.
func TestShardedStatsByteIdentical(t *testing.T) {
	p := kset.Params{N: 4, T: 2, K: 2, D: 1, L: 1}
	cond, err := kset.NewMaxCondition(p.N, 3, p.X(), p.L)
	if err != nil {
		t.Fatal(err)
	}
	systems := map[int]*kset.System{} // one per worker count
	for _, workers := range []int{1, 4, 16} {
		systems[workers] = testSystem(t, kset.WithParams(p), kset.WithCondition(cond), kset.WithWorkers(workers))
	}

	sources := map[string]kset.ScenarioSource{
		"exhaustive": kset.ExhaustiveInputs(p.N, 3),
		"random":     kset.RandomInputs(11, p.N, 3, 60),
		"members":    kset.ConditionMembers(cond),
		"cross": kset.CrossExecutors(
			kset.FailureSchedules(
				kset.RandomInputs(13, p.N, 3, 5),
				kset.RandomCrashFamily(17, p.N, p.T, p.RMax(), 4),
			),
			kset.Figure2, kset.EarlyDeciding, kset.Classical,
		),
	}
	for name, src := range sources {
		t.Run(name, func(t *testing.T) {
			baseline := statsJSON(t, systems[1], src)
			for _, workers := range []int{1, 4, 16} {
				for _, k := range []int{1, 3, 16} {
					merged := &kset.Accumulator{}
					for i := 0; i < k; i++ {
						sh, err := kset.ShardSource(src, i, k)
						if err != nil {
							t.Fatal(err)
						}
						st, err := systems[workers].RunSource(context.Background(), sh, kset.VerifyRuns())
						if err != nil {
							t.Fatal(err)
						}
						merged.Merge(st.Metrics)
					}
					got, err := json.Marshal(kset.CampaignStatsOf(merged))
					if err != nil {
						t.Fatal(err)
					}
					if string(got) != string(baseline) {
						t.Fatalf("workers=%d K=%d: merged stats differ from single run\n%s\nvs\n%s",
							workers, k, got, baseline)
					}
				}
			}
		})
	}
}
