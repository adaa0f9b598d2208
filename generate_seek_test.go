package kset

import (
	"context"
	"math"
	"sync"
	"testing"
	"unsafe"
)

// TestFaultSchedulesSeeksBase pins that a fault-crossed source seeks its
// base like every other cross product, through a label as well:
// Range(FaultSchedules(Labeled(base, …), fam), lo, hi) never asks the base
// for an index below lo/k and pulls only the ⌈hi/k⌉ − ⌊lo/k⌋ scenarios the
// range touches. A combinator with an iterator of its own (the fault
// products once, ksetd's label stamp after them) makes every range — hence
// every checkpoint chunk, shard and campaign claim — regenerate and
// discard the stream's whole prefix.
func TestFaultSchedulesSeeksBase(t *testing.T) {
	inner := RandomInputs(3, 4, 3, 40).(funcSource)
	askedLo, pulled := int64(math.MaxInt64), int64(0)
	base := funcSource{size: inner.size, sized: true, ranged: func(ctx context.Context, g *genStore, lo, hi int64, yield func(Scenario) bool) {
		askedLo = min(askedLo, lo)
		inner.ranged(ctx, g, lo, hi, func(sc Scenario) bool {
			pulled++
			return yield(sc)
		})
	}}
	fam := StormFamily(7, 3, 2, 0.4)
	k := int64(fam.Size())
	src := FaultSchedules(Labeled(base, "job"), fam)
	if n, ok := src.Size(); !ok || n != 40*k {
		t.Fatalf("Size() = %d, %v; want %d", n, ok, 40*k)
	}
	for _, r := range [][2]int64{{0, 7}, {7, 8}, {30, 61}, {100, 120}, {119, 500}} {
		lo, hi := r[0], min(r[1], 40*k)
		askedLo, pulled = math.MaxInt64, 0
		got := int64(0)
		Range(src, lo, hi).ForEach(func(sc Scenario) bool {
			if want := fam.Plan(int((lo + got) % k)).Seed; sc.Faults.Seed != want {
				t.Fatalf("[%d,%d): scenario %d carries plan seed %d, want %d", lo, hi, got, sc.Faults.Seed, want)
			}
			if sc.Label != "job" {
				t.Fatalf("[%d,%d): scenario %d carries label %q", lo, hi, got, sc.Label)
			}
			got++
			return true
		})
		if got != hi-lo {
			t.Fatalf("[%d,%d): yielded %d scenarios", lo, hi, got)
		}
		if askedLo < lo/k {
			t.Errorf("[%d,%d): base asked for index %d, below %d", lo, hi, askedLo, lo/k)
		}
		if want := (hi-1)/k + 1 - lo/k; pulled != want {
			t.Errorf("[%d,%d): base yielded %d scenarios, want %d", lo, hi, pulled, want)
		}
	}
}

// TestCheckpointedGeneratorContinues counts, off the genStore the source
// is handed, what a one-worker RunCheckpointed over RandomInputs in
// 64-run chunks costs its generator: one reseed, and each input's n values
// drawn once. A worker that reseeded at each chunk and drew its way back
// to the chunk's start drew about chunks/2 = 128 times that.
func TestCheckpointedGeneratorContinues(t *testing.T) {
	const n, count = 4, 1 << 14
	p := Params{N: n, T: 2, K: 2, D: 1, L: 1}
	cond, err := NewMaxCondition(p.N, 3, p.X(), p.L)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(WithParams(p), WithCondition(cond), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	inner := RandomInputs(5, n, 3, count).(funcSource)
	var g *genStore
	var reseeds, draws int64
	src := funcSource{size: inner.size, sized: true, ranged: func(ctx context.Context, gs *genStore, lo, hi int64, yield func(Scenario) bool) {
		if g == nil {
			g, reseeds, draws = gs, gs.reseeds, gs.draws
		} else if gs != g {
			t.Error("a second generation store joined the one-worker run")
		}
		inner.ranged(ctx, gs, lo, hi, yield)
	}}
	chunks := 0
	st, err := sys.RunCheckpointed(context.Background(), src, nil, 64, func(Checkpoint) error {
		chunks++
		return nil
	})
	if err != nil || st.Runs != count || chunks != count/64 {
		t.Fatalf("err %v, %d runs in %d chunks", err, st.Runs, chunks)
	}
	if got := g.reseeds - reseeds; got != 1 {
		t.Errorf("the generator was reseeded %d times, want 1", got)
	}
	if got := g.draws - draws; got != count*n {
		t.Errorf("the generator drew %d values, want %d", got, count*n)
	}
}

// TestCheckpointedGeneratorSeeksForward counts what a three-worker
// RunCheckpointed over RandomInputs costs its generators, in one chunk and
// in 64-run chunks. The workers' claims interleave, but each worker's only
// move forward, so summed over the pooled stores that served the call the
// generators reseed at most once per worker and draw at most the stream
// once per worker. A store that reseeded for every claim not starting
// where it stopped, and drew its way back to the claim's start, reseeded
// hundreds of times and drew the stream hundreds of times over.
func TestCheckpointedGeneratorSeeksForward(t *testing.T) {
	const n, count, workers = 4, 1 << 14, 3
	p := Params{N: n, T: 2, K: 2, D: 1, L: 1}
	cond, err := NewMaxCondition(p.N, 3, p.X(), p.L)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(WithParams(p), WithCondition(cond), WithWorkers(workers))
	if err != nil {
		t.Fatal(err)
	}
	inner := RandomInputs(5, n, 3, count).(funcSource)
	for _, every := range []int64{0, 64} {
		// Each store's counters when this call first hands it a range.
		var mu sync.Mutex
		start := map[*genStore][2]int64{}
		src := funcSource{size: inner.size, sized: true, ranged: func(ctx context.Context, gs *genStore, lo, hi int64, yield func(Scenario) bool) {
			mu.Lock()
			if _, ok := start[gs]; !ok {
				start[gs] = [2]int64{gs.reseeds, gs.draws}
			}
			mu.Unlock()
			inner.ranged(ctx, gs, lo, hi, yield)
		}}
		st, err := sys.RunCheckpointed(context.Background(), src, nil, every, nil)
		if err != nil || st.Runs != count {
			t.Fatalf("every %d: err %v, %d runs", every, err, st.Runs)
		}
		var reseeds, draws int64
		for g, s := range start {
			reseeds += g.reseeds - s[0]
			draws += g.draws - s[1]
		}
		if reseeds > workers {
			t.Errorf("every %d: the generators were reseeded %d times, want at most %d", every, reseeds, workers)
		}
		if draws > workers*count*n {
			t.Errorf("every %d: the generators drew %d values, want at most %d (%.2f× the stream)", every, draws, workers*count*n, float64(draws)/(count*n))
		}
		t.Logf("every %d: %d stores, %d reseeds, %.2f× the stream", every, len(start), reseeds, float64(draws)/(count*n))
	}
}

// TestCampaignSizeClass: a Campaign stays in the 256-byte size class;
// the next class, 288 bytes, moved every workload's bytes per run.
func TestCampaignSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(Campaign{}); size > 256 {
		t.Errorf("a Campaign is %d bytes, over its 256-byte size class", size)
	}
}
