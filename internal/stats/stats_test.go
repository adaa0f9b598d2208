package stats

import (
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// randObservation draws one observation from a seeded distribution that
// exercises every field, including errors and overflow rounds.
func randObservation(r *rand.Rand) Observation {
	o := Observation{
		Round:    r.Intn(HistogramBuckets + 8), // some past the bound
		Messages: int64(r.Intn(500)),
		Crashes:  r.Intn(5),
		Decided:  r.Intn(9),
		Executor: []string{"figure2", "early", "classical", ""}[r.Intn(4)],
		Label:    []string{"inC", "outC", ""}[r.Intn(3)],
	}
	o.InCondition = r.Intn(2) == 0
	if r.Intn(8) == 0 {
		o.Err = true
	}
	if r.Intn(2) == 0 {
		o.Verified = true
		o.Violation = r.Intn(16) == 0
	}
	// A minority of runs rode a fault-injecting transport.
	if r.Intn(4) == 0 {
		o.Lost = int64(r.Intn(20))
		o.Delayed = int64(r.Intn(10))
		o.Duplicated = int64(r.Intn(5))
		o.Undecided = r.Intn(3)
	}
	return o
}

// marshal renders an accumulator as canonical JSON for byte comparison.
func marshal(t *testing.T, a *Accumulator) string {
	t.Helper()
	b, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestMergeAssociative folds the same observation stream through many
// random shard groupings and merge orders: every grouping must produce a
// byte-identical accumulator. This is the invariant that makes campaign
// statistics independent of worker count and scheduling.
func TestMergeAssociative(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	obs := make([]Observation, 4096)
	for i := range obs {
		obs[i] = randObservation(r)
	}

	sequential := &Accumulator{}
	for _, o := range obs {
		sequential.Observe(o)
	}
	want := marshal(t, sequential)

	for trial := 0; trial < 20; trial++ {
		shards := make([]*Accumulator, 1+r.Intn(16))
		for i := range shards {
			shards[i] = NewAccumulator()
		}
		// Random shard assignment (order within a shard preserved —
		// observe order must not matter either way).
		for _, o := range obs {
			shards[r.Intn(len(shards))].Observe(o)
		}
		// Random merge tree: repeatedly merge one shard into another
		// until one remains.
		for len(shards) > 1 {
			i := r.Intn(len(shards))
			j := r.Intn(len(shards) - 1)
			if j >= i {
				j++
			}
			shards[i].Merge(shards[j])
			shards = append(shards[:j], shards[j+1:]...)
		}
		if got := marshal(t, shards[0]); got != want {
			t.Fatalf("trial %d: sharded merge diverged from sequential fold\ngot:  %s\nwant: %s", trial, got, want)
		}
	}
}

// TestAccumulatorCounters pins the counter semantics on a hand-built
// stream.
func TestAccumulatorCounters(t *testing.T) {
	a := NewAccumulator()
	a.Observe(Observation{Round: 2, Messages: 10, Crashes: 1, InCondition: true, Verified: true, Executor: "figure2", Label: "x"})
	a.Observe(Observation{Round: 3, Messages: 30, Crashes: 0, Verified: true, Violation: true, Executor: "figure2"})
	a.Observe(Observation{Err: true, Executor: "early"})
	a.Observe(Observation{Round: 0, Messages: 2, Crashes: 2}) // nobody decided

	if a.Runs != 4 || a.Errors != 1 || a.ConditionHits != 1 || a.Verified != 2 || a.Violations != 1 {
		t.Fatalf("counters: %+v", a)
	}
	if got := a.MessagesDelivered(); got != 42 {
		t.Errorf("MessagesDelivered = %d, want 42", got)
	}
	if a.Messages.Min != 2 || a.Messages.Max != 30 || a.Messages.Mean() != 14 {
		t.Errorf("message summary: %+v", a.Messages)
	}
	if a.MaxDecisionRound() != 3 {
		t.Errorf("MaxDecisionRound = %d, want 3", a.MaxDecisionRound())
	}
	if a.MeanDecisionRound() != 2.5 {
		t.Errorf("MeanDecisionRound = %v, want 2.5", a.MeanDecisionRound())
	}
	if got := a.DecisionRounds(); len(got) != 4 || got[0] != 1 || got[2] != 1 || got[3] != 1 {
		t.Errorf("DecisionRounds = %v", got)
	}
	if a.HitRate() != 0.25 {
		t.Errorf("HitRate = %v, want 0.25", a.HitRate())
	}
	if got := a.ExecutorKeys(); len(got) != 2 || got[0] != "early" || got[1] != "figure2" {
		t.Errorf("ExecutorKeys = %v", got)
	}
	if g := a.ByExecutor["figure2"]; g.Runs != 2 || g.Violations != 1 || g.Rounds.Max != 3 {
		t.Errorf("figure2 group: %+v", g)
	}
	if g := a.ByExecutor["early"]; g.Runs != 1 || g.Errors != 1 {
		t.Errorf("early group: %+v", g)
	}
	if got := a.LabelKeys(); len(got) != 1 || got[0] != "x" {
		t.Errorf("LabelKeys = %v", got)
	}
	if got := a.CrashKeys(); len(got) != 3 || got[0] != 0 || got[2] != 2 {
		t.Errorf("CrashKeys = %v", got)
	}
}

// TestHistogramOverflow checks that rounds past the bucket bound keep
// exact count, mean and max through the overflow summary.
func TestHistogramOverflow(t *testing.T) {
	var h Histogram
	h.Observe(2)
	h.Observe(HistogramBuckets + 10)
	h.Observe(HistogramBuckets + 20)
	if h.Decided() != 3 {
		t.Errorf("Decided = %d, want 3", h.Decided())
	}
	if want := HistogramBuckets + 20; h.Max() != want {
		t.Errorf("Max = %d, want %d", h.Max(), want)
	}
	if want := float64(2+HistogramBuckets+10+HistogramBuckets+20) / 3; h.Mean() != want {
		t.Errorf("Mean = %v, want %v", h.Mean(), want)
	}
	if got := h.Slice(); len(got) != 3 || got[2] != 1 {
		t.Errorf("Slice = %v", got)
	}
	var other Histogram
	other.Observe(HistogramBuckets + 30)
	h.Merge(&other)
	if h.Overflow.Count != 3 || h.Overflow.Max != int64(HistogramBuckets+30) {
		t.Errorf("merged overflow: %+v", h.Overflow)
	}
}

// TestObserveAllocFree pins the zero-alloc observe hot path: once the
// breakdown keys are warm, folding an observation allocates nothing.
func TestObserveAllocFree(t *testing.T) {
	a := NewAccumulator()
	o := Observation{Round: 2, Messages: 64, Crashes: 1, InCondition: true,
		Verified: true, Executor: "figure2", Label: "steady"}
	a.Observe(o) // warm the breakdown keys
	if got := testing.AllocsPerRun(200, func() {
		a.Observe(o)
	}); got != 0 {
		t.Errorf("Observe allocates %.1f/op, want 0", got)
	}
}

// TestCheck: an accumulator Observe and Merge built passes Check without
// allocating, and each broken invariant is refused with its own error:
// a nil group in any breakdown, and every count that contradicts the
// others.
func TestCheck(t *testing.T) {
	a := NewAccumulator()
	a.Observe(Observation{Round: 2, Crashes: 1, Executor: "figure2", Label: "steady"})
	a.Observe(Observation{Round: 2, InCondition: true, Verified: true, Violation: true})
	a.Observe(Observation{Round: HistogramBuckets + 6, Undecided: 1, Verified: true})
	a.Observe(Observation{Err: true, Executor: "early"})
	a.Merge(a.Snapshot())
	if err := a.Check(); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(100, func() { _ = a.Check() }); got != 0 {
		t.Errorf("Check allocates %.1f/op, want 0", got)
	}
	ok := a.Runs - a.Errors
	for _, tc := range []struct {
		name  string
		spoil func(*Accumulator)
		want  error
	}{
		{"by_executor", func(d *Accumulator) { d.ByExecutor["figure2"] = nil }, errNullGroup},
		{"by_crashes", func(d *Accumulator) { d.ByCrashes[1] = nil }, errNullGroup},
		{"by_label", func(d *Accumulator) { d.ByLabel["x"] = nil }, errNullGroup},
		{"negative runs", func(d *Accumulator) { d.Runs = -1 }, errNegative},
		{"negative undecided", func(d *Accumulator) { d.UndecidedRuns = -1 }, errNegative},
		{"negative bucket", func(d *Accumulator) { d.Rounds.Buckets[5], d.Rounds.Buckets[6] = -1, 1 }, errNegative},
		{"negative overflow", func(d *Accumulator) { d.Rounds.Overflow.Count = -1 }, errNegative},
		{"errors past runs", func(d *Accumulator) { d.Errors = d.Runs + 1 }, errErrors},
		{"verified past successful runs", func(d *Accumulator) { d.Verified = ok + 1 }, errVerified},
		{"violations past verified", func(d *Accumulator) { d.Violations = d.Verified + 1 }, errViolations},
		{"hits past successful runs", func(d *Accumulator) { d.ConditionHits = ok + 1 }, errHits},
		{"undecided past successful runs", func(d *Accumulator) { d.UndecidedRuns = ok + 1 }, errUndecided},
		{"histogram short", func(d *Accumulator) { d.Rounds.Buckets[2]-- }, errRounds},
		{"histogram long", func(d *Accumulator) { d.Rounds.Buckets[3]++ }, errRounds},
		{"overflow past successful runs", func(d *Accumulator) { d.Rounds.Overflow.Count = ok + 1 }, errRounds},
		{"histogram wrapping", func(d *Accumulator) {
			d.Rounds.Buckets[1], d.Rounds.Buckets[3] = math.MaxInt64, math.MaxInt64
		}, errRounds},
	} {
		d := a.Snapshot()
		tc.spoil(d)
		if err := d.Check(); err != tc.want {
			t.Errorf("%s: Check = %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestReset clears totals while keeping the accumulator usable.
func TestReset(t *testing.T) {
	a := NewAccumulator()
	a.Observe(Observation{Round: 1, Executor: "figure2"})
	a.Reset()
	if a.Runs != 0 || len(a.ByExecutor) != 0 {
		t.Fatalf("after Reset: %+v", a)
	}
	a.Observe(Observation{Round: 1, Executor: "figure2"})
	if a.Runs != 1 || a.ByExecutor["figure2"].Runs != 1 {
		t.Fatalf("post-Reset observe: %+v", a)
	}
}

// TestFaultTallyLazy pins the fault plane's accumulator semantics: the
// tally stays nil (and absent from the JSON) for fault-free streams,
// materializes on the first faulty run, folds only faulty runs, and
// merges nil-safely in both directions alongside UndecidedRuns.
func TestFaultTallyLazy(t *testing.T) {
	clean := NewAccumulator()
	clean.Observe(Observation{Round: 2, Messages: 10})
	if clean.Faults != nil || clean.UndecidedRuns != 0 {
		t.Fatalf("fault-free stream materialized a tally: %+v", clean)
	}
	if s := marshal(t, clean); strings.Contains(s, "faults") || strings.Contains(s, "undecided") {
		t.Errorf("fault-free JSON mentions faults: %s", s)
	}

	faulty := NewAccumulator()
	faulty.Observe(Observation{Round: 2, Messages: 8, Lost: 3, Delayed: 1, Undecided: 2})
	faulty.Observe(Observation{Round: 3, Messages: 9, Duplicated: 4})
	faulty.Observe(Observation{Round: 2, Messages: 12}) // fault-free run: not folded
	ft := faulty.Faults
	if ft == nil {
		t.Fatal("faulty stream left a nil tally")
	}
	if ft.Lost.Count != 2 || ft.Lost.Sum != 3 || ft.Duplicated.Sum != 4 || ft.Delayed.Sum != 1 {
		t.Errorf("tally folded wrong runs: %+v", ft)
	}
	if faulty.UndecidedRuns != 1 {
		t.Errorf("UndecidedRuns = %d, want 1", faulty.UndecidedRuns)
	}

	// nil ← non-nil and non-nil ← nil merges.
	m := NewAccumulator()
	m.Merge(faulty)
	m.Merge(clean)
	if m.Faults == nil || m.Faults.Lost.Sum != 3 || m.UndecidedRuns != 1 {
		t.Errorf("merged tally wrong: %+v undecided=%d", m.Faults, m.UndecidedRuns)
	}
	if faulty.Faults == m.Faults {
		t.Error("merge aliased the source tally instead of copying into its own")
	}
}
