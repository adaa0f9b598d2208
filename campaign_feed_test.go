package kset

import (
	"context"
	"encoding/json"
	"errors"
	"sync/atomic"
	"testing"
)

// listSource is a ScenarioSource this package did not build — RunSource
// cannot pull it by range — sized or not; it counts the scenarios it is
// made to yield.
type listSource struct {
	scs    []Scenario
	sized  bool
	yields *atomic.Int64
}

func (l listSource) Size() (int64, bool) { return int64(len(l.scs)), l.sized }
func (l listSource) ForEach(yield func(Scenario) bool) {
	for _, sc := range l.scs {
		if l.yields != nil {
			l.yields.Add(1)
		}
		if !yield(sc) {
			return
		}
	}
}

// materialize collects a source's stream.
func materialize(src ScenarioSource) []Scenario {
	var scs []Scenario
	src.ForEach(func(sc Scenario) bool {
		scs = append(scs, sc)
		return true
	})
	return scs
}

func feedJSON(t *testing.T, st *CampaignStats, err error) string {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestCampaignFeeds is the two feeds' specification. Every builder and
// combinator, and a range of each, pulled through RunSource (and, as a
// materialized slice, through RunCampaign) at several worker counts gives
// the byte-identical stats of the same scenarios pushed through NewCampaign
// + SubmitAll; sources RunSource cannot cut into ranges complete on the
// queue; cancellation inside a claim stops the campaign with the stats of
// what ran; and claims bound the seek work a stream costs.
func TestCampaignFeeds(t *testing.T) {
	p := Params{N: 4, T: 2, K: 2, D: 1, L: 1}
	cond, err := NewMaxCondition(p.N, 3, p.X(), p.L)
	if err != nil {
		t.Fatal(err)
	}
	systems := map[int]*System{}
	at := func(workers int) *System { // one System per worker count
		if systems[workers] == nil {
			sys, err := New(WithParams(p), WithCondition(cond), WithWorkers(workers))
			if err != nil {
				t.Fatal(err)
			}
			systems[workers] = sys
		}
		return systems[workers]
	}
	ctx := context.Background()
	lit := []Vector{
		VectorOf(1, 2, 3, 1), VectorOf(2, 2, 2, 2), VectorOf(3, 1, 1, 3),
		VectorOf(1, 1, 1, 1), VectorOf(3, 3, 3, 3),
	}
	crashes := RandomCrashFamily(5, p.N, p.T, p.RMax(), 3)
	mixed := []Scenario{
		{Input: lit[0], Label: "a"},
		{Input: lit[1], FP: crashes.Pattern(1), Executor: EarlyDeciding},
		{Input: lit[2], Executor: Classical, Label: "b"},
		{Input: VectorOf(1, 2)}, // wrong length: a per-run error, counted
		{Input: lit[4], Faults: &FaultPlan{Seed: 3, Default: LinkFaults{Loss: 0.3}}},
	}
	sources := []struct {
		name string
		src  ScenarioSource
	}{
		{"ScenariosOf", ScenariosOf(mixed...)},
		{"Inputs", Inputs(lit...)},
		{"ExhaustiveInputs", ExhaustiveInputs(p.N, 3)},
		{"ConditionMembers", ConditionMembers(cond)},
		{"RandomInputs", RandomInputs(7, p.N, 3, 61)},
		{"CrossFailures", CrossFailures(Inputs(lit...), NoFailures(), crashes.Pattern(0))},
		{"CrossExecutors", CrossExecutors(RandomInputs(3, p.N, 3, 9), Figure2, EarlyDeciding, Classical, Asynchronous)},
		{"CrossFaults", CrossFaults(ExhaustiveInputs(p.N, 2), nil, &FaultPlan{Seed: 5, Default: LinkFaults{Loss: 0.2}})},
		{"Labeled", Labeled(Inputs(lit...), "job")},
		{"FailureSchedules", FailureSchedules(RandomInputs(13, p.N, 3, 10), crashes)},
		{"FaultSchedules", FaultSchedules(FailureSchedules(RandomInputs(5, p.N, 3, 6), crashes), StormFamily(11, 3, 2, 0.3))},
		{"Concat", Concat(ExhaustiveInputs(p.N, 2), RandomInputs(9, p.N, 3, 5), Inputs(lit...))},
		{"empty", Inputs()},
	}
	for _, tc := range sources {
		size, ok := tc.src.Size()
		if !ok {
			t.Fatalf("%s: unsized", tc.name)
		}
		for _, src := range []ScenarioSource{tc.src, Range(tc.src, size/3, size-size/4)} {
			scs := materialize(src)
			if n, _ := src.Size(); int64(len(scs)) != n {
				t.Fatalf("%s: %d scenarios, Size() = %d", tc.name, len(scs), n)
			}
			camp := at(1).NewCampaign(ctx, VerifyRuns())
			if err := camp.SubmitAll(scs); err != nil {
				t.Fatal(err)
			}
			st, err := camp.Wait()
			want := feedJSON(t, st, err)
			if st.Runs != int64(len(scs)) {
				t.Fatalf("%s: pushed %d scenarios, %d ran", tc.name, len(scs), st.Runs)
			}
			for _, w := range []int{1, 2, 4, 7} {
				st, err := at(w).RunSource(ctx, src, VerifyRuns())
				if got := feedJSON(t, st, err); got != want {
					t.Errorf("%s: RunSource at %d workers\n%s\nwant\n%s", tc.name, w, got, want)
				}
				st, err = at(w).RunCampaign(ctx, scs, VerifyRuns())
				if got := feedJSON(t, st, err); got != want {
					t.Errorf("%s: RunCampaign at %d workers\n%s\nwant\n%s", tc.name, w, got, want)
				}
			}
		}
	}

	// What RunSource cannot cut into ranges goes through the queue: a
	// foreign source, sized or not, and a combinator left unsized by one.
	scs := materialize(CrossExecutors(RandomInputs(3, p.N, 3, 40), Figure2, Classical))
	st, err := at(1).RunCampaign(ctx, scs)
	want := feedJSON(t, st, err)
	for name, src := range map[string]ScenarioSource{
		"foreign sized":   listSource{scs: scs, sized: true},
		"foreign unsized": listSource{scs: scs},
		"unsized concat":  Concat(ScenariosOf(scs[:7]...), listSource{scs: scs[7:30]}, ScenariosOf(scs[30:]...)),
	} {
		for _, w := range []int{1, 4} {
			st, err := at(w).RunSource(ctx, src)
			if got := feedJSON(t, st, err); got != want {
				t.Errorf("%s at %d workers\n%s\nwant\n%s", name, w, got, want)
			}
		}
	}

	// Cancellation inside a claim: the runs before it are in the stats, the
	// rest of the claim — and of the stream — is not, and nothing ran as an
	// error. The stream is long enough that the other workers' seeks (2⁴⁰
	// draws and up) would not end: cancellation has to reach into them.
	inner := RandomInputs(3, p.N, 3, 1<<40).(funcSource)
	for _, w := range []int{1, 2, 7} {
		cctx, cancel := context.WithCancel(ctx)
		src := funcSource{size: inner.size, sized: true, ranged: func(ctx context.Context, g *genStore, lo, hi int64, yield func(Scenario) bool) {
			i := lo
			inner.ranged(ctx, g, lo, hi, func(sc Scenario) bool {
				if i == 100 {
					cancel()
				}
				i++
				return yield(sc)
			})
		}}
		st, err := at(w).RunSource(cctx, src)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled at %d workers: err = %v", w, err)
		}
		if st.Runs < 100 || st.Runs >= inner.size || st.Errors != 0 {
			t.Errorf("cancelled at %d workers: %d runs, %d errors; want the ≥ 100 runs before the cancellation, no errors", w, st.Runs, st.Errors)
		}
	}

	// Every claim seeks, and the worst seek replays: a foreign base under a
	// combinator is walked from its start to the claim's end. claimLen's
	// bound — at most claimsPerWorker·workers claims, so (claims+1)/2 stream
	// lengths of generation — must hold whatever the worker count; the
	// slack below is the claims' rounding (together they overshoot the
	// stream by under one index each, and each may straddle a base
	// scenario).
	base := listSource{scs: materialize(RandomInputs(21, p.N, 3, 300)), sized: true, yields: new(atomic.Int64)}
	crossed := CrossFailures(base, NoFailures(), crashes.Pattern(0), crashes.Pattern(2))
	for _, w := range []int{1, 2, 4, 7} {
		base.yields.Store(0)
		st, err := at(w).RunSource(ctx, crossed)
		if err != nil || st.Runs != 900 {
			t.Fatalf("crossed foreign base at %d workers: %v, %d runs", w, err, st.Runs)
		}
		claims := int64(1)
		if w > 1 {
			claims = claimsPerWorker * int64(w)
		}
		if got, bound := base.yields.Load(), (300+claims)*(claims+1)/2+claims; got < 300 || got > bound {
			t.Errorf("%d workers: the base yielded %d scenarios for a 300-scenario stream, bound %d", w, got, bound)
		}
	}
}
