package stats

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"strings"
	"testing"
)

// randomObservation draws one observation exercising every accumulator
// field: errors, verdicts, faults, all three breakdowns, and rounds both
// inside and beyond the tracked histogram range.
func randomObservation(rng *rand.Rand) Observation {
	o := Observation{
		Round:    rng.Intn(HistogramBuckets + 20),
		Messages: int64(rng.Intn(500)),
		Crashes:  rng.Intn(4),
		Decided:  rng.Intn(8),
	}
	switch rng.Intn(4) {
	case 0:
		o.Executor = "figure2"
	case 1:
		o.Executor = "early"
	case 2:
		o.Executor = "classical"
	}
	if rng.Intn(3) == 0 {
		o.Label = "sweep"
	}
	if rng.Intn(10) == 0 {
		o.Err = true
	}
	if rng.Intn(2) == 0 {
		o.InCondition = true
	}
	if rng.Intn(3) == 0 {
		o.Verified = true
		o.Violation = rng.Intn(20) == 0
	}
	if rng.Intn(4) == 0 {
		o.Lost = int64(rng.Intn(5))
		o.Delayed = int64(rng.Intn(5))
		o.Undecided = rng.Intn(2)
	}
	return o
}

// fill feeds count random observations into a fresh accumulator.
func fill(seed int64, count int) *Accumulator {
	rng := rand.New(rand.NewSource(seed))
	acc := NewAccumulator()
	for i := 0; i < count; i++ {
		acc.Observe(randomObservation(rng))
	}
	return acc
}

// TestAccumulatorJSONRoundTrip checks the wire format is lossless:
// encode → decode → encode is byte-identical, for accumulators with
// overflowed rounds, fault tallies and all three breakdowns populated.
func TestAccumulatorJSONRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		acc := fill(seed, 400)
		first, err := json.Marshal(acc)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		var decoded Accumulator
		if err := json.Unmarshal(first, &decoded); err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		second, err := json.Marshal(&decoded)
		if err != nil {
			t.Fatalf("re-marshal: %v", err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("seed %d: round trip not byte-identical:\n first: %s\nsecond: %s", seed, first, second)
		}
	}
}

// TestHistogramJSONRoundTrip pins the trimmed-bucket encoding: tracked
// buckets, overflow summary and the empty histogram all survive decode.
func TestHistogramJSONRoundTrip(t *testing.T) {
	var h Histogram
	for _, r := range []int{0, 1, 1, 7, HistogramBuckets - 1, HistogramBuckets + 5, 200} {
		h.Observe(r)
	}
	for _, hist := range []Histogram{h, {}} {
		raw, err := json.Marshal(hist)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		var back Histogram
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		if back != hist {
			t.Fatalf("round trip changed histogram: %+v != %+v", back, hist)
		}
	}
}

// TestHistogramRefusesLongCounts: a counts list as long as the tracked
// range decodes, one count more is an error, alone or inside an
// accumulator, instead of a histogram that lost its last rounds.
func TestHistogramRefusesLongCounts(t *testing.T) {
	counts := func(k int) string {
		return "[" + strings.TrimSuffix(strings.Repeat("1,", k), ",") + "]"
	}
	var h Histogram
	if err := json.Unmarshal([]byte(`{"counts":`+counts(HistogramBuckets)+`}`), &h); err != nil || h.Buckets[HistogramBuckets-1] != 1 {
		t.Fatalf("%d counts: %v, last bucket %d", HistogramBuckets, err, h.Buckets[HistogramBuckets-1])
	}
	if err := json.Unmarshal([]byte(`{"counts":`+counts(HistogramBuckets+1)+`}`), &h); err == nil {
		t.Errorf("%d counts decoded", HistogramBuckets+1)
	}
	var acc Accumulator
	body := `{"runs":65,"rounds":{"counts":` + counts(HistogramBuckets+1) + `}}`
	if err := json.Unmarshal([]byte(body), &acc); err == nil {
		t.Errorf("an accumulator with %d counts decoded", HistogramBuckets+1)
	}
}

// TestMergeAfterDecode checks the checkpointing contract: decoding two
// shards from their wire form and merging them yields the same
// accumulator — byte for byte — as merging the originals in memory.
func TestMergeAfterDecode(t *testing.T) {
	a, b := fill(11, 300), fill(12, 500)

	direct := a.Snapshot()
	direct.Merge(b)

	var da, db Accumulator
	for _, pair := range []struct {
		src *Accumulator
		dst *Accumulator
	}{{a, &da}, {b, &db}} {
		raw, err := json.Marshal(pair.src)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		if err := json.Unmarshal(raw, pair.dst); err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
	}
	da.Merge(&db)

	want, err := json.Marshal(direct)
	if err != nil {
		t.Fatalf("marshal direct: %v", err)
	}
	got, err := json.Marshal(&da)
	if err != nil {
		t.Fatalf("marshal decoded: %v", err)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("merge-after-decode diverged:\n want: %s\n  got: %s", want, got)
	}
}

// TestSnapshotIsolation checks a snapshot is a deep copy: observing into
// the original afterwards leaves the snapshot untouched.
func TestSnapshotIsolation(t *testing.T) {
	acc := fill(21, 100)
	snap := acc.Snapshot()
	before, err := json.Marshal(snap)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 200; i++ {
		acc.Observe(randomObservation(rng))
	}
	after, err := json.Marshal(snap)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("snapshot mutated by later observations:\nbefore: %s\n after: %s", before, after)
	}
	if snap.Runs == acc.Runs {
		t.Fatalf("original did not advance past the snapshot")
	}
}

// The mirror types carry the accumulator's JSON tags and no methods, so
// encoding/json encodes them by reflection alone: the reference AppendJSON
// must match byte for byte.
type (
	mirrorHistogram struct {
		Counts   []int64        `json:"counts"`
		Overflow *mirrorSummary `json:"overflow,omitempty"`
	}
	mirrorSummary struct {
		Count int64 `json:"count"`
		Sum   int64 `json:"sum"`
		Min   int64 `json:"min"`
		Max   int64 `json:"max"`
	}
	mirrorGroup struct {
		Runs          int64         `json:"runs"`
		Errors        int64         `json:"errors,omitempty"`
		ConditionHits int64         `json:"condition_hits,omitempty"`
		Violations    int64         `json:"violations,omitempty"`
		Messages      int64         `json:"messages"`
		Rounds        mirrorSummary `json:"rounds"`
	}
	mirrorFaults struct {
		Lost       mirrorSummary `json:"lost"`
		Delayed    mirrorSummary `json:"delayed"`
		Duplicated mirrorSummary `json:"duplicated"`
	}
	mirrorAccumulator struct {
		Runs          int64                   `json:"runs"`
		Errors        int64                   `json:"errors"`
		ConditionHits int64                   `json:"condition_hits"`
		Verified      int64                   `json:"verified"`
		Violations    int64                   `json:"violations"`
		Rounds        mirrorHistogram         `json:"rounds"`
		Messages      mirrorSummary           `json:"messages"`
		Crashes       mirrorSummary           `json:"crashes"`
		UndecidedRuns int64                   `json:"undecided_runs,omitempty"`
		Faults        *mirrorFaults           `json:"faults,omitempty"`
		ByExecutor    map[string]*mirrorGroup `json:"by_executor,omitempty"`
		ByCrashes     map[int]*mirrorGroup    `json:"by_crashes,omitempty"`
		ByLabel       map[string]*mirrorGroup `json:"by_label,omitempty"`
	}
)

// mirrorOf copies a into its method-free mirror.
func mirrorOf(a *Accumulator) mirrorAccumulator {
	m := mirrorAccumulator{
		Runs: a.Runs, Errors: a.Errors, ConditionHits: a.ConditionHits,
		Verified: a.Verified, Violations: a.Violations,
		Rounds:        mirrorHistogram{Counts: a.Rounds.Slice()},
		Messages:      mirrorSummary(a.Messages),
		Crashes:       mirrorSummary(a.Crashes),
		UndecidedRuns: a.UndecidedRuns,
		ByExecutor:    mirrorGroups(a.ByExecutor),
		ByCrashes:     mirrorGroups(a.ByCrashes),
		ByLabel:       mirrorGroups(a.ByLabel),
	}
	if a.Rounds.Overflow.Count > 0 {
		o := mirrorSummary(a.Rounds.Overflow)
		m.Rounds.Overflow = &o
	}
	if f := a.Faults; f != nil {
		m.Faults = &mirrorFaults{mirrorSummary(f.Lost), mirrorSummary(f.Delayed), mirrorSummary(f.Duplicated)}
	}
	return m
}

// mirrorGroups copies one breakdown, nil groups and nil maps included.
func mirrorGroups[K comparable](groups map[K]*Group) map[K]*mirrorGroup {
	if groups == nil {
		return nil
	}
	out := make(map[K]*mirrorGroup, len(groups))
	for k, g := range groups {
		if g != nil {
			out[k] = &mirrorGroup{g.Runs, g.Errors, g.ConditionHits, g.Violations, g.Messages, mirrorSummary(g.Rounds)}
		} else {
			out[k] = nil
		}
	}
	return out
}

// checkEncoding fails unless AppendJSON, and MarshalJSON through
// encoding/json, write exactly what reflection writes for the mirror.
func checkEncoding(t *testing.T, a *Accumulator) {
	t.Helper()
	want, err := json.Marshal(mirrorOf(a))
	if err != nil {
		t.Fatalf("marshal mirror: %v", err)
	}
	if got := a.AppendJSON(nil); !bytes.Equal(got, want) {
		t.Fatalf("AppendJSON differs from reflection:\n got: %s\nwant: %s", got, want)
	}
	if got, err := json.Marshal(a); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("json.Marshal differs from reflection (%v):\n got: %s\nwant: %s", err, got, want)
	}
	got, err := json.Marshal(a.Rounds)
	want, _ = json.Marshal(mirrorOf(a).Rounds)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("Histogram.MarshalJSON differs from reflection (%v):\n got: %s\nwant: %s", err, got, want)
	}
}

// TestAppendJSONMatchesReflection checks the appender on filled
// accumulators (overflowed rounds, fault tallies, all three breakdowns),
// on the empty one, and on keys whose order or escaping differ from the
// obvious: crash counts sorted as strings, labels with HTML-sensitive
// bytes, a line separator and invalid UTF-8.
func TestAppendJSONMatchesReflection(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		checkEncoding(t, fill(seed, 400))
	}
	checkEncoding(t, NewAccumulator())
	acc := NewAccumulator()
	for i, label := range []string{"<b>&amp;", `q"uo\te`, "line\u2028sep\u2029", "bad\xffutf8\xc3", "ctl\x00\x1f\b\f\n\r\t\x7f", "é✓"} {
		for _, crashes := range []int{-3, 1, 2, 10} {
			acc.Observe(Observation{Round: 2 + i, Crashes: crashes, Executor: label, Label: label, Lost: int64(i)})
		}
	}
	checkEncoding(t, acc)
}

// FuzzAccumulatorJSON decodes arbitrary bytes into an accumulator and
// checks that AppendJSON writes what reflection writes for it. The seeds
// cover escaped labels, crash keys sorted as strings, an overflowed
// histogram, nil and non-nil faults, empty breakdowns and nil groups.
func FuzzAccumulatorJSON(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"runs":3,"by_label":{"<a&b>":{"runs":1},"\"q\"":{"runs":1},"\u2028":{"runs":1},"�":{"runs":1}}}`))
	f.Add([]byte("{\"by_label\":{\"bad\xff\":{\"runs\":1}},\"by_executor\":{\"x\xc3\":{\"runs\":2,\"errors\":1}}}"))
	f.Add([]byte(`{"by_crashes":{"-3":{"runs":1},"1":{"runs":2},"2":{"runs":3},"10":{"runs":4,"condition_hits":1,"violations":1}}}`))
	f.Add([]byte(`{"rounds":{"counts":[0,4,1],"overflow":{"count":2,"sum":300,"min":100,"max":200}}}`))
	f.Add([]byte(`{"faults":null,"by_executor":{},"by_crashes":{},"by_label":{}}`))
	f.Add([]byte(`{"faults":{"lost":{"count":1,"sum":3,"min":3,"max":3}},"undecided_runs":1}`))
	f.Add([]byte(`{"by_executor":{"figure2":null}}`))
	f.Add(fill(7, 300).AppendJSON(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		var acc Accumulator
		if json.Unmarshal(data, &acc) != nil {
			t.Skip()
		}
		checkEncoding(t, &acc)
	})
}

// TestAppendJSONAllocFree checks the appender allocates nothing into a
// buffer with room: sorting the breakdown keys stays on the stack.
func TestAppendJSONAllocFree(t *testing.T) {
	acc := fill(3, 400)
	buf := make([]byte, 0, 4096)
	if n := testing.AllocsPerRun(50, func() { buf = acc.AppendJSON(buf[:0]) }); n != 0 {
		t.Fatalf("AppendJSON allocates %.1f times per call into a sized buffer", n)
	}
}
