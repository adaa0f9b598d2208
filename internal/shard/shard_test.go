package shard

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"kset/internal/stats"
)

// TestPlanPartition checks the partition law on a grid of (total, k):
// shard bounds are contiguous, disjoint, collectively exhaustive, and
// balanced to within one item.
func TestPlanPartition(t *testing.T) {
	for _, total := range []int64{0, 1, 2, 5, 7, 16, 100, 101, 1 << 40} {
		for _, k := range []int{1, 2, 3, 7, 16, 64} {
			p, err := NewPlan(total, k)
			if err != nil {
				t.Fatalf("NewPlan(%d, %d): %v", total, k, err)
			}
			next, minLen, maxLen := int64(0), int64(1)<<62, int64(0)
			for i := 0; i < k; i++ {
				lo, hi := p.Bounds(i)
				if lo != next || hi < lo {
					t.Fatalf("plan(%d,%d) shard %d = [%d,%d), want lo %d", total, k, i, lo, hi, next)
				}
				minLen, maxLen = min(minLen, hi-lo), max(maxLen, hi-lo)
				next = hi
			}
			if next != total {
				t.Fatalf("plan(%d,%d) covers [0,%d), want [0,%d)", total, k, next, total)
			}
			if maxLen-minLen > 1 {
				t.Fatalf("plan(%d,%d) unbalanced: shard lengths span [%d,%d]", total, k, minLen, maxLen)
			}
		}
	}
}

func TestNewPlanValidation(t *testing.T) {
	if _, err := NewPlan(-1, 2); err == nil {
		t.Error("NewPlan(-1, 2) accepted a negative total")
	}
	if _, err := NewPlan(5, 0); err == nil {
		t.Error("NewPlan(5, 0) accepted k=0")
	}
	// More shards than items: the surplus shards are empty, not an error.
	p, err := NewPlan(2, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 2; i < 5; i++ {
		if lo, hi := p.Bounds(i); lo != hi {
			t.Errorf("surplus shard %d = [%d,%d), want empty", i, lo, hi)
		}
	}
}

func TestBoundsPanicsOutsidePlan(t *testing.T) {
	p, _ := NewPlan(10, 3)
	for _, i := range []int{-1, 3} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Bounds(%d) did not panic", i)
				}
			}()
			p.Bounds(i)
		}()
	}
}

// sampleCheckpoint builds a non-trivial, valid checkpoint: a cursor mid
// plan plus an accumulator with histogram, summaries and breakdowns.
func sampleCheckpoint() Checkpoint {
	acc := stats.NewAccumulator()
	acc.Observe(stats.Observation{Round: 2, Messages: 36, Decided: 6, InCondition: true, Executor: "figure2", Label: "a"})
	acc.Observe(stats.Observation{Round: 3, Messages: 30, Crashes: 1, Decided: 5, Executor: "early"})
	acc.Observe(stats.Observation{Err: true, Executor: "early"})
	return Checkpoint{Version: Version, Cursor: Cursor{Lo: 10, Hi: 30}, RunsDone: 3, Stats: acc}
}

func TestCheckpointRoundTrip(t *testing.T) {
	cp := sampleCheckpoint()
	data, err := cp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	re, err := got.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, re) {
		t.Fatalf("decode→encode not byte-identical:\n%s\nvs\n%s", data, re)
	}
	if got.Cursor != cp.Cursor || got.RunsDone != cp.RunsDone || got.Stats.Runs != 3 {
		t.Fatalf("round-trip mangled the envelope: %+v", got)
	}
}

func TestCheckpointValidate(t *testing.T) {
	// n errored runs: the one accumulator of n runs that needs no
	// histogram to pass Check.
	runs := func(n int64) *stats.Accumulator { return &stats.Accumulator{Runs: n, Errors: n} }
	cases := []struct {
		name string
		cp   Checkpoint
		ok   bool
	}{
		{"valid empty", Checkpoint{Version: Version, Cursor: Cursor{Lo: 0, Hi: 0}}, true},
		{"valid full", Checkpoint{Version: Version, Cursor: Cursor{Lo: 2, Hi: 7}, RunsDone: 5, Stats: runs(5)}, true},
		{"valid empty stats", Checkpoint{Version: Version, Cursor: Cursor{Lo: 2, Hi: 7}, Stats: runs(0)}, true},
		{"version zero", Checkpoint{Cursor: Cursor{Lo: 0, Hi: 1}}, false},
		{"version future", Checkpoint{Version: Version + 1, Cursor: Cursor{Lo: 0, Hi: 1}}, false},
		{"negative lo", Checkpoint{Version: Version, Cursor: Cursor{Lo: -1, Hi: 1}}, false},
		{"hi below lo", Checkpoint{Version: Version, Cursor: Cursor{Lo: 3, Hi: 2}}, false},
		{"negative runs", Checkpoint{Version: Version, Cursor: Cursor{Lo: 0, Hi: 5}, RunsDone: -1}, false},
		{"runs past cursor", Checkpoint{Version: Version, Cursor: Cursor{Lo: 0, Hi: 5}, RunsDone: 6, Stats: runs(6)}, false},
		{"runs without stats", Checkpoint{Version: Version, Cursor: Cursor{Lo: 2, Hi: 7}, RunsDone: 5}, false},
		{"stats short of runs", Checkpoint{Version: Version, Cursor: Cursor{Lo: 0, Hi: 1000}, RunsDone: 1000, Stats: runs(50)}, false},
		{"stats past runs", Checkpoint{Version: Version, Cursor: Cursor{Lo: 0, Hi: 5}, RunsDone: 2, Stats: runs(3)}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cp.Validate()
			if tc.ok && err != nil {
				t.Fatalf("Validate() = %v, want nil", err)
			}
			if !tc.ok {
				if err == nil {
					t.Fatal("Validate() accepted an invalid checkpoint")
				}
				if !errors.Is(err, ErrBadCheckpoint) {
					t.Fatalf("error %v does not wrap ErrBadCheckpoint", err)
				}
				if _, encErr := tc.cp.Encode(); encErr == nil {
					t.Fatal("Encode() persisted an invalid checkpoint")
				}
			}
		})
	}
}

// TestDecodeRejects pins the strict-decode contract: every malformed,
// skewed or inconsistent input errors with ErrBadCheckpoint.
func TestDecodeRejects(t *testing.T) {
	valid, err := sampleCheckpoint().Encode()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		data string
	}{
		{"empty", ""},
		{"garbage", "not json"},
		{"truncated", string(valid[:len(valid)/2])},
		{"trailing data", string(valid) + "{}"},
		{"trailing garbage", string(valid) + "x"},
		{"unknown field", `{"version":1,"cursor":{"lo":0,"hi":1},"runs_done":0,"surprise":1}`},
		{"version skew", strings.Replace(string(valid), `"version":1`, `"version":99`, 1)},
		{"bad cursor", `{"version":1,"cursor":{"lo":5,"hi":2},"runs_done":0}`},
		{"runs past cursor", `{"version":1,"cursor":{"lo":0,"hi":2},"runs_done":3}`},
		{"runs without stats", `{"version":1,"cursor":{"lo":0,"hi":2},"runs_done":1}`},
		{"wrong type", `{"version":"1","cursor":{"lo":0,"hi":1},"runs_done":0}`},
		{"null", `null`},
		{"array", `[1,2]`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Decode([]byte(tc.data)); !errors.Is(err, ErrBadCheckpoint) {
				t.Fatalf("Decode(%q) = %v, want ErrBadCheckpoint", tc.data, err)
			}
		})
	}
	if _, err := Decode(valid); err != nil {
		t.Fatalf("Decode(valid) = %v", err)
	}
}

// TestEncodeMatchesReflection checks the appended envelope against
// encoding/json over a method-free mirror of Checkpoint: the empty
// checkpoint without stats and one carrying a filled snapshot. The
// snapshot's own bytes are FuzzAccumulatorJSON's to pin.
func TestEncodeMatchesReflection(t *testing.T) {
	type mirror struct {
		Version  int             `json:"version"`
		Cursor   Cursor          `json:"cursor"`
		RunsDone int64           `json:"runs_done"`
		Stats    json.RawMessage `json:"stats,omitempty"`
	}
	acc := stats.NewAccumulator()
	for i := 0; i < 9; i++ {
		acc.Observe(stats.Observation{Round: 1 + i%3, Crashes: i % 4, Executor: "figure2", Label: "<a&b>", Lost: int64(i % 2)})
	}
	for _, c := range []Checkpoint{
		{Version: Version, Cursor: Cursor{Lo: 3, Hi: 40}},
		{Version: Version, Cursor: Cursor{Lo: 0, Hi: 1 << 40}, RunsDone: 9, Stats: acc},
	} {
		got, err := c.Encode()
		if err != nil {
			t.Fatal(err)
		}
		m := mirror{Version: c.Version, Cursor: c.Cursor, RunsDone: c.RunsDone}
		if c.Stats != nil {
			m.Stats = c.Stats.AppendJSON(nil)
		}
		want, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("Encode differs from reflection:\n got: %s\nwant: %s", got, want)
		}
	}
}
