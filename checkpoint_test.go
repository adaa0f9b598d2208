package kset_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"kset"
	"kset/internal/stats"
)

// checkpointSystem builds the system and source every checkpoint test
// shares: a 4-process condition system over a cross-product sweep large
// enough to cut at interesting places (5 inputs × 4 patterns × 2
// executors = 40 runs, 8 per input). opts go to the system.
func checkpointSystem(t *testing.T, opts ...kset.Option) (*kset.System, kset.ScenarioSource) {
	t.Helper()
	p := kset.Params{N: 4, T: 2, K: 2, D: 1, L: 1}
	cond, err := kset.NewMaxCondition(p.N, 3, p.X(), p.L)
	if err != nil {
		t.Fatal(err)
	}
	sys := testSystem(t, append([]kset.Option{kset.WithParams(p), kset.WithCondition(cond)}, opts...)...)
	src := kset.CrossExecutors(
		kset.FailureSchedules(
			kset.RandomInputs(21, p.N, 3, 5),
			kset.RandomCrashFamily(23, p.N, p.T, p.RMax(), 4),
		),
		kset.Figure2, kset.EarlyDeciding,
	)
	return sys, src
}

// marshal renders campaign stats as canonical JSON.
func marshal(t *testing.T, st *kset.CampaignStats) []byte {
	t.Helper()
	data, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// checkpointWorkers and checkpointEvery are the grid the barrier tests
// cut a stream of total runs over: no chunking, every chunk size from one
// run to more than the stream — 7 cuts the 40-run stream mid-input, at 8
// runs per input — at worker counts below, at and above the chunk sizes.
var checkpointWorkers = []int{1, 3, 8}

func checkpointEvery(total int64) []int64 { return []int64{0, 1, 7, 16, total, total + 5} }

// TestRunCheckpointedMatchesUninterrupted: chunked execution with
// checkpoint emission is invisible in the result — any chunk size, at any
// worker count, yields stats JSON byte-identical to one straight
// RunSource — and each checkpoint's stats are exactly those of the prefix
// it covers, so the barrier parks every worker before the shards are read.
func TestRunCheckpointedMatchesUninterrupted(t *testing.T) {
	_, src := checkpointSystem(t)
	total, _ := src.Size()
	prefix := func(sys *kset.System, done int64) []byte {
		st, err := sys.RunSource(context.Background(), kset.Range(src, 0, done), kset.VerifyRuns())
		if err != nil {
			t.Fatal(err)
		}
		return marshal(t, st)
	}
	for _, workers := range checkpointWorkers {
		sys, _ := checkpointSystem(t, kset.WithWorkers(workers))
		want := prefix(sys, total)
		for _, every := range checkpointEvery(total) {
			emitted := 0
			st, err := sys.RunCheckpointed(context.Background(), src, nil, every,
				func(cp kset.Checkpoint) error {
					emitted++
					if err := cp.Validate(); err != nil {
						return err
					}
					if cp.Cursor.Len() != total {
						t.Fatalf("workers=%d every=%d: checkpoint cursor %+v, want len %d", workers, every, cp.Cursor, total)
					}
					if got, want := marshal(t, kset.CampaignStatsOf(cp.Stats)), prefix(sys, cp.RunsDone); string(got) != string(want) {
						t.Fatalf("workers=%d every=%d: checkpoint at %d differs from its prefix\n%s\nvs\n%s", workers, every, cp.RunsDone, got, want)
					}
					return nil
				}, kset.VerifyRuns())
			if err != nil {
				t.Fatalf("workers=%d every=%d: %v", workers, every, err)
			}
			if got := marshal(t, st); string(got) != string(want) {
				t.Fatalf("workers=%d every=%d: chunked stats differ\n%s\nvs\n%s", workers, every, got, want)
			}
			wantEmits := 1
			if every > 0 && every < total {
				wantEmits = int((total + every - 1) / every)
			}
			if emitted != wantEmits {
				t.Fatalf("workers=%d every=%d: %d checkpoints emitted, want %d", workers, every, emitted, wantEmits)
			}
		}
	}
}

// TestCheckpointKillResume is the crash-tolerance contract: run to ~40%,
// "kill" the process there, carry only the checkpoint's serialized bytes
// into a freshly constructed system, resume, and get stats JSON
// byte-identical to the uninterrupted run.
func TestCheckpointKillResume(t *testing.T) {
	sys, src := checkpointSystem(t)
	base, err := sys.RunSource(context.Background(), src, kset.VerifyRuns())
	if err != nil {
		t.Fatal(err)
	}
	want := marshal(t, base)
	total, _ := src.Size()
	every := total * 2 / 5 // first checkpoint lands at ~40%

	killed := errors.New("simulated crash")
	var persisted []byte
	_, err = sys.RunCheckpointed(context.Background(), src, nil, every,
		func(cp kset.Checkpoint) error {
			data, err := kset.EncodeCheckpoint(cp)
			if err != nil {
				return err
			}
			persisted = data
			return killed // die right after the first persist
		}, kset.VerifyRuns())
	if !errors.Is(err, killed) {
		t.Fatalf("kill run: err = %v, want the sink's error", err)
	}
	if persisted == nil {
		t.Fatal("no checkpoint persisted before the kill")
	}

	// "Fresh process": new system, new source value, only the bytes carry
	// over. The source is rebuilt from the same construction parameters,
	// exactly as a restarted worker would rebuild it.
	sys2, src2 := checkpointSystem(t)
	cp, err := kset.DecodeCheckpoint(persisted)
	if err != nil {
		t.Fatal(err)
	}
	if cp.RunsDone != every {
		t.Fatalf("resumed checkpoint covers %d runs, want %d", cp.RunsDone, every)
	}
	st, err := sys2.RunCheckpointed(context.Background(), src2, &cp, every, nil, kset.VerifyRuns())
	if err != nil {
		t.Fatal(err)
	}
	if got := marshal(t, st); string(got) != string(want) {
		t.Fatalf("resumed stats differ from uninterrupted run\n%s\nvs\n%s", got, want)
	}
}

// TestResumeFromEveryCheckpoint resumes from each checkpoint a chunked
// run emits — every cut position, over the worker × chunk-size grid — in
// the same chunks, and checks each resume reproduces the uninterrupted
// result byte for byte.
func TestResumeFromEveryCheckpoint(t *testing.T) {
	sys, src := checkpointSystem(t)
	base, err := sys.RunSource(context.Background(), src, kset.VerifyRuns())
	if err != nil {
		t.Fatal(err)
	}
	want := marshal(t, base)
	total, _ := src.Size()
	for _, workers := range checkpointWorkers {
		sys, _ := checkpointSystem(t, kset.WithWorkers(workers))
		for _, every := range checkpointEvery(total) {
			var cuts [][]byte
			if _, err := sys.RunCheckpointed(context.Background(), src, nil, every,
				func(cp kset.Checkpoint) error {
					data, err := kset.EncodeCheckpoint(cp)
					if err != nil {
						return err
					}
					cuts = append(cuts, data)
					return nil
				}, kset.VerifyRuns()); err != nil {
				t.Fatal(err)
			}
			if every > 0 && every < total && len(cuts) < 2 {
				t.Fatalf("workers=%d every=%d: only %d checkpoints emitted", workers, every, len(cuts))
			}
			for i, data := range cuts {
				cp, err := kset.DecodeCheckpoint(data)
				if err != nil {
					t.Fatalf("workers=%d every=%d: checkpoint %d: %v", workers, every, i, err)
				}
				st, err := sys.RunCheckpointed(context.Background(), src, &cp, every, nil, kset.VerifyRuns())
				if err != nil {
					t.Fatalf("workers=%d every=%d: resume from checkpoint %d: %v", workers, every, i, err)
				}
				if got := marshal(t, st); string(got) != string(want) {
					t.Fatalf("workers=%d every=%d: resume from checkpoint %d differs\n%s\nvs\n%s", workers, every, i, got, want)
				}
			}
		}
	}
}

// settledGoroutines waits for the goroutine count to fall to want, which
// a returned call's workers reach once they have left their functions,
// and returns the last count read.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); n > want && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	return n
}

// TestCheckpointSinkErrorStopsAtPrefix: a sink error ends the run at the
// barrier of the checkpoint it refused. The returned stats are exactly
// that checkpoint's — the emitted prefix, no run past it — and no worker
// goroutine outlives the call.
func TestCheckpointSinkErrorStopsAtPrefix(t *testing.T) {
	refused := errors.New("disk full")
	for _, workers := range checkpointWorkers {
		sys, src := checkpointSystem(t, kset.WithWorkers(workers))
		for _, stopAt := range []int{1, 3} {
			before := runtime.NumGoroutine()
			var last kset.Checkpoint
			emitted := 0
			st, err := sys.RunCheckpointed(context.Background(), src, nil, 7, func(cp kset.Checkpoint) error {
				if emitted++; emitted == stopAt {
					last = cp
					return refused
				}
				return nil
			}, kset.VerifyRuns())
			if !errors.Is(err, refused) || emitted != stopAt {
				t.Fatalf("workers=%d: err = %v after %d checkpoints, want the sink's error after %d", workers, err, emitted, stopAt)
			}
			if st.Runs != last.RunsDone || st.Runs != int64(7*stopAt) {
				t.Fatalf("workers=%d: %d runs returned, the refused checkpoint covers %d", workers, st.Runs, last.RunsDone)
			}
			if got, want := marshal(t, st), marshal(t, kset.CampaignStatsOf(last.Stats)); string(got) != string(want) {
				t.Fatalf("workers=%d: returned stats differ from the refused checkpoint's\n%s\nvs\n%s", workers, got, want)
			}
			if after := settledGoroutines(before); after > before {
				t.Fatalf("workers=%d: %d goroutines after the call, %d before", workers, after, before)
			}
		}
	}
}

// cancelAfter is a collector whose shards cancel a context once the runs
// they observe reach limit between them.
type cancelAfter struct {
	seen   *atomic.Int64
	limit  int64
	cancel context.CancelFunc
}

func (c cancelAfter) Observe(kset.Observation) {
	if c.seen.Add(1) == c.limit {
		c.cancel()
	}
}
func (c cancelAfter) Fork() kset.Collector { return c }
func (c cancelAfter) Join(kset.Collector)  {}

// TestCheckpointCancelMidChunk: a cancellation inside a chunk returns the
// context's error with the stats of the runs that completed — more than
// the last checkpoint covers, fewer than its chunk — and emits no further
// checkpoint; no worker goroutine outlives the call.
func TestCheckpointCancelMidChunk(t *testing.T) {
	for _, workers := range checkpointWorkers {
		sys, src := checkpointSystem(t, kset.WithWorkers(workers))
		before := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		var dones []int64
		st, err := sys.RunCheckpointed(ctx, src, nil, 16, func(cp kset.Checkpoint) error {
			dones = append(dones, cp.RunsDone)
			return nil
		}, kset.CollectInto(cancelAfter{seen: new(atomic.Int64), limit: 20, cancel: cancel}))
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if len(dones) != 1 || dones[0] != 16 {
			t.Fatalf("workers=%d: checkpoints at %v, want only the first chunk's, at 16", workers, dones)
		}
		if st == nil || st.Runs < 20 || st.Runs >= 32 {
			t.Fatalf("workers=%d: stats %+v, want the 20 to 31 runs that completed", workers, st)
		}
		if after := settledGoroutines(before); after > before {
			t.Fatalf("workers=%d: %d goroutines after the call, %d before", workers, after, before)
		}
	}
}

// TestDecodeCheckpointBrokenCounts: an envelope whose stats could not
// come from Observe — a histogram listing more rounds than it tracks,
// more errors than runs, a histogram that misses a run — decodes to no
// checkpoint.
func TestDecodeCheckpointBrokenCounts(t *testing.T) {
	for name, body := range map[string]string{
		"long histogram":   `{"runs":1,"rounds":{"counts":[1` + strings.Repeat(",0", stats.HistogramBuckets) + `]}}`,
		"errors past runs": `{"runs":1,"errors":2}`,
		"histogram short":  `{"runs":1,"rounds":{"counts":[0]}}`,
	} {
		data := `{"version":1,"cursor":{"lo":0,"hi":2},"runs_done":1,"stats":` + body + `}`
		if _, err := kset.DecodeCheckpoint([]byte(data)); !errors.Is(err, kset.ErrBadCheckpoint) {
			t.Errorf("%s: DecodeCheckpoint = %v, want ErrBadCheckpoint", name, err)
		}
	}
}

// TestRunCheckpointedValidation pins the entry point's error contract.
func TestRunCheckpointedValidation(t *testing.T) {
	sys, src := checkpointSystem(t)
	unsized := kset.ExhaustiveInputs(64, 4)
	if _, err := sys.RunCheckpointed(context.Background(), unsized, nil, 5, nil); !errors.Is(err, kset.ErrUnsizedSource) {
		t.Fatalf("unsized fresh start: %v, want ErrUnsizedSource", err)
	}
	bad := kset.Checkpoint{Version: 99, Cursor: kset.Cursor{Lo: 0, Hi: 5}}
	if _, err := sys.RunCheckpointed(context.Background(), src, &bad, 5, nil); !errors.Is(err, kset.ErrBadCheckpoint) {
		t.Fatalf("bad resume: %v, want ErrBadCheckpoint", err)
	}
	// A resume checkpoint must fit the source it is resumed over and
	// carry stats over exactly its RunsDone runs; otherwise Range clamps
	// the stream while the cursor keeps counting, and the last checkpoint
	// claims runs that never happened.
	short := kset.RandomInputs(3, 6, 4, 50)
	for _, tc := range []struct {
		name     string
		cursor   kset.Cursor
		done     int64
		stats    *kset.Accumulator
		wantRuns int64 // -1: ErrBadCheckpoint
	}{
		{"cursor past the source", kset.Cursor{Lo: 0, Hi: 1000}, 0, nil, -1},
		{"cursor starts past the source", kset.Cursor{Lo: 60, Hi: 70}, 0, nil, -1},
		{"runs_done without stats", kset.Cursor{Lo: 0, Hi: 50}, 10, nil, -1},
		{"stats short of runs_done", kset.Cursor{Lo: 0, Hi: 50}, 10, &kset.Accumulator{Runs: 9, Errors: 9}, -1},
		{"stats with a null group", kset.Cursor{Lo: 0, Hi: 50}, 5, &kset.Accumulator{Runs: 5, ByExecutor: map[string]*kset.Group{"figure2": nil}}, -1},
		{"whole source", kset.Cursor{Lo: 0, Hi: 50}, 0, nil, 50},
		{"inner shard", kset.Cursor{Lo: 10, Hi: 30}, 0, nil, 20},
		{"resumed mid-shard", kset.Cursor{Lo: 10, Hi: 30}, 5, &kset.Accumulator{Runs: 5, Errors: 5}, 20},
	} {
		cp := kset.Checkpoint{Version: kset.CheckpointVersion, Cursor: tc.cursor, RunsDone: tc.done, Stats: tc.stats}
		var last kset.Checkpoint
		st, err := sys.RunCheckpointed(context.Background(), short, &cp, 100, func(c kset.Checkpoint) error {
			last = c
			return nil
		})
		if tc.wantRuns < 0 {
			if !errors.Is(err, kset.ErrBadCheckpoint) {
				t.Errorf("%s: err = %v (stats %+v), want ErrBadCheckpoint", tc.name, err, st)
			}
			continue
		}
		if err != nil || st.Runs != tc.wantRuns || last.RunsDone != tc.wantRuns || last.Stats.Runs != tc.wantRuns {
			t.Errorf("%s: err = %v, %d runs, last checkpoint %d done over %d runs; want %d",
				tc.name, err, st.Runs, last.RunsDone, last.Stats.Runs, tc.wantRuns)
		}
	}
	// Root-level decode rejects corrupt bytes with the same sentinel.
	if _, err := kset.DecodeCheckpoint([]byte("{")); !errors.Is(err, kset.ErrBadCheckpoint) {
		t.Fatalf("DecodeCheckpoint: %v, want ErrBadCheckpoint", err)
	}
	// A fully resumed checkpoint has nothing left to run: the stats are
	// exactly its snapshot.
	total, _ := src.Size()
	base, err := sys.RunSource(context.Background(), src, kset.VerifyRuns())
	if err != nil {
		t.Fatal(err)
	}
	doneCP := kset.Checkpoint{
		Version:  kset.CheckpointVersion,
		Cursor:   kset.Cursor{Lo: 0, Hi: total},
		RunsDone: total,
		Stats:    base.Metrics.Snapshot(),
	}
	st, err := sys.RunCheckpointed(context.Background(), src, &doneCP, 5, nil, kset.VerifyRuns())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := marshal(t, st), marshal(t, base); string(got) != string(want) {
		t.Fatalf("fully-resumed stats differ\n%s\nvs\n%s", got, want)
	}
}

// TestDecodeCheckpointNullGroup: an envelope whose stats hold a JSON null
// in a breakdown decodes to no checkpoint, since no merge could fold it.
func TestDecodeCheckpointNullGroup(t *testing.T) {
	for _, breakdown := range []string{"by_executor", "by_crashes", "by_label"} {
		data := `{"version":1,"cursor":{"lo":0,"hi":1},"runs_done":0,"stats":{"runs":0,"` + breakdown + `":{"1":null}}}`
		if _, err := kset.DecodeCheckpoint([]byte(data)); !errors.Is(err, kset.ErrBadCheckpoint) {
			t.Errorf("%s: DecodeCheckpoint = %v, want ErrBadCheckpoint", breakdown, err)
		}
	}
}

// TestCampaignStatsJSONMatchesReflection checks CampaignStats' appended
// envelope against encoding/json over a method-free mirror: a campaign's
// stats, and hand-built ones without metrics, histogram or undecided runs.
// The metrics' own bytes are FuzzAccumulatorJSON's to pin.
func TestCampaignStatsJSONMatchesReflection(t *testing.T) {
	type mirror struct {
		Runs              int64           `json:"runs"`
		Errors            int64           `json:"errors"`
		ConditionHits     int64           `json:"condition_hits"`
		Violations        int64           `json:"violations"`
		UndecidedRuns     int64           `json:"undecided_runs,omitempty"`
		MessagesDelivered int64           `json:"messages_delivered"`
		DecisionRounds    []int64         `json:"decision_rounds,omitempty"`
		Metrics           json.RawMessage `json:"metrics,omitempty"`
	}
	sys, src := checkpointSystem(t)
	ran, err := sys.RunSource(context.Background(), src, kset.VerifyRuns())
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range []*kset.CampaignStats{
		ran,
		{},
		{Runs: 5, Errors: 1, UndecidedRuns: 2, MessagesDelivered: 70, DecisionRounds: []int64{}},
		{Runs: 3, DecisionRounds: []int64{0, 1, 2}, Metrics: kset.NewAccumulator()},
	} {
		m := mirror{st.Runs, st.Errors, st.ConditionHits, st.Violations, st.UndecidedRuns, st.MessagesDelivered, st.DecisionRounds, nil}
		if st.Metrics != nil {
			m.Metrics = st.Metrics.AppendJSON(nil)
		}
		want, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if got := st.AppendJSON(nil); !bytes.Equal(got, want) {
			t.Fatalf("AppendJSON differs from reflection:\n got: %s\nwant: %s", got, want)
		}
		if got := marshal(t, st); !bytes.Equal(got, want) {
			t.Fatalf("json.Marshal differs from reflection:\n got: %s\nwant: %s", got, want)
		}
	}
}
