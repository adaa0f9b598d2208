package kset_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"testing"

	"kset"
)

// checkpointSystem builds the system and source every checkpoint test
// shares: a 4-process condition system over a cross-product sweep large
// enough to cut at interesting places (5 inputs × 4 patterns × 2
// executors = 40 runs).
func checkpointSystem(t *testing.T) (*kset.System, kset.ScenarioSource) {
	t.Helper()
	p := kset.Params{N: 4, T: 2, K: 2, D: 1, L: 1}
	cond, err := kset.NewMaxCondition(p.N, 3, p.X(), p.L)
	if err != nil {
		t.Fatal(err)
	}
	sys := testSystem(t, kset.WithParams(p), kset.WithCondition(cond))
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

// TestRunCheckpointedMatchesUninterrupted: chunked execution with
// checkpoint emission is invisible in the result — any chunk size yields
// stats JSON byte-identical to one straight RunSource.
func TestRunCheckpointedMatchesUninterrupted(t *testing.T) {
	sys, src := checkpointSystem(t)
	base, err := sys.RunSource(context.Background(), src, kset.VerifyRuns())
	if err != nil {
		t.Fatal(err)
	}
	want := marshal(t, base)
	total, _ := src.Size()
	for _, every := range []int64{0, 1, 7, 16, total, total + 5} {
		emitted := 0
		st, err := sys.RunCheckpointed(context.Background(), src, nil, every,
			func(cp kset.Checkpoint) error {
				emitted++
				if err := cp.Validate(); err != nil {
					return err
				}
				if cp.Cursor.Len() != total {
					t.Fatalf("every=%d: checkpoint cursor %+v, want len %d", every, cp.Cursor, total)
				}
				return nil
			}, kset.VerifyRuns())
		if err != nil {
			t.Fatalf("every=%d: %v", every, err)
		}
		if got := marshal(t, st); string(got) != string(want) {
			t.Fatalf("every=%d: chunked stats differ\n%s\nvs\n%s", every, got, want)
		}
		wantEmits := 1
		if every > 0 && every < total {
			wantEmits = int((total + every - 1) / every)
		}
		if emitted != wantEmits {
			t.Fatalf("every=%d: %d checkpoints emitted, want %d", every, emitted, wantEmits)
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
// run emits — every cut position — and checks each resume reproduces the
// uninterrupted result byte for byte.
func TestResumeFromEveryCheckpoint(t *testing.T) {
	sys, src := checkpointSystem(t)
	base, err := sys.RunSource(context.Background(), src, kset.VerifyRuns())
	if err != nil {
		t.Fatal(err)
	}
	want := marshal(t, base)

	var cuts [][]byte
	if _, err := sys.RunCheckpointed(context.Background(), src, nil, 7,
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
	if len(cuts) < 2 {
		t.Fatalf("only %d checkpoints emitted", len(cuts))
	}
	for i, data := range cuts {
		cp, err := kset.DecodeCheckpoint(data)
		if err != nil {
			t.Fatalf("checkpoint %d: %v", i, err)
		}
		st, err := sys.RunCheckpointed(context.Background(), src, &cp, 0, nil, kset.VerifyRuns())
		if err != nil {
			t.Fatalf("resume from checkpoint %d: %v", i, err)
		}
		if got := marshal(t, st); string(got) != string(want) {
			t.Fatalf("resume from checkpoint %d differs\n%s\nvs\n%s", i, got, want)
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
		{"stats short of runs_done", kset.Cursor{Lo: 0, Hi: 50}, 10, &kset.Accumulator{Runs: 9}, -1},
		{"stats with a null group", kset.Cursor{Lo: 0, Hi: 50}, 5, &kset.Accumulator{Runs: 5, ByExecutor: map[string]*kset.Group{"figure2": nil}}, -1},
		{"whole source", kset.Cursor{Lo: 0, Hi: 50}, 0, nil, 50},
		{"inner shard", kset.Cursor{Lo: 10, Hi: 30}, 0, nil, 20},
		{"resumed mid-shard", kset.Cursor{Lo: 10, Hi: 30}, 5, &kset.Accumulator{Runs: 5}, 20},
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
