package kset_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"kset"
)

// progressSource is the handle tests' stream: seeded random inputs × a
// seeded crash family × two executors, 4·inputs·2 runs that fill the
// executor and crash-count breakdowns.
func progressSource(p kset.Params, seed int64, inputs int) kset.ScenarioSource {
	return kset.CrossExecutors(
		kset.FailureSchedules(
			kset.RandomInputs(seed, p.N, 4, inputs),
			kset.RandomCrashFamily(seed+1, p.N, p.T, p.RMax(), 4),
		),
		kset.Figure2, kset.EarlyDeciding,
	)
}

// counters flattens every counter of an accumulator — the ones that only
// grow as runs are folded in — by name.
func counters(a *kset.Accumulator) map[string]int64 {
	out := map[string]int64{
		"runs": a.Runs, "errors": a.Errors, "hits": a.ConditionHits,
		"verified": a.Verified, "violations": a.Violations, "undecided": a.UndecidedRuns,
		"messages.count": a.Messages.Count, "messages.sum": a.Messages.Sum,
		"crashes.count": a.Crashes.Count, "crashes.sum": a.Crashes.Sum,
		"overflow.count": a.Rounds.Overflow.Count,
	}
	for r, n := range a.Rounds.Buckets {
		out[fmt.Sprintf("rounds[%d]", r)] = n
	}
	if f := a.Faults; f != nil {
		out["lost.count"], out["delayed.count"], out["duplicated.count"] = f.Lost.Count, f.Delayed.Count, f.Duplicated.Count
	}
	group := func(key string, g *kset.Group) {
		out[key+".runs"], out[key+".errors"], out[key+".hits"] = g.Runs, g.Errors, g.ConditionHits
		out[key+".violations"], out[key+".messages"], out[key+".rounds"] = g.Violations, g.Messages, g.Rounds.Count
	}
	for k, g := range a.ByExecutor {
		group("executor="+k, g)
	}
	for k, g := range a.ByCrashes {
		group(fmt.Sprint("crashes=", k), g)
	}
	for k, g := range a.ByLabel {
		group("label="+k, g)
	}
	return out
}

// readProgress reads p from its own goroutine, as fast as it can, from
// before it returns until the returned stop is called, failing t when a
// counter of a snapshot falls below the one before it or Runs reads fewer
// runs than the snapshot before it. stop returns how many snapshots
// counted more than no runs and fewer than final.
func readProgress(t *testing.T, p *kset.Progress) (stop func(final int64) int) {
	quit, done, started := make(chan struct{}), make(chan []int64), make(chan struct{})
	go func() {
		var runs []int64
		prev := counters(kset.NewAccumulator())
		for {
			select {
			case <-quit:
				done <- runs
				return
			default:
			}
			snap := p.Snapshot()
			next := counters(snap)
			for k, v := range prev {
				if next[k] < v {
					t.Errorf("snapshot counter %s fell from %d to %d", k, v, next[k])
				}
			}
			if n := p.Runs(); n < snap.Runs {
				t.Errorf("Runs read %d after a snapshot of %d runs", n, snap.Runs)
			}
			prev = next
			if runs = append(runs, snap.Runs); len(runs) == 1 {
				close(started)
			}
		}
	}()
	<-started
	return func(final int64) int {
		close(quit)
		runs := <-done
		mid := 0
		for _, r := range runs {
			if 0 < r && r < final {
				mid++
			}
		}
		t.Logf("%d snapshots, %d of them mid-run", len(runs), mid)
		return mid
	}
}

// sameEncoding fails t unless the two accumulators encode to the same
// bytes.
func sameEncoding(t *testing.T, what string, got, want *kset.Accumulator) {
	t.Helper()
	g, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	w, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g, w) {
		t.Errorf("%s: the handle encodes to\n%s\nwant\n%s", what, g, w)
	}
}

// TestProgressSnapshots reads a TrackProgress handle while campaigns
// run — one at 1, 2, 4 and 7 workers, the points of a RunSweep, the
// chunks of a RunCheckpointed — and holds every read to monotone
// counters; after the run the handle encodes to the bytes of what the
// run returned: the campaign's Metrics, the grid total a CollectInto
// accumulator gathers over the sweep. Some read must catch one of the
// four single campaigns mid-run: workers that never publish would pass
// the rest.
func TestProgressSnapshots(t *testing.T) {
	ctx := context.Background()
	p := testParams()
	cond := testCondition(t, p)
	ran, mid := 0, 0
	for _, workers := range []int{1, 2, 4, 7} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			sys := testSystem(t, kset.WithParams(p), kset.WithCondition(cond), kset.WithWorkers(workers))
			prog := new(kset.Progress)
			stop := readProgress(t, prog)
			stats, err := sys.RunSource(ctx, progressSource(p, 31, 4000), kset.VerifyRuns(), kset.TrackProgress(prog))
			if err != nil {
				t.Fatal(err)
			}
			ran, mid = ran+1, mid+stop(stats.Runs)
			sameEncoding(t, "campaign", prog.Snapshot(), stats.Metrics)
			if n := prog.Runs(); n != stats.Runs {
				t.Errorf("Runs = %d after the campaign, want %d", n, stats.Runs)
			}
		})
	}
	if ran > 0 && mid == 0 {
		t.Error("no read saw a campaign mid-run")
	}

	t.Run("sweep", func(t *testing.T) {
		points, err := kset.SweepDegrees(p, 4, func(pp kset.Params, _ *kset.MaxCondition) kset.ScenarioSource {
			return progressSource(pp, 37, 1000)
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range points {
			points[i].Options = append(points[i].Options, kset.WithWorkers(3))
		}
		prog, total := new(kset.Progress), kset.NewAccumulator()
		stop := readProgress(t, prog)
		results, err := kset.RunSweep(ctx, points, kset.TrackProgress(prog), kset.CollectInto(total))
		if err != nil {
			t.Fatal(err)
		}
		stop(total.Runs)
		if len(results) != len(points) || total.Runs != int64(len(points))*8000 {
			t.Fatalf("sweep ran %d points and %d runs", len(results), total.Runs)
		}
		sameEncoding(t, "sweep", prog.Snapshot(), total)
	})

	t.Run("checkpointed", func(t *testing.T) {
		sys := testSystem(t, kset.WithParams(p), kset.WithCondition(cond), kset.WithWorkers(3))
		prog, chunks := new(kset.Progress), 0
		stop := readProgress(t, prog)
		stats, err := sys.RunCheckpointed(ctx, progressSource(p, 41, 4000), nil, 4000, func(kset.Checkpoint) error {
			chunks++
			return nil
		}, kset.TrackProgress(prog))
		if err != nil {
			t.Fatal(err)
		}
		stop(stats.Runs)
		if chunks != 8 {
			t.Fatalf("%d chunks, want 8", chunks)
		}
		sameEncoding(t, "checkpointed", prog.Snapshot(), stats.Metrics)
	})
}
