package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// loadSpec is the load test's unit of work: a single-scenario job, so a
// thousand submissions measure the control plane, not the protocol.
const loadSpec = `{
	"params": {"n": 3, "t": 1, "k": 1, "d": 0, "l": 1},
	"condition": {"kind": "max", "m": 2},
	"source": {"kind": "inputs", "inputs": [[2, 1, 1]]}
}`

// TestLoadSmokeThousandJobs is the acceptance load test: 1000 concurrent
// submissions across 4 tenants on a bounded scheduler, then a graceful
// drain, with every job completing. CI runs it under -race.
func TestLoadSmokeThousandJobs(t *testing.T) {
	const (
		jobs    = 1000
		tenants = 4
		clients = 16
	)
	svc, ts := newTestServer(t, Config{
		MaxActive:          4,
		MaxQueuedPerTenant: 512,
		SnapshotInterval:   time.Hour,
	})
	svc.mu.Lock()
	svc.retain = jobs // every job is read back after the drain
	svc.mu.Unlock()
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		accepted []string
		rejected int
	)
	work := make(chan int, jobs)
	for i := 0; i < jobs; i++ {
		work <- i
	}
	close(work)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/campaigns", strings.NewReader(loadSpec))
				if err != nil {
					t.Error(err)
					return
				}
				req.Header.Set("X-Tenant", fmt.Sprintf("tenant-%d", i%tenants))
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Error(err)
					return
				}
				data, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusAccepted:
					var st statusPayload
					if err := json.Unmarshal(data, &st); err != nil {
						t.Error(err)
						return
					}
					mu.Lock()
					accepted = append(accepted, st.ID)
					mu.Unlock()
				case http.StatusTooManyRequests:
					// Backpressure is a legal answer under burst load; the
					// bound just must not trip with queues this deep.
					mu.Lock()
					rejected++
					mu.Unlock()
				default:
					t.Errorf("submit: status %d: %s", resp.StatusCode, data)
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if rejected > 0 {
		t.Fatalf("%d submissions hit the queue bound; queues should absorb this load", rejected)
	}
	if len(accepted) != jobs {
		t.Fatalf("accepted %d/%d jobs", len(accepted), jobs)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := svc.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	perTenant := make(map[string]int)
	for _, id := range accepted {
		j := svc.lookup(id)
		if j == nil {
			t.Fatalf("job %s vanished", id)
		}
		st := j.Status(true)
		if st.State != StateDone {
			t.Fatalf("job %s: state %q after drain (error %q)", id, st.State, st.Error)
		}
		if stats := statsOf(t, st); stats == nil || stats.Runs != 1 {
			t.Fatalf("job %s: stats %s, want exactly one run", id, st.Stats)
		}
		perTenant[st.Tenant]++
	}
	for tenant, n := range perTenant {
		if n != jobs/tenants {
			t.Errorf("%s completed %d jobs, want %d", tenant, n, jobs/tenants)
		}
	}
}

// BenchmarkSubmitPath measures the submission hot path — decode, compile,
// job registration, enqueue — the loop a flood of POSTs drives. CI gates
// its allocations per op (scripts/benchgate.sh), so queue-path regressions
// that would melt a 1-CPU container under thousands of submissions show
// up as a failed gate, not an incident.
func BenchmarkSubmitPath(b *testing.B) {
	body := []byte(loadSpec)
	s := NewScheduler(1, 1<<30, func(*Job) {}) // never started: pure queue cost
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var spec JobSpec
		if err := json.Unmarshal(body, &spec); err != nil {
			b.Fatal(err)
		}
		spec.Tenant = "bench"
		compiled, err := Compile(spec)
		if err != nil {
			b.Fatal(err)
		}
		j := newJob("j-bench", compiled)
		if err := s.Enqueue(j); err != nil {
			b.Fatal(err)
		}
		if len(s.queues["bench"]) == 4096 {
			// Keep the resident queue bounded; the drop is amortized noise.
			s.queues["bench"] = s.queues["bench"][:0]
			s.queued = 0
		}
	}
}

// randomFailuresSpec is a job under a 4-pattern random crash family, the
// crash failures of the benchmark's ksetd_jobs rotation.
const randomFailuresSpec = `{
	"params": {"n": 8, "t": 5, "k": 2, "d": 3, "l": 1},
	"condition": {"kind": "max", "m": 4},
	"source": {"kind": "random", "seed": 1, "count": 64},
	"failures": {"kind": "random", "seed": 7, "count": 4}
}`

// BenchmarkCompileRandomFailures prices decoding and compiling a spec with
// a random crash family, whose every pattern Compile draws in the POST
// handler. CI gates its allocations per op (scripts/benchgate.sh), so a
// fresh math/rand source per pattern — about 5 kB each — cannot return
// unnoticed.
func BenchmarkCompileRandomFailures(b *testing.B) {
	body := []byte(randomFailuresSpec)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec, err := decodeSpec(bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Compile(spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFinishedJob runs a 256-run job to its terminal event in
// process, and prices what one such job costs the daemon for as long as
// it is retained: the live heap 256 finished jobs add, as B/job — their
// event logs, and nothing of what ran them. CI holds it under 4 KiB
// (scripts/benchgate.sh); it read ≈ 8 kB when a finished job kept its
// compiled spec, progress shards and stats.
func BenchmarkFinishedJob(b *testing.B) {
	compiled, err := Compile(JobSpec{
		Tenant:    "bench",
		Params:    ParamsSpec{N: 8, T: 5, K: 2, D: 3, L: 1},
		Condition: &ConditionSpec{Kind: "max", M: 4},
		Source:    SourceSpec{Kind: "random", Seed: 1, Count: 64},
		Failures:  &FailuresSpec{Kind: "random", Seed: 7, Count: 4},
	})
	if err != nil {
		b.Fatal(err)
	}
	finished := func() *Job {
		j := newJob("j-bench", compiled)
		j.Status(false) // the 202 response reads the job before it runs
		j.run(context.Background(), 0)
		if st := j.Status(false); st.State != StateDone || st.Runs != 256 {
			b.Fatalf("job ended %q after %d runs", st.State, st.Runs)
		}
		return j
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		finished()
	}
	b.StopTimer()

	retained := make([]*Job, 256)
	before := liveHeap()
	for i := range retained {
		retained[i] = finished()
	}
	after := liveHeap()
	b.ReportMetric(float64(int64(after)-int64(before))/float64(len(retained)), "B/job")
	runtime.KeepAlive(retained)
}
