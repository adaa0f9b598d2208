package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"
)

// oneRunSpec is a one-scenario job; the seed picks its input.
func oneRunSpec(seed int) string {
	return fmt.Sprintf(`{
		"params": {"n": 3, "t": 1, "k": 1, "d": 0, "l": 1},
		"condition": {"kind": "max", "m": 2},
		"source": {"kind": "random", "seed": %d, "count": 1}
	}`, seed)
}

// serve answers one request from a handler, without a socket.
func serve(h http.Handler, method, target, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(body)))
	return rec
}

// liveHeap is the heap still reachable after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestRetentionHeapFlat is the soak: 20 000 short jobs through one
// Server. The registry never holds more than the retention bound plus
// what is queued or running, the order list stays in step with it, a
// retained finished job pins nothing of its run, and the live heap at
// 20 000 jobs is where it was at 5 000.
func TestRetentionHeapFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("20 000 jobs")
	}
	s := NewServer(Config{SnapshotInterval: time.Hour})
	defer s.Close()
	h := s.Handler()

	check := func(i int) {
		s.sched.mu.Lock()
		inFlight := s.sched.queued + s.sched.active
		s.sched.mu.Unlock()
		s.mu.Lock()
		defer s.mu.Unlock()
		if bound := s.retain + inFlight; len(s.jobs) > bound {
			t.Fatalf("after %d jobs: %d registered, bound %d", i, len(s.jobs), bound)
		}
		if len(s.order) != len(s.jobs) {
			t.Fatalf("after %d jobs: order lists %d ids for %d jobs", i, len(s.order), len(s.jobs))
		}
	}
	var at5k uint64
	for i := 1; i <= 20000; i++ {
		if rec := serve(h, http.MethodPost, "/v1/campaigns?wait=1", oneRunSpec(i)); rec.Code != http.StatusOK {
			t.Fatalf("job %d: status %d: %s", i, rec.Code, rec.Body)
		}
		check(i)
		if i == 5000 {
			at5k = liveHeap()
		}
	}
	if at20k := liveHeap(); at20k > at5k+1<<20 {
		t.Errorf("live heap grew from %d B at 5 000 jobs to %d B at 20 000", at5k, at20k)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.jobs) < maxFinished {
		t.Fatalf("only %d jobs retained, want %d", len(s.jobs), maxFinished)
	}
	for id, j := range s.jobs {
		j.mu.Lock()
		if j.state.Terminal() && (j.compiled != nil || j.progress != nil || j.cancel != nil) {
			t.Errorf("finished job %s still holds its compiled spec, progress or cancel func", id)
		}
		j.mu.Unlock()
	}
}

// TestEvictedJobIs404: past the retention bound the job that finished
// first is gone — every route on its ID answers like an unknown one —
// while the newer ones still serve their results.
func TestEvictedJobIs404(t *testing.T) {
	s := NewServer(Config{SnapshotInterval: time.Hour})
	defer s.Close()
	s.mu.Lock()
	s.retain = 2
	s.mu.Unlock()
	h := s.Handler()
	for i := 1; i <= 3; i++ {
		if rec := serve(h, http.MethodPost, "/v1/campaigns?wait=1", oneRunSpec(i)); rec.Code != http.StatusOK {
			t.Fatalf("job %d: status %d: %s", i, rec.Code, rec.Body)
		}
	}
	// A ?wait=1 reply races the job leaving its run slot, which is when
	// it is counted as finished.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	for _, route := range []struct{ method, path string }{
		{http.MethodGet, "/v1/campaigns/j-1"},
		{http.MethodDelete, "/v1/campaigns/j-1"},
		{http.MethodGet, "/v1/campaigns/j-1/events"},
	} {
		rec := serve(h, route.method, route.path, "")
		var body struct {
			Error errorBody `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("%s %s: %v: %s", route.method, route.path, err, rec.Body)
		}
		if rec.Code != http.StatusNotFound || body.Error.Code != "not_found" {
			t.Errorf("%s %s: %d %q, want 404 not_found", route.method, route.path, rec.Code, body.Error.Code)
		}
	}
	for _, id := range []string{"j-2", "j-3"} {
		rec := serve(h, http.MethodGet, "/v1/campaigns/"+id, "")
		var st statusPayload
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		if stats := statsOf(t, st); rec.Code != http.StatusOK || stats == nil || stats.Runs != 1 {
			t.Errorf("GET %s: %d %s, want its one-run stats", id, rec.Code, rec.Body)
		}
	}
	var list struct {
		Jobs []statusPayload `json:"jobs"`
	}
	if err := json.Unmarshal(serve(h, http.MethodGet, "/v1/campaigns", "").Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 2 || list.Jobs[0].ID != "j-2" || list.Jobs[1].ID != "j-3" {
		t.Errorf("list after eviction = %+v, want j-2, j-3", list.Jobs)
	}
}

// TestDropJobCompactsOrder: a submission the scheduler refuses leaves no
// ID behind in the order list, wherever in it the ID sits.
func TestDropJobCompactsOrder(t *testing.T) {
	s := NewServer(Config{})
	defer s.Close()
	c := &CompiledJob{}
	a, b := s.addJob(c), s.addJob(c)
	s.dropJob(a.ID) // not the newest entry: another POST registered since
	if len(s.order) != 1 || s.order[0] != b.ID || len(s.jobs) != 1 {
		t.Fatalf("order = %v with %d jobs, want [%s]", s.order, len(s.jobs), b.ID)
	}
}
