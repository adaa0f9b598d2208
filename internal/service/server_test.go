package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"kset"
	"kset/internal/experiments"
)

// newTestServer boots a service core plus httptest front end.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	svc := NewServer(cfg)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return svc, ts
}

// validSpec is the canonical small job of the HTTP tests: 81 exhaustive
// scenarios over {1..3}^4 against the max condition with x=1, ℓ=1.
const validSpec = `{
	"params": {"n": 4, "t": 2, "k": 1, "d": 1, "l": 1},
	"condition": {"kind": "max", "m": 3},
	"source": {"kind": "exhaustive"}
}`

// statsOf decodes the terminal stats a status payload carries (nil when
// it carries none).
func statsOf(t *testing.T, st statusPayload) *kset.CampaignStats {
	t.Helper()
	if st.Stats == nil {
		return nil
	}
	stats := new(kset.CampaignStats)
	if err := json.Unmarshal(st.Stats, stats); err != nil {
		t.Fatalf("stats payload: %v\n%s", err, st.Stats)
	}
	return stats
}

// post submits a body and returns the response.
func post(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestSubmitValidationVectors is the submission-path validation table:
// every malformed body — two that do not decode, and every reject of
// testdata/jobspecs_v1.json — must be refused at POST time with a
// structured 400 body carrying the vector's code, not accepted and failed
// later; every accept of the file must compile.
func TestSubmitValidationVectors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	vectors := append([]specVector{
		{Name: "malformed JSON", Code: "bad_json", Spec: json.RawMessage(`{"params": `)},
		{Name: "unknown field", Code: "bad_json", Spec: json.RawMessage(`{"parms": {"n": 4}}`)},
	}, loadSpecVectors(t)...)
	for _, tc := range vectors {
		t.Run(tc.Name, func(t *testing.T) {
			if tc.Code == "" {
				spec, err := decodeSpec(bytes.NewReader(tc.Spec))
				if err == nil {
					_, err = Compile(spec)
				}
				if err != nil {
					t.Fatalf("refused: %v", err)
				}
				return
			}
			start := time.Now()
			resp, data := post(t, ts.URL+"/v1/campaigns", string(tc.Spec))
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400 (body %s)", resp.StatusCode, data)
			}
			// A million-pattern family took 14 s to build before it was refused.
			if elapsed := time.Since(start); elapsed > 2*time.Second {
				t.Errorf("rejection took %v: the handler did the job's work first", elapsed)
			}
			var body struct {
				Error errorBody `json:"error"`
			}
			if err := json.Unmarshal(data, &body); err != nil {
				t.Fatalf("response is not the structured error shape: %v\n%s", err, data)
			}
			if body.Error.Code != tc.Code {
				t.Errorf("code = %q, want %q (message %q)", body.Error.Code, tc.Code, body.Error.Message)
			}
			if body.Error.Message == "" {
				t.Error("empty error message")
			}
		})
	}
}

// TestTrailingBytesRefused: a body is one JSON value and nothing after it
// but whitespace. A second value or stray text after a valid spec or
// experiment override is a 400 bad_json, and no job is accepted; trailing
// whitespace, such as the newline `curl -d @file` sends, is accepted. An
// experiment body with no JSON value at all means no overrides. Every
// body is sent twice, with a Content-Length and chunked, and the verdict
// must not depend on the framing.
func TestTrailingBytesRefused(t *testing.T) {
	_, ts := newTestServer(t, Config{SnapshotInterval: time.Hour})
	override := `{"params": {"n": 3, "m": 2, "xmax": 1, "lmax": 2}}`
	for _, tc := range []struct {
		name, path, body string
		status           int
	}{
		{"spec, second value", "/v1/campaigns", validSpec + `{"params":{"n":"oops"}}`, http.StatusBadRequest},
		{"spec, stray text", "/v1/campaigns", validSpec + ` trailing garbage`, http.StatusBadRequest},
		{"spec, stray bracket", "/v1/campaigns", validSpec + `]`, http.StatusBadRequest},
		{"spec, trailing newline", "/v1/campaigns", validSpec + "\n", http.StatusAccepted},
		{"spec, trailing whitespace", "/v1/campaigns", validSpec + " \r\n\t ", http.StatusAccepted},
		{"override, second value", "/v1/experiments/E1", override + `{"params": {"n": 2}}`, http.StatusBadRequest},
		{"override, stray text", "/v1/experiments/E1", override + ` nonsense`, http.StatusBadRequest},
		{"override, trailing newline", "/v1/experiments/E1", override + "\n", http.StatusOK},
		{"override, empty", "/v1/experiments/E2", "", http.StatusOK},
		{"override, whitespace only", "/v1/experiments/E2", "\n", http.StatusOK},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, framing := range []string{"length", "chunked"} {
				var body io.Reader = strings.NewReader(tc.body)
				if framing == "chunked" {
					body = io.MultiReader(body) // unknown length: sent chunked
				}
				resp, err := http.Post(ts.URL+tc.path, "application/json", body)
				if err != nil {
					t.Fatal(err)
				}
				data, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Fatal(err)
				}
				if resp.StatusCode != tc.status {
					t.Fatalf("%s: status %d, want %d: %s", framing, resp.StatusCode, tc.status, data)
				}
				if tc.status != http.StatusBadRequest {
					continue
				}
				var reply struct {
					Error errorBody `json:"error"`
				}
				if err := json.Unmarshal(data, &reply); err != nil || reply.Error.Code != "bad_json" || reply.Error.Message == "" {
					t.Fatalf("%s: reply %s, want a structured bad_json", framing, data)
				}
			}
		})
	}
}

// TestErrorTable walks every row of ksetd's error taxonomy: an error
// wrapping the row's sentinel is written at the row's status under the
// row's code, in the structured shape; codes are distinct; the one row
// without a sentinel comes last, where it catches what wraps none; and a
// specific sentinel wins over ErrBadParams wrapped beside it.
func TestErrorTable(t *testing.T) {
	written := func(err error) (int, errorBody) {
		t.Helper()
		rec := httptest.NewRecorder()
		writeErr(rec, err)
		var body struct {
			Error errorBody `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("not the structured error shape: %v\n%s", err, rec.Body)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("Content-Type = %q", ct)
		}
		return rec.Code, body.Error
	}
	seen := map[string]bool{}
	for i, row := range errorTable {
		if seen[row.code] || row.code == "" {
			t.Errorf("row %d: code %q is empty or repeated", i, row.code)
		}
		seen[row.code] = true
		if row.status < 400 || row.status > 599 {
			t.Errorf("%s: status %d is not an error status", row.code, row.status)
		}
		if last := i == len(errorTable)-1; (row.sentinel == nil) != last {
			t.Errorf("%s: only the last row may, and must, have no sentinel", row.code)
		}
		err := errors.New("wraps nothing")
		if row.sentinel != nil {
			err = fmt.Errorf("row %d: %w", i, row.sentinel)
		}
		status, body := written(err)
		if status != row.status || body.Code != row.code || body.Message != err.Error() {
			t.Errorf("%s: written as %d %+v, want status %d", row.code, status, body, row.status)
		}
	}
	for _, specific := range []error{kset.ErrDomainTooLarge, kset.ErrBadInput} {
		status, body := written(fmt.Errorf("%w: %w", kset.ErrBadParams, specific))
		if want, _ := written(specific); status != want || body.Code == "bad_params" {
			t.Errorf("%v beside ErrBadParams: written as %d %q", specific, status, body.Code)
		}
	}
}

// TestBodyTooLarge: a request body over the configured cap is answered
// with a structured 413 on every decoding endpoint, while a small valid
// body on the same server still goes through — the cap bounds memory,
// not functionality.
func TestBodyTooLarge(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 1024})
	huge := `{"padding": "` + strings.Repeat("x", 64<<10) + `"}`
	for _, path := range []string{"/v1/campaigns", "/v1/merge", "/v1/experiments/E1"} {
		resp, data := post(t, ts.URL+path, huge)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: status = %d, want 413 (body %s)", path, resp.StatusCode, data)
		}
		var body struct {
			Error errorBody `json:"error"`
		}
		if err := json.Unmarshal(data, &body); err != nil {
			t.Fatalf("%s: response is not the structured error shape: %v\n%s", path, err, data)
		}
		if body.Error.Code != "body_too_large" {
			t.Errorf("%s: code = %q, want body_too_large", path, body.Error.Code)
		}
	}
	resp, data := post(t, ts.URL+"/v1/campaigns?wait=1", validSpec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("valid spec under the cap: status = %d, want 200 (body %s)", resp.StatusCode, data)
	}
}

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	id    int
	event string
	data  string
}

// parseSSE splits a complete SSE stream into events.
func parseSSE(t *testing.T, raw string) []sseEvent {
	t.Helper()
	var evs []sseEvent
	for _, block := range strings.Split(raw, "\n\n") {
		if strings.TrimSpace(block) == "" {
			continue
		}
		var ev sseEvent
		for _, line := range strings.Split(block, "\n") {
			switch {
			case strings.HasPrefix(line, "id: "):
				fmt.Sscanf(line, "id: %d", &ev.id)
			case strings.HasPrefix(line, "event: "):
				ev.event = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				ev.data = strings.TrimPrefix(line, "data: ")
			default:
				t.Fatalf("unexpected SSE line %q", line)
			}
		}
		evs = append(evs, ev)
	}
	return evs
}

// TestSSEStreamDeterminism pins the event stream's shape: with the
// snapshot ticker effectively off, a completed job streams exactly
// running → snapshot → stats, with contiguous ids, a final snapshot
// covering every run, and a stats payload byte-identical to running the
// same spec through the facade in-process. The whole stream is pinned
// byte for byte: the job's logged events, each framed as its id, event
// and data lines and a blank line.
func TestSSEStreamDeterminism(t *testing.T) {
	svc, ts := newTestServer(t, Config{SnapshotInterval: time.Hour})

	resp, data := post(t, ts.URL+"/v1/campaigns?wait=1", validSpec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, data)
	}
	var status statusPayload
	if err := json.Unmarshal(data, &status); err != nil {
		t.Fatal(err)
	}
	if status.State != StateDone {
		t.Fatalf("state = %q, want done (error %q)", status.State, status.Error)
	}

	var wire strings.Builder
	err := svc.lookup(status.ID).Events(context.Background(), func(batch []Event) error {
		for _, ev := range batch {
			fmt.Fprintf(&wire, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, ev.Data)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	streamOnce := func() []sseEvent {
		resp, err := http.Get(ts.URL + "/v1/campaigns/" + status.ID + "/events")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
			t.Fatalf("Content-Type = %q", ct)
		}
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if string(raw) != wire.String() {
			t.Errorf("stream bytes diverge from the framed event log:\n%q\nvs\n%q", raw, wire.String())
		}
		return parseSSE(t, string(raw))
	}

	evs := streamOnce()
	want := []string{"running", "snapshot", "stats"}
	if len(evs) != len(want) {
		t.Fatalf("got %d events, want %d: %+v", len(evs), len(want), evs)
	}
	for i, ev := range evs {
		if ev.id != i {
			t.Errorf("event %d has id %d", i, ev.id)
		}
		if ev.event != want[i] {
			t.Errorf("event %d = %q, want %q", i, ev.event, want[i])
		}
	}

	// The final snapshot covers every scenario of the job.
	var snap struct {
		Runs int64 `json:"runs"`
	}
	if err := json.Unmarshal([]byte(evs[1].data), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Runs != 81 {
		t.Errorf("final snapshot runs = %d, want 81", snap.Runs)
	}

	// Byte-identical contract: the terminal stats event equals the same
	// job run through the facade in-process.
	var spec JobSpec
	if err := json.Unmarshal([]byte(validSpec), &spec); err != nil {
		t.Fatal(err)
	}
	compiled, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := compiled.sys.RunSource(context.Background(), compiled.src)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(direct)
	if err != nil {
		t.Fatal(err)
	}
	if evs[2].data != string(wantJSON) {
		t.Errorf("stats event diverges from in-process run:\n%s\nvs\n%s", evs[2].data, wantJSON)
	}

	// A replayed subscription sees the identical stream.
	again := streamOnce()
	if len(again) != len(evs) {
		t.Fatalf("replay returned %d events, want %d", len(again), len(evs))
	}
	for i := range evs {
		if again[i] != evs[i] {
			t.Errorf("replayed event %d diverges:\n%+v\nvs\n%+v", i, again[i], evs[i])
		}
	}
}

// TestFinalSnapshotIsCampaignMetrics pins the post-run snapshot of a
// completed job at several worker counts: its bytes are the terminal stats
// event's "metrics", and those of an accumulator that an in-process run of
// the same spec fed through CollectInto — what the job's kset.Progress
// handle reads once the run has ended.
func TestFinalSnapshotIsCampaignMetrics(t *testing.T) {
	svc, ts := newTestServer(t, Config{SnapshotInterval: time.Hour})
	for _, workers := range []int{1, 2, 4, 7} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			body := fmt.Sprintf(`{
				"params": {"n": 6, "t": 3, "k": 2, "d": 1, "l": 1},
				"condition": {"kind": "max", "m": 4},
				"source": {"kind": "random", "seed": 5, "count": 300},
				"failures": {"kind": "random", "seed": 7, "count": 4},
				"workers": %d
			}`, workers)
			resp, data := post(t, ts.URL+"/v1/campaigns?wait=1", body)
			var status statusPayload
			if err := json.Unmarshal(data, &status); err != nil || resp.StatusCode != http.StatusOK || status.State != StateDone {
				t.Fatalf("submit: status %d: %s", resp.StatusCode, data)
			}
			var snapshot, terminal Event
			err := svc.lookup(status.ID).Events(context.Background(), func(batch []Event) error {
				for _, ev := range batch {
					if ev.Type == "snapshot" {
						snapshot = ev
					}
					terminal = ev
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			var final struct {
				Runs    int64           `json:"runs"`
				Metrics json.RawMessage `json:"metrics"`
			}
			if err := json.Unmarshal(terminal.Data, &final); err != nil || terminal.Type != "stats" {
				t.Fatalf("terminal event %q: %s", terminal.Type, terminal.Data)
			}
			if final.Runs != 1200 {
				t.Fatalf("job ran %d scenarios, want 1200", final.Runs)
			}
			if !bytes.Equal(snapshot.Data, final.Metrics) {
				t.Errorf("last snapshot diverges from the stats event's metrics:\n%s\nvs\n%s", snapshot.Data, final.Metrics)
			}

			var spec JobSpec
			if err := json.Unmarshal([]byte(body), &spec); err != nil {
				t.Fatal(err)
			}
			compiled, err := Compile(spec)
			if err != nil {
				t.Fatal(err)
			}
			acc := kset.NewAccumulator()
			if _, err := compiled.sys.RunSource(context.Background(), compiled.src, compiled.options([]kset.CampaignOption{kset.CollectInto(acc)})...); err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(acc)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(snapshot.Data, want) {
				t.Errorf("last snapshot diverges from an in-process CollectInto accumulator:\n%s\nvs\n%s", snapshot.Data, want)
			}
		})
	}
}

// TestSnapshotMonotone runs a job with a fast ticker and checks every
// streamed snapshot's run counter is non-decreasing and the stream still
// terminates in the stats event.
func TestSnapshotMonotone(t *testing.T) {
	_, ts := newTestServer(t, Config{SnapshotInterval: time.Millisecond})
	body := `{
		"params": {"n": 4, "t": 2, "k": 1, "d": 1, "l": 1},
		"condition": {"kind": "max", "m": 3},
		"source": {"kind": "random", "seed": 3, "count": 5000}
	}`
	resp, data := post(t, ts.URL+"/v1/campaigns", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, data)
	}
	var status statusPayload
	if err := json.Unmarshal(data, &status); err != nil {
		t.Fatal(err)
	}

	get, err := http.Get(ts.URL + "/v1/campaigns/" + status.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer get.Body.Close()
	raw, err := io.ReadAll(get.Body)
	if err != nil {
		t.Fatal(err)
	}
	evs := parseSSE(t, string(raw))
	if len(evs) < 3 {
		t.Fatalf("only %d events: %+v", len(evs), evs)
	}
	if evs[len(evs)-1].event != "stats" {
		t.Fatalf("terminal event = %q, want stats", evs[len(evs)-1].event)
	}
	var prev int64 = -1
	snapshots := 0
	for _, ev := range evs {
		if ev.event != "snapshot" {
			continue
		}
		snapshots++
		var snap struct {
			Runs int64 `json:"runs"`
		}
		if err := json.Unmarshal([]byte(ev.data), &snap); err != nil {
			t.Fatal(err)
		}
		if snap.Runs < prev {
			t.Fatalf("snapshot runs regressed: %d after %d", snap.Runs, prev)
		}
		prev = snap.Runs
	}
	if snapshots == 0 {
		t.Fatal("no snapshots streamed")
	}
	if prev != 5000 {
		t.Errorf("last snapshot runs = %d, want 5000", prev)
	}
}

// TestSnapshotLogBounded: a job's log keeps one snapshot however many
// the ticker publishes. A live subscriber still sees ids strictly
// increasing up to a final snapshot that covers every run; one arriving
// after the end sees running, that snapshot and the terminal event.
func TestSnapshotLogBounded(t *testing.T) {
	svc, ts := newTestServer(t, Config{SnapshotInterval: time.Millisecond})
	resp, data := post(t, ts.URL+"/v1/campaigns", `{
		"params": {"n": 4, "t": 2, "k": 1, "d": 1, "l": 1},
		"condition": {"kind": "max", "m": 3},
		"source": {"kind": "random", "seed": 3, "count": 5000}
	}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, data)
	}
	var status statusPayload
	if err := json.Unmarshal(data, &status); err != nil {
		t.Fatal(err)
	}
	j := svc.lookup(status.ID)

	// follow drains the job's stream, checking the log's length at every
	// delivery, and returns what it saw.
	follow := func() []Event {
		var seen []Event
		err := j.Events(context.Background(), func(batch []Event) error {
			j.mu.Lock()
			n := len(j.events)
			j.mu.Unlock()
			if n > maxLogEvents {
				t.Errorf("log holds %d events, want at most %d", n, maxLogEvents)
			}
			seen = append(seen, batch...)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(seen); i++ {
			if seen[i].Seq <= seen[i-1].Seq {
				t.Fatalf("event ids not increasing: %d after %d", seen[i].Seq, seen[i-1].Seq)
			}
		}
		return seen
	}
	checkEnds := func(who string, seen []Event) {
		t.Helper()
		if len(seen) < 3 || seen[0].Type != "running" || seen[len(seen)-1].Type != "stats" {
			t.Fatalf("%s subscriber saw %+v", who, seen)
		}
		last := seen[len(seen)-2]
		var snap struct {
			Runs int64 `json:"runs"`
		}
		if err := json.Unmarshal(last.Data, &snap); err != nil {
			t.Fatal(err)
		}
		if last.Type != "snapshot" || snap.Runs != 5000 {
			t.Errorf("%s subscriber: event before the terminal one is %q covering %d runs, want the snapshot of all 5000", who, last.Type, snap.Runs)
		}
	}
	live := follow()
	checkEnds("live", live)
	late := follow()
	checkEnds("late", late)
	if len(late) != maxLogEvents {
		t.Errorf("late subscriber saw %d events, want %d", len(late), maxLogEvents)
	}
	if got, want := late[len(late)-1], live[len(live)-1]; got.Seq != want.Seq || !bytes.Equal(got.Data, want.Data) {
		t.Errorf("terminal events differ: late %d, live %d", got.Seq, want.Seq)
	}
}

// TestCancelRunningJob cancels an in-flight job via DELETE and checks
// the stream terminates with the canceled event and the job settles in
// StateCanceled without counting aborted runs as errors, its last
// snapshot covering the runs it completed.
func TestCancelRunningJob(t *testing.T) {
	svc, ts := newTestServer(t, Config{SnapshotInterval: time.Hour})
	body := `{
		"params": {"n": 6, "t": 3, "k": 2, "d": 1, "l": 1},
		"condition": {"kind": "max", "m": 4},
		"source": {"kind": "random", "seed": 9, "count": 50000000},
		"failures": {"kind": "staggered"}
	}`
	resp, data := post(t, ts.URL+"/v1/campaigns", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, data)
	}
	var status statusPayload
	if err := json.Unmarshal(data, &status); err != nil {
		t.Fatal(err)
	}
	j := svc.lookup(status.ID)
	if j == nil {
		t.Fatal("job not registered")
	}

	// Wait until the job is demonstrably running, then cancel it.
	deadline := time.Now().Add(10 * time.Second)
	for j.Status(false).Runs == 0 {
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(time.Millisecond)
	}
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/campaigns/"+status.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}

	select {
	case <-j.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("job did not settle after DELETE")
	}
	final := j.Status(true)
	if final.State != StateCanceled {
		t.Fatalf("state = %q, want canceled", final.State)
	}
	if final.Runs == 0 || final.Runs >= 50000000 {
		t.Fatalf("runs = %d, want partial progress", final.Runs)
	}
	// A canceled job still serves what it completed.
	if stats := statsOf(t, final); stats == nil || stats.Runs != final.Runs {
		t.Fatalf("canceled job's stats = %s, want the stats of its %d runs", final.Stats, final.Runs)
	}

	get, err := http.Get(ts.URL + "/v1/campaigns/" + status.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer get.Body.Close()
	raw, err := io.ReadAll(get.Body)
	if err != nil {
		t.Fatal(err)
	}
	evs := parseSSE(t, string(raw))
	last := evs[len(evs)-1]
	if last.event != "canceled" {
		t.Fatalf("terminal event = %q, want canceled: %+v", last.event, evs)
	}
	// The terminal event is the error with those same stats beside it: one
	// encoding, served by the stream and the GET alike.
	var aborted struct {
		Code  string          `json:"code"`
		Stats json.RawMessage `json:"stats"`
	}
	if err := json.Unmarshal([]byte(last.data), &aborted); err != nil {
		t.Fatal(err)
	}
	if aborted.Code != "canceled" || !bytes.Equal(aborted.Stats, final.Stats) {
		t.Fatalf("canceled event = %s, want code canceled and the stats the GET serves", last.data)
	}
	// The snapshot before it, the metrics of the canceled campaign's
	// stats, covers exactly the runs the job counts.
	snapshot := evs[len(evs)-2]
	var snap struct {
		Runs int64 `json:"runs"`
	}
	if err := json.Unmarshal([]byte(snapshot.data), &snap); err != nil || snapshot.event != "snapshot" {
		t.Fatalf("event before the terminal one = %q: %s", snapshot.event, snapshot.data)
	}
	if snap.Runs != final.Runs {
		t.Fatalf("last snapshot covers %d runs, the canceled job %d", snap.Runs, final.Runs)
	}
}

// TestCancelRunningSweep cancels a sweep job partway through a grid
// point. The terminal event's results keep the points that completed;
// the job's run count and its last snapshot keep the canceled point's
// runs too, and agree.
func TestCancelRunningSweep(t *testing.T) {
	svc, ts := newTestServer(t, Config{SnapshotInterval: time.Hour})
	// The members of max conditions at n = 10, m = 4: 25 594 at d = 0,
	// then 95 146, 261 886, … as d grows.
	resp, data := post(t, ts.URL+"/v1/campaigns", `{
		"params": {"n": 10, "t": 5, "k": 2, "l": 1},
		"sweep": {"kind": "degrees", "m": 4},
		"source": {"kind": "members"}
	}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, data)
	}
	var status statusPayload
	if err := json.Unmarshal(data, &status); err != nil {
		t.Fatal(err)
	}
	j := svc.lookup(status.ID)

	// Past the first point, then cancel.
	deadline := time.Now().Add(30 * time.Second)
	for j.Status(false).Runs <= 25594 {
		if time.Now().After(deadline) {
			t.Fatal("the sweep never got past its first point")
		}
		time.Sleep(time.Millisecond)
	}
	j.Cancel()
	<-j.Done()

	final := j.Status(true)
	if final.State != StateCanceled {
		t.Fatalf("state = %q, want canceled", final.State)
	}
	var sweep []kset.SweepResult
	if err := json.Unmarshal(final.Sweep, &sweep); err != nil {
		t.Fatalf("sweep payload: %v\n%s", err, final.Sweep)
	}
	var completed int64
	for _, r := range sweep {
		completed += r.Stats.Runs
	}
	t.Logf("%d runs, %d points completed with %d", final.Runs, len(sweep), completed)
	if len(sweep) == 0 || final.Runs <= completed {
		t.Fatalf("canceled sweep counts %d runs over %d completed points of %d runs, want more",
			final.Runs, len(sweep), completed)
	}
	var last Event
	err := j.Events(context.Background(), func(batch []Event) error {
		for _, ev := range batch {
			if ev.Type == "snapshot" {
				last = ev
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Runs int64 `json:"runs"`
	}
	if err := json.Unmarshal(last.Data, &snap); err != nil {
		t.Fatalf("last snapshot %q: %v", last.Data, err)
	}
	if snap.Runs != final.Runs {
		t.Fatalf("last snapshot covers %d runs, the canceled sweep %d", snap.Runs, final.Runs)
	}
}

// TestCancelQueuedJob cancels a job that never left its queue: with a
// single busy slot, the queued job must settle as canceled without
// running a single scenario.
func TestCancelQueuedJob(t *testing.T) {
	svc, ts := newTestServer(t, Config{MaxActive: 1, SnapshotInterval: time.Hour})
	blocker := `{
		"params": {"n": 6, "t": 3, "k": 2, "d": 1, "l": 1},
		"condition": {"kind": "max", "m": 4},
		"source": {"kind": "random", "seed": 9, "count": 50000000}
	}`
	resp, data := post(t, ts.URL+"/v1/campaigns", blocker)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("blocker: status %d: %s", resp.StatusCode, data)
	}
	var blockerStatus statusPayload
	if err := json.Unmarshal(data, &blockerStatus); err != nil {
		t.Fatal(err)
	}
	resp, data = post(t, ts.URL+"/v1/campaigns", validSpec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("queued: status %d: %s", resp.StatusCode, data)
	}
	var queued statusPayload
	if err := json.Unmarshal(data, &queued); err != nil {
		t.Fatal(err)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/campaigns/"+queued.ID, nil)
	if resp, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	j := svc.lookup(queued.ID)
	select {
	case <-j.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("queued job did not settle after DELETE")
	}
	if st := j.Status(false); st.State != StateCanceled || st.Runs != 0 {
		t.Fatalf("queued job: state %q runs %d, want canceled with 0 runs", st.State, st.Runs)
	}

	// Unblock the busy slot so Cleanup does not wait on a monster job.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/campaigns/"+blockerStatus.ID, nil)
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
	}
	<-svc.lookup(blockerStatus.ID).Done()
}

// TestWaitDisconnectCancels submits with ?wait=1 and drops the client:
// the in-flight job must be canceled by the disconnect.
func TestWaitDisconnectCancels(t *testing.T) {
	svc, ts := newTestServer(t, Config{SnapshotInterval: time.Hour})
	body := `{
		"params": {"n": 6, "t": 3, "k": 2, "d": 1, "l": 1},
		"condition": {"kind": "max", "m": 4},
		"source": {"kind": "random", "seed": 11, "count": 50000000}
	}`
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/campaigns?wait=1", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}()

	// Wait for the job to appear and start, then sever the client.
	var j *Job
	deadline := time.Now().Add(10 * time.Second)
	for j == nil || j.Status(false).Runs == 0 {
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		j = svc.lookup("j-1")
		time.Sleep(time.Millisecond)
	}
	cancel()
	<-done
	select {
	case <-j.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("job not canceled by client disconnect")
	}
	if st := j.Status(false); st.State != StateCanceled {
		t.Fatalf("state = %q, want canceled", st.State)
	}
}

// TestGracefulDrain submits work, drains, and checks the contract: the
// accepted jobs all finish, and post-drain submissions are rejected with
// the structured 503.
func TestGracefulDrain(t *testing.T) {
	svc, ts := newTestServer(t, Config{MaxActive: 2})
	const jobs = 6
	ids := make([]string, jobs)
	for i := range ids {
		resp, data := post(t, ts.URL+"/v1/campaigns", validSpec)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: status %d: %s", i, resp.StatusCode, data)
		}
		var st statusPayload
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatal(err)
		}
		ids[i] = st.ID
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := svc.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	for _, id := range ids {
		if st := svc.lookup(id).Status(false); st.State != StateDone {
			t.Errorf("job %s: state %q after drain, want done", id, st.State)
		}
	}

	resp, data := post(t, ts.URL+"/v1/campaigns", validSpec)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain submit: status %d, want 503: %s", resp.StatusCode, data)
	}
	var body struct {
		Error errorBody `json:"error"`
	}
	if err := json.Unmarshal(data, &body); err != nil || body.Error.Code != "draining" {
		t.Fatalf("post-drain body = %s (decode err %v), want code draining", data, err)
	}
	resp, data = post(t, ts.URL+"/v1/experiments/E2", "")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain experiment: status %d, want 503: %s", resp.StatusCode, data)
	}
}

// TestStatusAndList exercises the read endpoints: status carries the
// terminal stats, the list filters by tenant, unknown IDs 404.
func TestStatusAndList(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	submit := func(tenant string) statusPayload {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/campaigns?wait=1", strings.NewReader(validSpec))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Tenant", tenant)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("submit: status %d: %s", resp.StatusCode, data)
		}
		var st statusPayload
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatal(err)
		}
		return st
	}
	a := submit("alice")
	b := submit("bob")
	if a.Tenant != "alice" || b.Tenant != "bob" {
		t.Fatalf("tenants = %q, %q", a.Tenant, b.Tenant)
	}
	if stats := statsOf(t, a); a.State != StateDone || stats == nil || stats.Runs != 81 {
		t.Fatalf("terminal status lacks stats: %+v", a)
	}

	resp, data := func() (*http.Response, []byte) {
		resp, err := http.Get(ts.URL + "/v1/campaigns?tenant=alice")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		d, _ := io.ReadAll(resp.Body)
		return resp, d
	}()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list: status %d", resp.StatusCode)
	}
	var list struct {
		Jobs []statusPayload `json:"jobs"`
	}
	if err := json.Unmarshal(data, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 1 || list.Jobs[0].ID != a.ID {
		t.Fatalf("tenant filter returned %+v", list.Jobs)
	}

	if resp, err := http.Get(ts.URL + "/v1/campaigns/j-999"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("unknown id: status %d, want 404", resp.StatusCode)
		}
	}
}

// TestSweepJob submits a degree-sweep job and checks the terminal event
// is the keyed per-degree result list.
func TestSweepJob(t *testing.T) {
	_, ts := newTestServer(t, Config{SnapshotInterval: time.Hour})
	body := `{
		"params": {"n": 4, "t": 2, "k": 1, "l": 1},
		"sweep": {"kind": "degrees", "m": 3},
		"source": {"kind": "members"}
	}`
	resp, data := post(t, ts.URL+"/v1/campaigns?wait=1", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, data)
	}
	var st statusPayload
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone {
		t.Fatalf("state = %q (error %q)", st.State, st.Error)
	}
	var sweep []kset.SweepResult
	if err := json.Unmarshal(st.Sweep, &sweep); err != nil {
		t.Fatalf("sweep payload: %v\n%s", err, st.Sweep)
	}
	// Degrees d = 0..t−ℓ = 0, 1.
	if len(sweep) != 2 || sweep[0].Key != "d=0" || sweep[1].Key != "d=1" {
		t.Fatalf("sweep results = %s, want keys d=0, d=1", st.Sweep)
	}
	for _, r := range sweep {
		if r.Stats == nil || r.Stats.Runs == 0 {
			t.Fatalf("sweep point %s has no runs", r.Key)
		}
	}
}

// TestExperimentEndpoints lists the registry and runs one experiment
// with an override.
func TestExperimentEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/experiments")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list: status %d", resp.StatusCode)
	}
	var list struct {
		Experiments []struct {
			ID string `json:"id"`
		} `json:"experiments"`
	}
	if err := json.Unmarshal(data, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Experiments) != 11 || list.Experiments[0].ID != "E1" {
		t.Fatalf("registry listing = %+v", list.Experiments)
	}

	resp, data = post(t, ts.URL+"/v1/experiments/E1", `{"params": {"n": 3, "m": 2, "xmax": 1, "lmax": 2}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run E1: status %d: %s", resp.StatusCode, data)
	}
	var report struct {
		ID     string         `json:"id"`
		OK     bool           `json:"ok"`
		Params map[string]int `json:"params"`
	}
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatal(err)
	}
	if report.ID != "E1" || !report.OK || report.Params["n"] != 3 {
		t.Fatalf("report = %+v", report)
	}

	resp, data = post(t, ts.URL+"/v1/experiments/E99", "")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown experiment: status %d: %s", resp.StatusCode, data)
	}
}

// TestExperimentOverridesOnlyShrink: the experiment route runs inline, so
// for every registered spec and every key of its defaults a value below 0
// or above the default is a structured 400 bad_params — as is a key the
// spec does not have — and nothing is run. The seed is free.
func TestExperimentOverridesOnlyShrink(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	refused := func(id, key string, v int) {
		t.Helper()
		resp, data := post(t, ts.URL+"/v1/experiments/"+id, fmt.Sprintf(`{"params": {%q: %d}}`, key, v))
		var body struct {
			Error errorBody `json:"error"`
		}
		if err := json.Unmarshal(data, &body); err != nil || resp.StatusCode != http.StatusBadRequest || body.Error.Code != "bad_params" {
			t.Errorf("%s %s=%d: status %d, body %s; want 400 bad_params", id, key, v, resp.StatusCode, data)
		}
	}
	for _, sp := range experiments.Registry() {
		for key, def := range sp.Defaults {
			if key == "seed" {
				continue
			}
			refused(sp.ID, key, -1)
			refused(sp.ID, key, def+1)
		}
		refused(sp.ID, "no-such-parameter", 0)
	}
	resp, data := post(t, ts.URL+"/v1/experiments/E11", `{"params": {"trials": 1, "seed": -7}}`)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("E11 with fewer trials and another seed: status %d: %s", resp.StatusCode, data)
	}
}

// TestHealthz pins the liveness probe.
func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body bytes.Buffer
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !strings.Contains(body.String(), `"ok"`) {
		t.Fatalf("healthz: %d %s", resp.StatusCode, body.String())
	}
}
