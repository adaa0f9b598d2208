package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"testing"
	"time"

	"kset"
)

// specVector is one entry of testdata/jobspecs_v1.json: a JobSpec body and
// the error code Compile's verdict maps to ("" when it is accepted).
type specVector struct {
	Name string          `json:"name"`
	Code string          `json:"code"`
	Spec json.RawMessage `json:"spec"`
}

func loadSpecVectors(tb testing.TB) []specVector {
	return loadVectors[specVector](tb, "testdata/jobspecs_v1.json")
}

// mergeVector is one entry of testdata/merge_v1.json: a POST /v1/merge body
// and the error code it is refused with ("" when it merges).
type mergeVector struct {
	Name string `json:"name"`
	Code string `json:"code"`
	Body string `json:"body"`
}

func loadMergeVectors(tb testing.TB) []mergeVector {
	return loadVectors[mergeVector](tb, "testdata/merge_v1.json")
}

// loadVectors reads a version-1 vector file: its version, format and
// description, then the vectors.
func loadVectors[V any](tb testing.TB, path string) []V {
	tb.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	var set struct {
		Version     int    `json:"version"`
		Format      string `json:"format"`
		Description string `json:"description"`
		Vectors     []V    `json:"vectors"`
	}
	if err := json.Unmarshal(raw, &set); err != nil {
		tb.Fatalf("%s: %v", path, err)
	}
	if set.Version != 1 || set.Format != "application/json" || len(set.Vectors) == 0 {
		tb.Fatalf("%s: version %d, format %q, %d vectors", path, set.Version, set.Format, len(set.Vectors))
	}
	return set.Vectors
}

// compileBound is how long one Compile may take, whatever the spec: the
// slowest vector — the largest crash family at the process bound, shared by
// 254 sweep points — compiles in some 40 ms, and the specs the bounds on n
// and on the family sizes exist for took 3 to 16 s.
const compileBound = 2 * time.Second

// FuzzJobSpecCompile feeds Compile whatever decodes as a JobSpec — the
// bytes a POST /v1/campaigns body may carry. Compile runs in the handler,
// before the job is queued or cancellable, so it must never panic, must
// return within compileBound, and must wrap one of the three sentinels the
// error table maps to a 400 in every error it returns.
func FuzzJobSpecCompile(f *testing.F) {
	for _, v := range loadSpecVectors(f) {
		f.Add([]byte(v.Spec))
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"params": {"n": -1, "t": -1, "k": -1, "d": -1, "l": -1}, "source": {"kind": "inputs"}}`))
	// Bytes after a spec make the body a bad_json, whatever the spec.
	f.Add([]byte(`{"source": {"kind": "exhaustive"}}{"params": {"n": "oops"}}`))
	f.Add([]byte(`{"source": {"kind": "exhaustive"}} trailing garbage`))
	f.Fuzz(func(t *testing.T, body []byte) {
		spec, err := decodeSpec(bytes.NewReader(body))
		if err != nil {
			return // a bad_json 400: Compile never sees it
		}
		start := time.Now()
		compiled, err := Compile(spec)
		if elapsed := time.Since(start); elapsed > compileBound {
			t.Errorf("Compile took %v, bound %v: %s", elapsed, compileBound, body)
		}
		switch {
		case err == nil && compiled == nil:
			t.Errorf("Compile returned neither a job nor an error: %s", body)
		case err != nil && !errors.Is(err, kset.ErrBadParams) && !errors.Is(err, kset.ErrDomainTooLarge) && !errors.Is(err, kset.ErrBadInput):
			t.Errorf("Compile error %q wraps no sentinel: %s", err, body)
		}
	})
}

// mergeBodyBound is the body cap of the server FuzzMergeBody posts to: a
// larger body must be the structured 413, and no body the handler decodes
// is larger. The seeds are under 2 KiB.
const mergeBodyBound = 64 << 10

// mergeBound is how long one merge may take, whatever the body: decoding
// and merging a capped body is linear in it, some milliseconds.
const mergeBound = 2 * time.Second

// postMerge serves one POST /v1/merge on h and returns the status and body.
func postMerge(h http.Handler, body []byte) (int, []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/merge", bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// FuzzMergeBody feeds POST /v1/merge arbitrary bytes, through the server's
// body cap. The handler decodes and merges in the request, so it must never
// panic and must answer within mergeBound: a 200 whose shard count is the
// number of shards and whose stats, uploaded again as the one shard, merge
// to the same bytes; or a structured error — a 413 body_too_large, a 400
// bad_json, no_shards or bad_shard — with a message.
func FuzzMergeBody(f *testing.F) {
	for _, v := range loadMergeVectors(f) {
		f.Add([]byte(v.Body))
	}
	s := NewServer(Config{MaxBodyBytes: mergeBodyBound})
	f.Cleanup(s.Close)
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		start := time.Now()
		status, data := postMerge(h, body)
		if elapsed := time.Since(start); elapsed > mergeBound {
			t.Errorf("merge took %v, bound %v: %q", elapsed, mergeBound, body)
		}
		if status != http.StatusOK {
			var reply struct {
				Error errorBody `json:"error"`
			}
			err := json.Unmarshal(data, &reply)
			want := map[int][]string{
				http.StatusRequestEntityTooLarge: {"body_too_large"},
				http.StatusBadRequest:            {"bad_json", "no_shards", "bad_shard"},
			}[status]
			if err != nil || !slices.Contains(want, reply.Error.Code) || reply.Error.Message == "" {
				t.Errorf("status %d, reply %s: not a structured error of that status: %q", status, data, body)
			}
			return
		}
		var in struct {
			Shards []json.RawMessage `json:"shards"`
		}
		var out struct {
			Shards int             `json:"shards"`
			Stats  json.RawMessage `json:"stats"`
		}
		if err := json.Unmarshal(body, &in); err != nil {
			t.Fatalf("merged a body that does not decode (%v): %q", err, body)
		}
		if err := json.Unmarshal(data, &out); err != nil || out.Shards != len(in.Shards) || len(out.Stats) == 0 {
			t.Fatalf("reply %s to %d shards: %q", data, len(in.Shards), body)
		}
		again, data2 := postMerge(h, []byte(`{"shards":[`+string(out.Stats)+`]}`))
		var out2 struct {
			Stats json.RawMessage `json:"stats"`
		}
		if err := json.Unmarshal(data2, &out2); again != http.StatusOK || err != nil || !bytes.Equal(out2.Stats, out.Stats) {
			t.Errorf("merged stats uploaded again: status %d, stats\n%s\nwant\n%s\nfrom %q", again, out2.Stats, out.Stats, body)
		}
	})
}
