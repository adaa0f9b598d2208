package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
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
	tb.Helper()
	raw, err := os.ReadFile("testdata/jobspecs_v1.json")
	if err != nil {
		tb.Fatal(err)
	}
	var set struct {
		Version     int          `json:"version"`
		Format      string       `json:"format"`
		Description string       `json:"description"`
		Vectors     []specVector `json:"vectors"`
	}
	if err := json.Unmarshal(raw, &set); err != nil {
		tb.Fatalf("testdata/jobspecs_v1.json: %v", err)
	}
	if set.Version != 1 || set.Format != "application/json" || len(set.Vectors) == 0 {
		tb.Fatalf("testdata/jobspecs_v1.json: version %d, format %q, %d vectors", set.Version, set.Format, len(set.Vectors))
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
