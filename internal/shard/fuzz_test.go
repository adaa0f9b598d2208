package shard

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"kset/internal/stats"
)

// FuzzCheckpointDecode feeds the strict checkpoint decoder arbitrary
// bytes: it must never panic, reject everything invalid with
// ErrBadCheckpoint, and round-trip everything it accepts byte-
// identically — the crash-tolerance contract of a decoder whose one job
// is re-reading a possibly corrupt file after a crash.
func FuzzCheckpointDecode(f *testing.F) {
	valid, err := sampleCheckpoint().Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte(`{"version":1,"cursor":{"lo":0,"hi":0},"runs_done":0}`))
	f.Add([]byte(`{"version":99,"cursor":{"lo":0,"hi":1},"runs_done":0}`))
	f.Add([]byte(`{"version":1,"cursor":{"lo":9,"hi":2},"runs_done":0}`))
	f.Add([]byte(`{"version":1,"cursor":{"lo":0,"hi":2},"runs_done":1}`))
	f.Add([]byte(`{"version":1,"cursor":{"lo":0,"hi":1},"runs_done":0,"extra":true}`))
	f.Add([]byte(`{"version":1,"cursor":{"lo":0,"hi":1},"runs_done":0,"stats":{"runs":0,"by_executor":{"x":null}}}`))
	f.Add([]byte(`{"version":1,"cursor":{"lo":0,"hi":1},"runs_done":1,"stats":{"runs":1,"rounds":{"counts":[1` + strings.Repeat(",0", stats.HistogramBuckets) + `]}}}`))
	f.Add([]byte(`{"version":1,"cursor":{"lo":0,"hi":1},"runs_done":1,"stats":{"runs":1,"condition_hits":-1,"rounds":{"counts":[1]}}}`))
	f.Add(valid[:len(valid)/2])
	f.Add(append(append([]byte{}, valid...), '0'))
	f.Add([]byte(`null`))
	f.Add([]byte(``))
	f.Add([]byte(`[{}]`))

	f.Fuzz(func(t *testing.T, data []byte) {
		cp, err := Decode(data)
		if err != nil {
			if !errors.Is(err, ErrBadCheckpoint) {
				t.Fatalf("Decode error %v does not wrap ErrBadCheckpoint", err)
			}
			return
		}
		// Whatever the decoder accepts must be valid and re-encodable,
		// and the re-encoding must decode to the same envelope bytes.
		enc, err := cp.Encode()
		if err != nil {
			t.Fatalf("accepted checkpoint fails Encode: %v", err)
		}
		again, err := Decode(enc)
		if err != nil {
			t.Fatalf("re-encoding fails Decode: %v", err)
		}
		re, err := again.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, re) {
			t.Fatalf("encode→decode→encode not stable:\n%s\nvs\n%s", enc, re)
		}
	})
}
