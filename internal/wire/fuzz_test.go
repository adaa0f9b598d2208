package wire

import (
	"bytes"
	"errors"
	"testing"

	"kset/internal/kerr"
)

// FuzzFrameDecode pins the decoder's three robustness properties on
// arbitrary input: it never panics, every rejection wraps the codec
// sentinel kerr.ErrBadFrame, and every accepted frame is canonical — it
// re-encodes to exactly the input bytes (so there is a bijection between
// valid frames and their encodings, and a receiver can cache or compare
// raw datagrams safely). Peek must never reject what DecodeFrame accepts.
func FuzzFrameDecode(f *testing.F) {
	set := loadFrameVectors(f)
	for _, v := range set.Accept {
		enc := v.bytes(f)
		n := len(enc)
		f.Add(enc)
		// Corrupted siblings of each valid seed.
		for _, mut := range []int{0, 1, 2, 6, n - 1} {
			if mut >= n {
				continue
			}
			c := bytes.Clone(enc)
			c[mut] ^= 0x80
			f.Add(c)
		}
		f.Add(enc[:n-1])
		f.Add(append(bytes.Clone(enc), 0))
	}
	for _, v := range set.RejectV1 {
		f.Add(v.bytes(f))
	}
	f.Add([]byte{})
	f.Add([]byte{Version})
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := DecodeFrame(data)
		if err != nil {
			if !errors.Is(err, kerr.ErrBadFrame) {
				t.Fatalf("decode error %v does not wrap kerr.ErrBadFrame", err)
			}
			return
		}
		var buf [MaxFrame]byte
		n, err := EncodeFrame(buf[:], &fr)
		if err != nil {
			t.Fatalf("accepted frame %+v does not re-encode: %v", fr, err)
		}
		if !bytes.Equal(buf[:n], data) {
			t.Fatalf("accepted frame is not canonical: decoded %+v, re-encoded %x from %x", fr, buf[:n], data)
		}
		if _, _, _, _, ok := Peek(data, 0); !ok {
			t.Fatalf("Peek rejects a frame DecodeFrame accepts: %x", data)
		}
	})
}
