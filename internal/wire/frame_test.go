package wire

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"os"
	"testing"

	"kset/internal/core"
	"kset/internal/kerr"
	"kset/internal/rounds"
	"kset/internal/vector"
)

// mustEncode encodes f or fails the test.
func mustEncode(t *testing.T, f *Frame) []byte {
	t.Helper()
	var buf [MaxFrame]byte
	n, err := EncodeFrame(buf[:], f)
	if err != nil {
		t.Fatalf("EncodeFrame(%+v): %v", f, err)
	}
	return buf[:n]
}

// frameVector is one entry of testdata/frames_v2.json: the bytes on the
// link and, for an accepted frame, the fields they stand for.
type frameVector struct {
	Name   string  `json:"name"`
	Hex    string  `json:"hex"`
	Type   string  `json:"type"`
	Round  int     `json:"round"`
	Src    int     `json:"src"`
	Dst    int     `json:"dst"`
	Value  *int    `json:"value"`
	State  *[3]int `json:"state"` // cond, out, tmf
	Early  bool    `json:"early"`
	Decide bool    `json:"decide"`
}

// bytes decodes the vector's hex form.
func (v frameVector) bytes(tb testing.TB) []byte {
	tb.Helper()
	b, err := hex.DecodeString(v.Hex)
	if err != nil {
		tb.Fatalf("vector %q: %v", v.Name, err)
	}
	return b
}

// frame builds the Frame an accept vector describes.
func (v frameVector) frame(tb testing.TB) Frame {
	tb.Helper()
	f := Frame{Round: v.Round, Src: rounds.ProcessID(v.Src), Dst: rounds.ProcessID(v.Dst)}
	for _, ft := range []FrameType{TypeData, TypeAck, TypeFin, TypeFinAck} {
		if ft.String() == v.Type {
			f.Type = ft
		}
	}
	switch {
	case f.Type == 0 || (v.Value != nil && v.State != nil) || (v.Decide && !v.Early):
		tb.Fatalf("vector %q is malformed", v.Name)
	case v.Value != nil:
		f.Payload = vector.Value(*v.Value)
	case v.State != nil:
		f.Payload = &core.StateMsg{Cond: vector.Value(v.State[0]), Out: vector.Value(v.State[1]), Tmf: vector.Value(v.State[2])}
	}
	if v.Early {
		f.Payload = &core.EarlyMsg{Payload: f.Payload, Flag: v.Decide}
	}
	return f
}

// frameVectors is the versioned frame corpus: every frame type and payload
// shape in its pinned v2 bytes, and the v1 encodings v2 must refuse.
type frameVectors struct {
	Version  int           `json:"version"`
	Accept   []frameVector `json:"accept"`
	RejectV1 []frameVector `json:"reject_v1"`
}

func loadFrameVectors(tb testing.TB) frameVectors {
	tb.Helper()
	raw, err := os.ReadFile("testdata/frames_v2.json")
	if err != nil {
		tb.Fatal(err)
	}
	var set frameVectors
	if err := json.Unmarshal(raw, &set); err != nil {
		tb.Fatalf("testdata/frames_v2.json: %v", err)
	}
	if set.Version != 2 || len(set.Accept) == 0 || len(set.RejectV1) == 0 {
		tb.Fatalf("testdata/frames_v2.json: version %d with %d accept and %d v1 vectors", set.Version, len(set.Accept), len(set.RejectV1))
	}
	return set
}

// roundTripFrames is the shared corpus of valid frames: the vector file's
// accept side — every type, every payload shape, the early wrapper with
// and without its flag, and the field extremes.
func roundTripFrames(tb testing.TB) []Frame {
	tb.Helper()
	set := loadFrameVectors(tb)
	frames := make([]Frame, len(set.Accept))
	for i, v := range set.Accept {
		frames[i] = v.frame(tb)
	}
	return frames
}

// samePayload compares payloads by value (state messages cross the codec
// by content, not pointer).
func samePayload(a, b any) bool {
	if ea, ok := a.(*core.EarlyMsg); ok {
		eb, ok := b.(*core.EarlyMsg)
		return ok && ea.Flag == eb.Flag && samePayload(ea.Payload, eb.Payload)
	}
	if sa, ok := a.(*core.StateMsg); ok {
		sb, ok := b.(*core.StateMsg)
		return ok && *sa == *sb
	}
	return a == b
}

func TestFrameRoundTrip(t *testing.T) {
	for _, f := range roundTripFrames(t) {
		enc := mustEncode(t, &f)
		got, err := DecodeFrame(enc)
		if err != nil {
			t.Fatalf("DecodeFrame(%+v): %v", f, err)
		}
		if got.Type != f.Type || got.Round != f.Round || got.Src != f.Src || got.Dst != f.Dst {
			t.Fatalf("decode %+v: header mismatch: %+v", f, got)
		}
		if !samePayload(f.Payload, got.Payload) {
			t.Fatalf("decode %+v: payload %#v, want %#v", f, got.Payload, f.Payload)
		}
		re := mustEncode(t, &got)
		if !bytes.Equal(enc, re) {
			t.Fatalf("re-encode of %+v changed bytes: %x vs %x", f, re, enc)
		}
		pt, pr, psrc, pdst, ok := Peek(enc, 0)
		if !ok || pt != f.Type || pr != f.Round || psrc != f.Src || pdst != f.Dst {
			t.Fatalf("Peek disagrees with decode on %+v: %v %v %v %v %v", f, pt, pr, psrc, pdst, ok)
		}
	}
}

// TestFrameABI pins both frame formats byte for byte: each accept vector
// encodes to exactly its recorded v2 bytes and decodes back to its fields,
// and each v1 datagram — the format's old encodings, the vectors of the
// former TestEarlyFrameBytes among them — dies at the version byte, in the
// header filter and in the decoder alike.
func TestFrameABI(t *testing.T) {
	set := loadFrameVectors(t)
	for _, v := range set.Accept {
		f, want := v.frame(t), v.bytes(t)
		if got := mustEncode(t, &f); !bytes.Equal(got, want) {
			t.Errorf("%s: encodes to %x, want %x", v.Name, got, want)
		}
		got, err := DecodeFrame(want)
		if err != nil {
			t.Errorf("%s: DecodeFrame(%x): %v", v.Name, want, err)
			continue
		}
		if got.Type != f.Type || got.Round != f.Round || got.Src != f.Src || got.Dst != f.Dst || !samePayload(got.Payload, f.Payload) {
			t.Errorf("%s: %x decodes to %+v, want %+v", v.Name, want, got, f)
		}
	}
	for _, v := range set.RejectV1 {
		data := v.bytes(t)
		if data[0] == Version {
			t.Fatalf("%s: a v1 vector carries the v2 version byte", v.Name)
		}
		if _, err := DecodeFrame(data); !errors.Is(err, kerr.ErrBadFrame) {
			t.Errorf("%s: DecodeFrame(%x) err = %v, want ErrBadFrame", v.Name, data, err)
		}
		if _, _, _, _, ok := Peek(data, 0); ok {
			t.Errorf("%s: Peek accepts v1 datagram %x", v.Name, data)
		}
	}
}

func TestEncodeRejects(t *testing.T) {
	cases := []struct {
		name string
		f    Frame
	}{
		{"unknown type", Frame{Type: 9, Round: 1, Src: 1, Dst: 2}},
		{"round zero", Frame{Type: TypeAck, Round: 0, Src: 1, Dst: 2}},
		{"round too big", Frame{Type: TypeAck, Round: MaxRound + 1, Src: 1, Dst: 2}},
		{"src zero", Frame{Type: TypeAck, Round: 1, Src: 0, Dst: 2}},
		{"dst overflow", Frame{Type: TypeAck, Round: 1, Src: 1, Dst: 256}},
		{"payload on ack", Frame{Type: TypeAck, Round: 1, Src: 1, Dst: 2, Payload: vector.Value(1)}},
		{"nil data payload", Frame{Type: TypeData, Round: 1, Src: 1, Dst: 2}},
		{"nil state", Frame{Type: TypeData, Round: 1, Src: 1, Dst: 2, Payload: (*core.StateMsg)(nil)}},
		{"value above cap", Frame{Type: TypeData, Round: 1, Src: 1, Dst: 2, Payload: vector.MaxSetValue + 1}},
		{"negative value", Frame{Type: TypeData, Round: 1, Src: 1, Dst: 2, Payload: vector.Value(-1)}},
		{"state field above cap", Frame{Type: TypeData, Round: 1, Src: 1, Dst: 2, Payload: &core.StateMsg{Cond: 65}}},
		{"unsupported payload", Frame{Type: TypeData, Round: 1, Src: 1, Dst: 2, Payload: "nope"}},
		{"nil early", Frame{Type: TypeData, Round: 1, Src: 1, Dst: 2, Payload: (*core.EarlyMsg)(nil)}},
		{"nested early", Frame{Type: TypeData, Round: 1, Src: 1, Dst: 2,
			Payload: &core.EarlyMsg{Payload: &core.EarlyMsg{Payload: vector.Value(1)}}}},
		{"early by value", Frame{Type: TypeData, Round: 1, Src: 1, Dst: 2, Payload: core.EarlyMsg{Payload: vector.Value(1)}}},
	}
	var buf [MaxFrame]byte
	for _, tc := range cases {
		if _, err := EncodeFrame(buf[:], &tc.f); !errors.Is(err, kerr.ErrBadFrame) {
			t.Errorf("%s: err = %v, want ErrBadFrame", tc.name, err)
		}
	}
	ok := Frame{Type: TypeAck, Round: 1, Src: 1, Dst: 2}
	if _, err := EncodeFrame(buf[:5], &ok); !errors.Is(err, kerr.ErrBadFrame) {
		t.Errorf("short buffer: err = %v, want ErrBadFrame", err)
	}
}

func TestDecodeRejects(t *testing.T) {
	value := func(v byte) []byte { return []byte{Version, 1, 0, 1, 1, 2, 0x01, v} }
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"short", []byte{Version, 1, 0}},
		{"bad version", []byte{0x00, 2, 0, 1, 1, 2}},
		{"unknown type", []byte{Version, 9, 0, 1, 1, 2}},
		{"round zero", []byte{Version, 2, 0, 0, 1, 2}},
		{"src zero", []byte{Version, 2, 0, 1, 0, 2}},
		{"dst zero", []byte{Version, 2, 0, 1, 1, 0}},
		{"ack trailing", []byte{Version, 2, 0, 1, 1, 2, 0}},
		{"data without kind", []byte{Version, 1, 0, 1, 1, 2}},
		{"data without body", []byte{Version, 1, 0, 1, 1, 2, 0x01}},
		{"unknown kind", []byte{Version, 1, 0, 1, 1, 2, 0x04, 1}},
		{"kind zero", []byte{Version, 1, 0, 1, 1, 2, 0x00, 1}},
		{"reserved bits", []byte{Version, 1, 0, 1, 1, 2, 0x11, 1}},
		{"decide without early", []byte{Version, 1, 0, 1, 1, 2, 0x81, 1}},
		{"value above cap", value(65)},
		{"value trailing", append(value(1), 0)},
		{"state short", []byte{Version, 1, 0, 1, 1, 2, 0x02, 64, 0}},
		{"state trailing", []byte{Version, 1, 0, 1, 1, 2, 0x02, 3, 0, 1, 0}},
		{"state field above cap", []byte{Version, 1, 0, 1, 1, 2, 0x02, 0, 65, 0}},
		{"v1 state key body", []byte{Version, 1, 0, 1, 1, 2, 0x02, 0, 0, 0, 0, 0, 4, 0x30, 0x01}},
		{"v1 raw state kind", []byte{Version, 1, 0, 1, 1, 2, 0x03, 64, 0, 5}},
	}
	for _, tc := range cases {
		if _, err := DecodeFrame(tc.data); !errors.Is(err, kerr.ErrBadFrame) {
			t.Errorf("%s: err = %v, want ErrBadFrame", tc.name, err)
		}
	}
}

func TestPeekBounds(t *testing.T) {
	f := Frame{Type: TypeData, Round: 3, Src: 4, Dst: 2, Payload: vector.Value(1)}
	enc := mustEncode(t, &f)
	if _, _, _, _, ok := Peek(enc, 4); !ok {
		t.Fatalf("Peek rejects src=4 with n=4")
	}
	if _, _, _, _, ok := Peek(enc, 3); ok {
		t.Fatalf("Peek accepts src=4 with n=3")
	}
	if _, _, _, _, ok := Peek(enc[:len(enc)-1], 0); ok {
		t.Fatalf("Peek accepts truncated data frame shorter than any payload")
	}
	ack := mustEncode(t, &Frame{Type: TypeAck, Round: 1, Src: 1, Dst: 2})
	if _, _, _, _, ok := Peek(append(ack, 0), 0); ok {
		t.Fatalf("Peek accepts oversized ack")
	}
}

// TestFrameTypeString pins the trace labels.
func TestFrameTypeString(t *testing.T) {
	for want, ft := range map[string]FrameType{
		"data": TypeData, "ack": TypeAck, "fin": TypeFin, "finack": TypeFinAck, "type(9)": 9,
	} {
		if got := ft.String(); got != want {
			t.Errorf("FrameType(%d).String() = %q, want %q", byte(ft), got, want)
		}
	}
}

// TestSlotHelpers covers the shared mailbox slot.
func TestSlotHelpers(t *testing.T) {
	var s mailSlot
	if s.bytes() != nil {
		t.Fatal("empty slot yields bytes")
	}
	s.len = 3
	if got := s.bytes(); len(got) != 3 {
		t.Fatalf("slot bytes = %d, want 3", len(got))
	}
}
