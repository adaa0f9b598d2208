package wire

import (
	"bytes"
	"errors"
	"testing"

	"kset/internal/core"
	"kset/internal/kerr"
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

// roundTripFrames is the shared corpus of valid frames: every type, every
// payload shape, both state encodings, the early wrapper with and without
// its flag, and the field extremes.
func roundTripFrames() []Frame {
	return []Frame{
		{Type: TypeAck, Round: 1, Src: 1, Dst: 2},
		{Type: TypeFin, Round: MaxRound, Src: 255, Dst: 1},
		{Type: TypeFinAck, Round: 7, Src: 3, Dst: 3},
		{Type: TypeData, Round: 1, Src: 2, Dst: 5, Payload: vector.Value(0)},
		{Type: TypeData, Round: 1, Src: 2, Dst: 5, Payload: vector.Value(17)},
		{Type: TypeData, Round: 9, Src: 1, Dst: 1, Payload: vector.MaxSetValue},
		{Type: TypeData, Round: 2, Src: 4, Dst: 2, Payload: &core.StateMsg{Cond: 3, Out: 0, Tmf: 1}},
		{Type: TypeData, Round: 2, Src: 4, Dst: 2, Payload: &core.StateMsg{}},
		{Type: TypeData, Round: 2, Src: 4, Dst: 2, Payload: &core.StateMsg{Cond: 63, Out: 63, Tmf: 63}},
		{Type: TypeData, Round: 3, Src: 1, Dst: 2, Payload: &core.StateMsg{Cond: 64, Out: 0, Tmf: 5}},
		{Type: TypeData, Round: 3, Src: 1, Dst: 2, Payload: &core.StateMsg{Cond: 64, Out: 64, Tmf: 64}},
		{Type: TypeData, Round: 1, Src: 5, Dst: 6, Payload: &core.EarlyMsg{Payload: vector.Value(4), Flag: false}},
		{Type: TypeData, Round: 1, Src: 5, Dst: 6, Payload: &core.EarlyMsg{Payload: vector.Value(4), Flag: true}},
		{Type: TypeData, Round: 4, Src: 6, Dst: 5, Payload: &core.EarlyMsg{Payload: &core.StateMsg{Cond: 2, Out: 1, Tmf: 0}, Flag: true}},
		{Type: TypeData, Round: 4, Src: 6, Dst: 5, Payload: &core.EarlyMsg{Payload: &core.StateMsg{Out: 64}, Flag: false}},
	}
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
	for _, f := range roundTripFrames() {
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

// TestEarlyFrameBytes pins the encoding of the early-deciding wrapper byte
// for byte, as it was while the wrapper still travelled by value: the
// pointer form is an in-process representation, not a format change.
func TestEarlyFrameBytes(t *testing.T) {
	for _, tc := range []struct {
		f    Frame
		want []byte
	}{
		{Frame{Type: TypeData, Round: 1, Src: 5, Dst: 6, Payload: &core.EarlyMsg{Payload: vector.Value(4), Flag: true}},
			[]byte{Version, 1, 0, 1, 5, 6, 0xc1, 4}},
		{Frame{Type: TypeData, Round: 4, Src: 6, Dst: 5, Payload: &core.EarlyMsg{Payload: &core.StateMsg{Cond: 2, Out: 1, Tmf: 0}}},
			[]byte{Version, 1, 0, 4, 6, 5, 0x42, 0, 0, 0, 0, 0, 4, 0x20, 0x40}},
		{Frame{Type: TypeData, Round: 4, Src: 6, Dst: 5, Payload: &core.EarlyMsg{Payload: &core.StateMsg{Out: 64}, Flag: true}},
			[]byte{Version, 1, 0, 4, 6, 5, 0xc3, 0, 64, 0}},
	} {
		if got := mustEncode(t, &tc.f); !bytes.Equal(got, tc.want) {
			t.Errorf("%+v encodes to %x, want %x", tc.f, got, tc.want)
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
		{"state short", []byte{Version, 1, 0, 1, 1, 2, 0x02, 0, 0, 0, 0, 0, 0, 0}},
		{"state key zero", []byte{Version, 1, 0, 1, 1, 2, 0x02, 0, 0, 0, 0, 0, 0, 0, 0}},
		{"state key not a triple", []byte{Version, 1, 0, 1, 1, 2, 0x02, 0, 0, 0, 0, 0, 0, 0, 0x43}},
		{"raw state short", []byte{Version, 1, 0, 1, 1, 2, 0x03, 64, 0}},
		{"raw state above cap", []byte{Version, 1, 0, 1, 1, 2, 0x03, 65, 0, 0}},
		{"raw state packable", []byte{Version, 1, 0, 1, 1, 2, 0x03, 3, 0, 1}},
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
