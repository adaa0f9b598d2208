package wire

import (
	"encoding/binary"
	"fmt"

	"kset/internal/kerr"
	"kset/internal/rounds"
)

// Frame layout (v2), big-endian, at most MaxFrame = 10 bytes per datagram:
//
//	offset  size  field
//	0       1     version byte (0x6C; v1 was 0x6B)
//	1       1     frame type (data=1 ack=2 fin=3 finack=4)
//	2       2     round number, uint16, ≥ 1
//	4       1     source process ID, 1..n
//	5       1     destination process ID, 1..n
//	6       1     payload kind byte        (data frames only)
//	7       …     payload                  (data frames only)
//
// The payload kind byte is a base kind in its low nibble plus flag bits:
//
//	0x01  value       1 byte: a proposal/estimate value 0..64
//	0x02  state       3 bytes: the (cond, out, tmf) state triple, one value
//	                  0..64 per field
//	0x40  early       payload is wrapped in a *core.EarlyMsg
//	0x80  decide      the EarlyMsg flag is set (requires 0x40)
//
// Bits 0x30 are reserved and must be zero. Every frame has exactly one
// valid length, so the decoder rejects both truncation and trailing
// garbage, and any accepted frame re-encodes byte-identically. Both ABIs
// are pinned by testdata/frames_v2.json: v2 byte for byte, v1 as rejects.
//
// v1 (0x6B) moved the state triple as an 8-byte packed key, or as three raw
// bytes (kind 0x03) when a field was 64, and had to reject a raw triple
// that was packable. Nothing deployed spoke it, so v2 replaced it outright;
// the next format change costs one more bump of Version and one more
// reject vector.

// Version is the first byte of every frame. A datagram that does not
// start with it — a v1 frame included — is not ours and is dropped before
// any decoding.
const Version byte = 0x6C

// MaxFrame is the size of the largest encodable frame (a data frame
// carrying a state triple). Receive buffers of this size never truncate a
// valid frame.
const MaxFrame = 10

// MaxRound is the largest round number the 16-bit round field can carry —
// orders of magnitude above the protocols' t+1 bound.
const MaxRound = 1<<16 - 1

// headerSize is the fixed prefix shared by all frame types.
const headerSize = 6

// mailSlot holds one encoded in-flight frame.
type mailSlot struct {
	buf [MaxFrame]byte
	len int
}

// bytes returns the encoded frame, nil if the slot is empty.
func (s *mailSlot) bytes() []byte {
	if s.len == 0 {
		return nil
	}
	return s.buf[:s.len]
}

// FrameType discriminates the four datagram kinds.
type FrameType byte

// The four frame types. Data frames carry one round payload; acks confirm
// receipt of one data frame (echoing its round and direction); fin frames
// announce the sender has left the round loop (decided, halted, or run
// out of rounds) so peers stop expecting payloads from it; finacks
// confirm a fin so the finished peer can stop lingering.
const (
	TypeData   FrameType = 1
	TypeAck    FrameType = 2
	TypeFin    FrameType = 3
	TypeFinAck FrameType = 4
)

// String names the frame type for errors and traces.
func (t FrameType) String() string {
	switch t {
	case TypeData:
		return "data"
	case TypeAck:
		return "ack"
	case TypeFin:
		return "fin"
	case TypeFinAck:
		return "finack"
	}
	return fmt.Sprintf("type(%d)", byte(t))
}

// Frame is one decoded datagram. For data frames Payload holds the round
// payload exactly as the engine hands it to Transport.Send: a
// vector.Value, a *core.StateMsg, or a *core.EarlyMsg wrapping one of
// those. For the other types Payload is nil and Round carries the frame's
// round context (for a fin: the last round the sender participated in).
type Frame struct {
	Type     FrameType
	Round    int
	Src, Dst rounds.ProcessID
	Payload  any
}

// badFrame builds a decode/encode error wrapping the codec sentinel.
func badFrame(format string, args ...any) error {
	return fmt.Errorf("wire: "+format+": %w", append(args, kerr.ErrBadFrame)...)
}

// EncodeFrame writes f into buf, which must hold at least MaxFrame bytes,
// and returns the encoded length. It allocates nothing on success; a
// frame that cannot be represented (unknown type, out-of-range field,
// unsupported payload) yields an error wrapping kerr.ErrBadFrame.
func EncodeFrame(buf []byte, f *Frame) (int, error) {
	if len(buf) < MaxFrame {
		return 0, badFrame("encode buffer holds %d bytes, need %d", len(buf), MaxFrame)
	}
	if f.Round < 1 || f.Round > MaxRound {
		return 0, badFrame("round %d outside 1..%d", f.Round, MaxRound)
	}
	if f.Src < 1 || f.Src > 255 || f.Dst < 1 || f.Dst > 255 {
		return 0, badFrame("process IDs (%d→%d) outside 1..255", f.Src, f.Dst)
	}
	buf[0] = Version
	buf[1] = byte(f.Type)
	binary.BigEndian.PutUint16(buf[2:4], uint16(f.Round))
	buf[4] = byte(f.Src)
	buf[5] = byte(f.Dst)
	switch f.Type {
	case TypeAck, TypeFin, TypeFinAck:
		if f.Payload != nil {
			return 0, badFrame("%v frame carries a payload", f.Type)
		}
		return headerSize, nil
	case TypeData:
		return encodePayload(buf, f.Payload)
	}
	return 0, badFrame("unknown frame type %d", byte(f.Type))
}

// DecodeFrame parses one datagram. It never panics: arbitrary input
// yields either a valid Frame or an error wrapping kerr.ErrBadFrame. The
// decoder is strict — exact lengths, reserved bits clear, fields in
// range — so every accepted frame re-encodes to the same bytes.
func DecodeFrame(data []byte) (Frame, error) {
	t, round, src, dst, ok := Peek(data, 0)
	if !ok {
		return Frame{}, badFrame("version, type, length or a zero header field in % x", data[:min(len(data), MaxFrame)])
	}
	f := Frame{Type: t, Round: round, Src: src, Dst: dst}
	if t == TypeData {
		p, err := decodePayload(data[headerSize:], nil)
		if err != nil {
			return f, err
		}
		f.Payload = p
	}
	return f, nil
}

// Peek is the cheap validity filter run on every received datagram before
// full decoding — the header fields are read, the payload is not touched.
// It reports the frame's type, round and direction so receivers can drop
// duplicates, stale rounds and misdirected frames without paying for
// payload decoding; n bounds the process IDs (0 skips that check). ok is
// false for anything DecodeFrame could not possibly accept: it is the
// header parser DecodeFrame itself starts with.
func Peek(data []byte, n int) (t FrameType, round int, src, dst rounds.ProcessID, ok bool) {
	if len(data) < headerSize || data[0] != Version {
		return 0, 0, 0, 0, false
	}
	t = FrameType(data[1])
	switch t {
	case TypeData:
		if len(data) < headerSize+2 || len(data) > MaxFrame {
			return 0, 0, 0, 0, false
		}
	case TypeAck, TypeFin, TypeFinAck:
		if len(data) != headerSize {
			return 0, 0, 0, 0, false
		}
	default:
		return 0, 0, 0, 0, false
	}
	round = int(binary.BigEndian.Uint16(data[2:4]))
	src = rounds.ProcessID(data[4])
	dst = rounds.ProcessID(data[5])
	if round == 0 || src == 0 || dst == 0 {
		return 0, 0, 0, 0, false
	}
	if n > 0 && (int(src) > n || int(dst) > n) {
		return 0, 0, 0, 0, false
	}
	return t, round, src, dst, true
}
