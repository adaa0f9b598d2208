package wire

import (
	"encoding/binary"

	"kset/internal/core"
	"kset/internal/vector"
)

// Payload kind byte: base kinds in the low nibble, flags in the high
// bits. See the frame layout comment in frame.go.
const (
	kindValue      byte = 0x01
	kindStateKey   byte = 0x02
	kindStateBytes byte = 0x03
	kindBaseMask   byte = 0x0F
	kindReserved   byte = 0x30
	kindEarly      byte = 0x40
	kindDecide     byte = 0x80
)

// encodePayload writes the kind byte and payload of a data frame into
// buf[6:] and returns the full frame length. The payload must be one of
// the types the engine moves through Transport.Send.
func encodePayload(buf []byte, p any) (int, error) {
	var kind byte
	if em, ok := p.(*core.EarlyMsg); ok {
		if em == nil {
			return 0, badFrame("nil early-deciding wrapper")
		}
		kind = kindEarly
		if em.Flag {
			kind |= kindDecide
		}
		p = em.Payload // a nested wrapper is an unsupported type below
	}
	switch m := p.(type) {
	case vector.Value:
		if m < 0 || m > vector.MaxSetValue {
			return 0, badFrame("value %d outside 0..%d", m, vector.MaxSetValue)
		}
		buf[6] = kind | kindValue
		buf[7] = byte(m)
		return 8, nil
	case *core.StateMsg:
		if m == nil {
			return 0, badFrame("nil state message")
		}
		return encodeState(buf, kind, *m)
	case core.StateMsg:
		return encodeState(buf, kind, m)
	case nil:
		return 0, badFrame("data frame without payload")
	}
	return 0, badFrame("unsupported payload type %T", p)
}

// encodeState packs the (cond, out, tmf) triple: as a single Key64 when
// every field fits 0..63, as three raw bytes otherwise (some field is the
// domain cap 64). Exactly one of the two encodings is canonical for any
// given triple.
func encodeState(buf []byte, kind byte, s core.StateMsg) (int, error) {
	triple := [3]vector.Value{s.Cond, s.Out, s.Tmf}
	for _, v := range triple {
		if v < 0 || v > vector.MaxSetValue {
			return 0, badFrame("state field %d outside 0..%d", v, vector.MaxSetValue)
		}
	}
	if key, ok := vector.Vector(triple[:]).Key64(); ok {
		buf[6] = kind | kindStateKey
		binary.BigEndian.PutUint64(buf[7:15], key)
		return 15, nil
	}
	buf[6] = kind | kindStateBytes
	buf[7] = byte(s.Cond)
	buf[8] = byte(s.Out)
	buf[9] = byte(s.Tmf)
	return 10, nil
}

// decodePayload parses the kind byte and payload body of a data frame
// (everything past the fixed header) back into the engine-level payload.
func decodePayload(data []byte) (any, error) {
	kind := data[0]
	body := data[1:]
	if kind&kindReserved != 0 {
		return nil, badFrame("reserved kind bits %#x set", kind&kindReserved)
	}
	early := kind&kindEarly != 0
	decide := kind&kindDecide != 0
	if decide && !early {
		return nil, badFrame("decide flag without early wrapper (kind %#x)", kind)
	}
	var inner any
	switch kind & kindBaseMask {
	case kindValue:
		if len(body) != 1 {
			return nil, badFrame("value payload is %d bytes, want 1", len(body))
		}
		v := vector.Value(body[0])
		if v > vector.MaxSetValue {
			return nil, badFrame("value %d outside 0..%d", v, vector.MaxSetValue)
		}
		inner = v
	case kindStateKey:
		if len(body) != 8 {
			return nil, badFrame("state payload is %d bytes, want 8", len(body))
		}
		var tmp [3]vector.Value
		vec, ok := vector.DecodeKey64(binary.BigEndian.Uint64(body), tmp[:0])
		if !ok || len(vec) != 3 {
			return nil, badFrame("state key does not unpack to a triple")
		}
		inner = &core.StateMsg{Cond: vec[0], Out: vec[1], Tmf: vec[2]}
	case kindStateBytes:
		if len(body) != 3 {
			return nil, badFrame("raw state payload is %d bytes, want 3", len(body))
		}
		s := core.StateMsg{
			Cond: vector.Value(body[0]),
			Out:  vector.Value(body[1]),
			Tmf:  vector.Value(body[2]),
		}
		packable := true
		for _, v := range [3]vector.Value{s.Cond, s.Out, s.Tmf} {
			if v > vector.MaxSetValue {
				return nil, badFrame("state field %d outside 0..%d", v, vector.MaxSetValue)
			}
			if v > 63 {
				packable = false
			}
		}
		if packable {
			return nil, badFrame("non-canonical raw state: triple is Key64-packable")
		}
		inner = &s
	default:
		return nil, badFrame("unknown payload kind %#x", kind)
	}
	if early {
		return &core.EarlyMsg{Payload: inner, Flag: decide}, nil
	}
	return inner, nil
}
