package wire

import (
	"kset/internal/core"
	"kset/internal/vector"
)

// Payload kind byte: base kinds in the low nibble, flags in the high
// bits. See the frame layout comment in frame.go.
const (
	kindValue    byte = 0x01
	kindState    byte = 0x02
	kindBaseMask byte = 0x0F
	kindReserved byte = 0x30
	kindEarly    byte = 0x40
	kindDecide   byte = 0x80
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

// encodeState writes the (cond, out, tmf) triple as one byte per field.
func encodeState(buf []byte, kind byte, s core.StateMsg) (int, error) {
	for i, v := range [3]vector.Value{s.Cond, s.Out, s.Tmf} {
		if v < 0 || v > vector.MaxSetValue {
			return 0, badFrame("state field %d outside 0..%d", v, vector.MaxSetValue)
		}
		buf[7+i] = byte(v)
	}
	buf[6] = kind | kindState
	return 10, nil
}

// payloadStore is what a decoded payload's pointers may point into.
type payloadStore struct {
	state core.StateMsg
	early core.EarlyMsg
}

// decodePayload parses the kind byte and payload body of a data frame
// (everything past the fixed header) back into the engine-level payload,
// stored in into, or allocated when into is nil.
func decodePayload(data []byte, into *payloadStore) (any, error) {
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
	case kindState:
		if len(body) != 3 {
			return nil, badFrame("state payload is %d bytes, want 3", len(body))
		}
		for _, b := range body {
			if vector.Value(b) > vector.MaxSetValue {
				return nil, badFrame("state field %d outside 0..%d", b, vector.MaxSetValue)
			}
		}
		var s *core.StateMsg // never a local's address: it would escape on both paths
		if into != nil {
			s = &into.state
		} else {
			s = new(core.StateMsg)
		}
		*s = core.StateMsg{Cond: vector.Value(body[0]), Out: vector.Value(body[1]), Tmf: vector.Value(body[2])}
		inner = s
	default:
		return nil, badFrame("unknown payload kind %#x", kind)
	}
	if !early {
		return inner, nil
	}
	if into == nil {
		return &core.EarlyMsg{Payload: inner, Flag: decide}, nil
	}
	into.early = core.EarlyMsg{Payload: inner, Flag: decide}
	return &into.early, nil
}
