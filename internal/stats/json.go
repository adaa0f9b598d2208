package stats

import (
	"bytes"
	"encoding/json"
	"errors"
	"slices"
	"strconv"
	"sync"
	"unicode/utf8"
)

// This file is the accumulator's wire format. Encoding is one appender,
// AppendJSON, which writes exactly the bytes encoding/json writes for the
// types' struct tags — field order, omitempty, map keys sorted by their
// string form, strings escaped as encoding/json escapes them — without
// reflection and without allocating beyond dst's growth; MarshalJSON and
// every envelope that carries an accumulator (campaign stats, the
// checkpoint) go through it, and FuzzAccumulatorJSON pins it byte for byte
// against encoding/json over a method-free mirror of the types. Decoding
// stays on encoding/json: UnmarshalJSON turns the trimmed histogram back
// into buckets and the rest decodes by the tags. Snapshot is the deep copy
// that lets one goroutine publish a consistent view of an accumulator
// another goroutine keeps folding into. Together they are the transport of
// the results plane — ksetd streams snapshot encodings as SSE progress
// events, and sharded or checkpointed campaigns decode persisted
// accumulators and Merge them as if the runs had happened locally.

// AppendJSON appends the accumulator's JSON encoding to dst.
func (a *Accumulator) AppendJSON(dst []byte) []byte {
	dst = appendField(dst, `{"runs":`, a.Runs)
	dst = appendField(dst, `,"errors":`, a.Errors)
	dst = appendField(dst, `,"condition_hits":`, a.ConditionHits)
	dst = appendField(dst, `,"verified":`, a.Verified)
	dst = appendField(dst, `,"violations":`, a.Violations)
	dst = appendHistogram(append(dst, `,"rounds":`...), &a.Rounds)
	dst = appendSummary(append(dst, `,"messages":`...), a.Messages)
	dst = appendSummary(append(dst, `,"crashes":`...), a.Crashes)
	if a.UndecidedRuns != 0 {
		dst = appendField(dst, `,"undecided_runs":`, a.UndecidedRuns)
	}
	if f := a.Faults; f != nil {
		dst = appendSummary(append(dst, `,"faults":{"lost":`...), f.Lost)
		dst = appendSummary(append(dst, `,"delayed":`...), f.Delayed)
		dst = appendSummary(append(dst, `,"duplicated":`...), f.Duplicated)
		dst = append(dst, '}')
	}
	var names [16]string
	var crashes [16]int
	dst = appendGroups(dst, `,"by_executor":`, a.ByExecutor, stringKeys(names[:0], a.ByExecutor), appendString)
	dst = appendGroups(dst, `,"by_crashes":`, a.ByCrashes, crashKeys(crashes[:0], a.ByCrashes), appendDecimalKey)
	dst = appendGroups(dst, `,"by_label":`, a.ByLabel, stringKeys(names[:0], a.ByLabel), appendString)
	return append(dst, '}')
}

// MarshalJSON encodes the accumulator through AppendJSON.
func (a *Accumulator) MarshalJSON() ([]byte, error) { return a.AppendJSON(nil), nil }

// MarshalJSON encodes the histogram as its trimmed bucket slice ("counts",
// null when empty) plus the overflow summary when non-empty, keeping
// reports compact and byte-deterministic.
func (h Histogram) MarshalJSON() ([]byte, error) { return appendHistogram(nil, &h), nil }

// appendHistogram appends h's encoding: the shape of histogramJSON.
func appendHistogram(dst []byte, h *Histogram) []byte {
	top := HistogramBuckets - 1
	for top >= 0 && h.Buckets[top] == 0 {
		top--
	}
	if top < 0 {
		dst = append(dst, `{"counts":null`...)
	} else {
		dst = append(dst, `{"counts":[`...)
		for r, n := range h.Buckets[:top+1] {
			if r > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, n, 10)
		}
		dst = append(dst, ']')
	}
	if h.Overflow.Count > 0 {
		dst = appendSummary(append(dst, `,"overflow":`...), h.Overflow)
	}
	return append(dst, '}')
}

// appendSummary appends one Summary object.
func appendSummary(dst []byte, s Summary) []byte {
	dst = appendField(dst, `{"count":`, s.Count)
	dst = appendField(dst, `,"sum":`, s.Sum)
	dst = appendField(dst, `,"min":`, s.Min)
	dst = appendField(dst, `,"max":`, s.Max)
	return append(dst, '}')
}

// appendGroup appends one breakdown Group object.
func appendGroup(dst []byte, g *Group) []byte {
	dst = appendField(dst, `{"runs":`, g.Runs)
	if g.Errors != 0 {
		dst = appendField(dst, `,"errors":`, g.Errors)
	}
	if g.ConditionHits != 0 {
		dst = appendField(dst, `,"condition_hits":`, g.ConditionHits)
	}
	if g.Violations != 0 {
		dst = appendField(dst, `,"violations":`, g.Violations)
	}
	dst = appendField(dst, `,"messages":`, g.Messages)
	dst = appendSummary(append(dst, `,"rounds":`...), g.Rounds)
	return append(dst, '}')
}

// appendField appends a field's name part, colon included, and its value.
func appendField(dst []byte, name string, v int64) []byte {
	return strconv.AppendInt(append(dst, name...), v, 10)
}

// appendGroups appends a non-empty breakdown as the named field, its
// groups in the order of keys.
func appendGroups[K comparable](dst []byte, name string, m map[K]*Group, keys []K, appendKey func([]byte, K) []byte) []byte {
	if len(keys) == 0 {
		return dst
	}
	dst = append(append(dst, name...), '{')
	for i, k := range keys {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(appendKey(dst, k), ':')
		if g := m[k]; g != nil {
			dst = appendGroup(dst, g)
		} else {
			dst = append(dst, "null"...) // only a decoded accumulator has one
		}
	}
	return append(dst, '}')
}

// stringKeys appends m's keys to dst in encoding/json's order.
func stringKeys(dst []string, m map[string]*Group) []string {
	for k := range m {
		dst = append(dst, k)
	}
	slices.Sort(dst)
	return dst
}

// crashKeys appends m's keys to dst in encoding/json's order, that of
// their decimal forms, which puts "10" before "2".
func crashKeys(dst []int, m map[int]*Group) []int {
	for k := range m {
		dst = append(dst, k)
	}
	slices.SortFunc(dst, func(a, b int) int {
		var x, y [20]byte
		return bytes.Compare(strconv.AppendInt(x[:0], int64(a), 10), strconv.AppendInt(y[:0], int64(b), 10))
	})
	return dst
}

// appendDecimalKey appends an int key as encoding/json quotes it.
func appendDecimalKey(dst []byte, k int) []byte {
	return append(strconv.AppendInt(append(dst, '"'), int64(k), 10), '"')
}

// appendString appends s as a JSON string, escaped as json.Marshal
// escapes it: '"' and '\\' by backslash, \b \f \n \r \t by name, other
// control bytes and the HTML-sensitive '<', '>' and '&' as \u00XX, U+2028
// and U+2029 as \u202X, and each byte of invalid UTF-8 as \ufffd.
func appendString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(append(dst, s[start:i]...), `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hex[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(dst, s[start:]...), '"')
}

// scratch holds the buffers Encode appends into.
var scratch = sync.Pool{New: func() any { return new([]byte) }}

// Encode returns what appendTo appends to an empty buffer, as one exactly
// sized copy: appendTo writes into a pooled scratch buffer, so an encoding
// done once per job or per checkpoint allocates once, whatever it grows
// through on the way.
func Encode(appendTo func(dst []byte) []byte) []byte {
	buf := scratch.Get().(*[]byte)
	*buf = appendTo((*buf)[:0])
	out := make([]byte, len(*buf))
	copy(out, *buf)
	scratch.Put(buf)
	return out
}

// histogramJSON mirrors Histogram's MarshalJSON encoding: the tracked
// buckets trimmed to the highest non-empty round plus the exact overflow
// summary when present.
type histogramJSON struct {
	Counts   []int64  `json:"counts"`
	Overflow *Summary `json:"overflow,omitempty"`
}

// UnmarshalJSON decodes the trimmed-bucket encoding MarshalJSON emits.
// Decoding then re-encoding is byte-identical, and a decoded histogram
// merges exactly like the original. MarshalJSON never emits more than
// HistogramBuckets tracked counts, so a longer list is refused: cut to
// the tracked range, its later rounds would vanish from the histogram.
func (h *Histogram) UnmarshalJSON(data []byte) error {
	var raw histogramJSON
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	if len(raw.Counts) > HistogramBuckets {
		return errLongHistogram
	}
	*h = Histogram{}
	copy(h.Buckets[:], raw.Counts)
	if raw.Overflow != nil {
		h.Overflow = *raw.Overflow
	}
	return nil
}

var errLongHistogram = errors.New("stats: a histogram lists more rounds than it tracks")

// Snapshot returns a deep copy of the accumulator: the fixed-size
// counters and histograms by value, the fault tally and every breakdown
// freshly allocated, each breakdown's groups in one slab. The copy shares
// no mutable state with a, so a progress publisher can hand it to
// encoders and subscribers while the original keeps observing. Snapshots
// merge like any accumulator.
func (a *Accumulator) Snapshot() *Accumulator {
	out := *a
	if a.Faults != nil {
		f := *a.Faults
		out.Faults = &f
	}
	out.ByExecutor = copyGroups(a.ByExecutor)
	out.ByCrashes = copyGroups(a.ByCrashes)
	out.ByLabel = copyGroups(a.ByLabel)
	return &out
}

// copyGroups deep-copies one breakdown map (nil stays nil), its groups
// into one exactly sized slab.
func copyGroups[K comparable](m map[K]*Group) map[K]*Group {
	if m == nil {
		return nil
	}
	out := make(map[K]*Group, len(m))
	slab := make([]Group, len(m))
	for k, g := range m {
		slab[0] = *g
		out[k] = &slab[0]
		slab = slab[1:]
	}
	return out
}
