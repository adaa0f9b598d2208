// Package transporttest is the shared conformance suite of the
// rounds.Transport contract. Every transport implementation — the
// canonical MatrixTransport, faultnet's injector under a zero-fault plan
// (over its own matrix and over the wire transports), and the wire plane's
// codec-backed pipe and UDP loopback transports — runs the same scripted
// delivery scenarios, so all stay pinned to one
// Reset/BeginRound/Send/Deliver semantics and a new implementation cannot
// silently diverge from the engine's expectations.
//
// The suite asserts the reliable contract: a transport under test must
// deliver every handed-over copy in its send round, exactly once, to
// exactly the prefix of the send order the engine requested. Fault
// injectors are therefore tested with faults disabled — their fault paths
// have their own property tests.
package transporttest

import (
	"testing"

	"kset/internal/core"
	"kset/internal/rounds"
	"kset/internal/vector"
)

// Factory builds a fresh transport for a system of n processes. Each
// subtest gets its own instance; transports holding external resources
// (sockets) may register cleanup on t.
type Factory func(t testing.TB, n int) rounds.Transport

// Run drives the conformance suite against the factory's transports.
func Run(t *testing.T, mk Factory) {
	t.Run("BroadcastRound", func(t *testing.T) { testBroadcastRound(t, mk) })
	t.Run("PrefixLimits", func(t *testing.T) { testPrefixLimits(t, mk) })
	t.Run("OrderOverride", func(t *testing.T) { testOrderOverride(t, mk) })
	t.Run("RoundIsolation", func(t *testing.T) { testRoundIsolation(t, mk) })
	t.Run("SkippedDestinations", func(t *testing.T) { testSkippedDestinations(t, mk) })
	t.Run("StatePayloads", func(t *testing.T) { testStatePayloads(t, mk) })
	t.Run("ResetReuse", func(t *testing.T) { testResetReuse(t, mk) })
	t.Run("SkippedAcrossReset", func(t *testing.T) { testSkippedAcrossReset(t, mk) })
	t.Run("ResizeReuse", func(t *testing.T) { testResizeReuse(t, mk) })
}

// identity returns the fixed p_1..p_n send order.
func identity(n int) []rounds.ProcessID {
	order := make([]rounds.ProcessID, n)
	for i := range order {
		order[i] = rounds.ProcessID(i + 1)
	}
	return order
}

// deliver fetches dst's row of round r into a fresh slice.
func deliver(tr rounds.Transport, r int, dst rounds.ProcessID, n int) []any {
	row := make([]any, n)
	tr.Deliver(r, dst, row)
	return row
}

// wantValue asserts one row entry is the given value.
func wantValue(t *testing.T, row []any, src int, want vector.Value) {
	t.Helper()
	got, ok := row[src-1].(vector.Value)
	if !ok || got != want {
		t.Fatalf("row[%d] = %v (%T), want value %v", src-1, row[src-1], row[src-1], want)
	}
}

// wantNil asserts one row entry is empty.
func wantNil(t *testing.T, row []any, src int) {
	t.Helper()
	if row[src-1] != nil {
		t.Fatalf("row[%d] = %v, want nil", src-1, row[src-1])
	}
}

// testBroadcastRound: every process broadcasts a distinct value with the
// full delivery limit; every destination's row holds all n values at the
// sender's index and Delivered counts n² copies.
func testBroadcastRound(t *testing.T, mk Factory) {
	const n = 4
	tr := mk(t, n)
	tr.Reset(n)
	if got := tr.Delivered(); got != 0 {
		t.Fatalf("Delivered after Reset = %d, want 0", got)
	}
	order := identity(n)
	tr.BeginRound(1)
	for src := 1; src <= n; src++ {
		tr.Send(1, rounds.ProcessID(src), vector.Value(src*10), order, n)
	}
	for dst := 1; dst <= n; dst++ {
		row := deliver(tr, 1, rounds.ProcessID(dst), n)
		for src := 1; src <= n; src++ {
			wantValue(t, row, src, vector.Value(src*10))
		}
	}
	if got := tr.Delivered(); got != int64(n*n) {
		t.Fatalf("Delivered = %d, want %d", got, n*n)
	}
}

// testPrefixLimits: a sender with limit s delivers to exactly the first s
// destinations of its order — the crash adversary's prefix semantics.
func testPrefixLimits(t *testing.T, mk Factory) {
	const n = 4
	tr := mk(t, n)
	tr.Reset(n)
	order := identity(n)
	tr.BeginRound(1)
	tr.Send(1, 1, vector.Value(7), order, 2)  // reaches p1, p2 only
	tr.Send(1, 2, vector.Value(9), order, 0)  // crashes before any send
	tr.Send(1, 3, vector.Value(11), order, n) // full broadcast
	for dst := 1; dst <= n; dst++ {
		row := deliver(tr, 1, rounds.ProcessID(dst), n)
		if dst <= 2 {
			wantValue(t, row, 1, 7)
		} else {
			wantNil(t, row, 1)
		}
		wantNil(t, row, 2)
		wantValue(t, row, 3, 11)
		wantNil(t, row, 4)
	}
	if got := tr.Delivered(); got != 2+0+int64(n) {
		t.Fatalf("Delivered = %d, want %d", got, 2+n)
	}
}

// testOrderOverride: the delivery prefix follows the adversary's send
// order, not process IDs.
func testOrderOverride(t *testing.T, mk Factory) {
	const n = 4
	tr := mk(t, n)
	tr.Reset(n)
	tr.BeginRound(1)
	order := []rounds.ProcessID{3, 1, 4, 2}
	tr.Send(1, 2, vector.Value(5), order, 2) // reaches p3 and p1
	for dst := 1; dst <= n; dst++ {
		row := deliver(tr, 1, rounds.ProcessID(dst), n)
		if dst == 3 || dst == 1 {
			wantValue(t, row, 2, 5)
		} else {
			wantNil(t, row, 2)
		}
	}
}

// testRoundIsolation: a round's deliveries never leak into the next
// round's rows.
func testRoundIsolation(t *testing.T, mk Factory) {
	const n = 3
	tr := mk(t, n)
	tr.Reset(n)
	order := identity(n)
	tr.BeginRound(1)
	for src := 1; src <= n; src++ {
		tr.Send(1, rounds.ProcessID(src), vector.Value(src), order, n)
	}
	for dst := 1; dst <= n; dst++ {
		deliver(tr, 1, rounds.ProcessID(dst), n)
	}
	tr.BeginRound(2)
	tr.Send(2, 1, vector.Value(42), order, n)
	for dst := 1; dst <= n; dst++ {
		row := deliver(tr, 2, rounds.ProcessID(dst), n)
		wantValue(t, row, 1, 42)
		wantNil(t, row, 2)
		wantNil(t, row, 3)
	}
}

// testSkippedDestinations: the engine only delivers to live destinations;
// undrained copies for skipped ones must not corrupt later rounds.
func testSkippedDestinations(t *testing.T, mk Factory) {
	const n = 3
	tr := mk(t, n)
	tr.Reset(n)
	order := identity(n)
	tr.BeginRound(1)
	for src := 1; src <= n; src++ {
		tr.Send(1, rounds.ProcessID(src), vector.Value(src), order, n)
	}
	deliver(tr, 1, 1, n) // p2 crashed, p3 halted: never delivered to
	tr.BeginRound(2)
	tr.Send(2, 1, vector.Value(9), order, n)
	row := deliver(tr, 2, 2, n)
	wantValue(t, row, 1, 9)
	wantNil(t, row, 2)
	wantNil(t, row, 3)
}

// testStatePayloads: flood-round state triples survive the transport with
// their contents intact (wire transports re-materialize them through the
// codec, so equality is by value, not pointer identity).
func testStatePayloads(t *testing.T, mk Factory) {
	const n = 3
	tr := mk(t, n)
	tr.Reset(n)
	order := identity(n)
	tr.BeginRound(1)
	msgs := []*core.StateMsg{
		{Cond: 3, Out: 0, Tmf: 1},
		{Cond: 0, Out: 2, Tmf: 0},
		{Cond: 64, Out: 64, Tmf: 64}, // the value-domain cap
	}
	for src := 1; src <= n; src++ {
		tr.Send(1, rounds.ProcessID(src), msgs[src-1], order, n)
	}
	for dst := 1; dst <= n; dst++ {
		row := deliver(tr, 1, rounds.ProcessID(dst), n)
		for src := 1; src <= n; src++ {
			got, ok := row[src-1].(*core.StateMsg)
			if !ok {
				t.Fatalf("row[%d] = %v (%T), want *core.StateMsg", src-1, row[src-1], row[src-1])
			}
			if *got != *msgs[src-1] {
				t.Fatalf("row[%d] = %+v, want %+v", src-1, *got, *msgs[src-1])
			}
		}
	}
}

// testResetReuse: Reset rewinds counters and drops in-flight state, so one
// transport instance serves many runs.
func testResetReuse(t *testing.T, mk Factory) {
	const n = 3
	tr := mk(t, n)
	order := identity(n)
	for run := 0; run < 3; run++ {
		tr.Reset(n)
		if got := tr.Delivered(); got != 0 {
			t.Fatalf("run %d: Delivered after Reset = %d, want 0", run, got)
		}
		tr.BeginRound(1)
		tr.Send(1, 1, vector.Value(run+1), order, n)
		row := deliver(tr, 1, 2, n)
		wantValue(t, row, 1, vector.Value(run+1))
		wantNil(t, row, 2)
		if got := tr.Delivered(); got != int64(n) {
			t.Fatalf("run %d: Delivered = %d, want %d", run, got, n)
		}
	}
}

// testResizeReuse: one instance serves runs of interleaved sizes, growing
// and shrinking, as a pooled campaign worker's transport does — scratch
// sized for one n must neither cut short nor leak into a run at another.
// Each run is a full two-round broadcast, values then state triples.
func testResizeReuse(t *testing.T, mk Factory) {
	sizes := []int{6, 3, 8, 3}
	tr := mk(t, sizes[0])
	for run, n := range sizes {
		tr.Reset(n)
		order := identity(n)
		tr.BeginRound(1)
		for src := 1; src <= n; src++ {
			tr.Send(1, rounds.ProcessID(src), vector.Value(10*run+src), order, n)
		}
		for dst := 1; dst <= n; dst++ {
			row := deliver(tr, 1, rounds.ProcessID(dst), n)
			for src := 1; src <= n; src++ {
				wantValue(t, row, src, vector.Value(10*run+src))
			}
		}
		tr.BeginRound(2)
		for src := 1; src <= n; src++ {
			tr.Send(2, rounds.ProcessID(src), &core.StateMsg{Cond: vector.Value(run), Out: vector.Value(src), Tmf: vector.Value(n)}, order, n)
		}
		for dst := 1; dst <= n; dst++ {
			row := deliver(tr, 2, rounds.ProcessID(dst), n)
			for src := 1; src <= n; src++ {
				got, ok := row[src-1].(*core.StateMsg)
				if want := (core.StateMsg{Cond: vector.Value(run), Out: vector.Value(src), Tmf: vector.Value(n)}); !ok || *got != want {
					t.Fatalf("run %d (n=%d): round 2 row[%d] of p%d = %v, want %+v", run, n, src-1, dst, row[src-1], want)
				}
			}
		}
		if got := tr.Delivered(); got != int64(2*n*n) {
			t.Fatalf("run %d (n=%d): Delivered = %d, want %d", run, n, got, 2*n*n)
		}
	}
}

// testSkippedAcrossReset: copies a run left undrained — its destinations
// crashed or halted — must not surface in the next run, whose rounds carry
// the same numbers: after Reset every row holds the new run's values.
func testSkippedAcrossReset(t *testing.T, mk Factory) {
	const n = 3
	tr := mk(t, n)
	order := identity(n)
	for run := 0; run < 2; run++ {
		tr.Reset(n)
		for r := 1; r <= 2; r++ {
			tr.BeginRound(r)
			for src := 1; src <= n; src++ {
				tr.Send(r, rounds.ProcessID(src), vector.Value(30*run+10*r+src), order, n)
			}
			if run == 0 {
				continue // nobody is delivered to in the first run
			}
			for dst := 1; dst <= n; dst++ {
				row := deliver(tr, r, rounds.ProcessID(dst), n)
				for src := 1; src <= n; src++ {
					wantValue(t, row, src, vector.Value(30+10*r+src))
				}
			}
		}
	}
}
