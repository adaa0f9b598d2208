package wire

import (
	"testing"

	"kset/internal/condition"
	"kset/internal/core"
	"kset/internal/rounds"
	"kset/internal/vector"
)

// BenchmarkWireEncode is the hot path of every transmission: one state
// triple packed into a fixed buffer. Budget: 0 allocs/op (enforced by
// scripts/benchgate.sh).
func BenchmarkWireEncode(b *testing.B) {
	var buf [MaxFrame]byte
	msg := &core.StateMsg{Cond: 3, Out: 0, Tmf: 12}
	f := Frame{Type: TypeData, Round: 2, Src: 1, Dst: 4, Payload: msg}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeFrame(buf[:], &f); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireDecode round-trips the same frame back out; the one
// alloc/op is the re-materialized *StateMsg the protocol consumes.
func BenchmarkWireDecode(b *testing.B) {
	var buf [MaxFrame]byte
	f := Frame{Type: TypeData, Round: 2, Src: 1, Dst: 4, Payload: &core.StateMsg{Cond: 3, Out: 0, Tmf: 12}}
	n, err := EncodeFrame(buf[:], &f)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeFrame(buf[:n]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoopbackRun is one Figure-2 run at the benchmark's wire_udp
// shape (n=6, t=3, k=2, d=1, max condition m=4, one mid-row crash) on a
// held core.Runner with a recycled Result, warmed once. The pipe arm is a
// PipeTransport: every copy goes through the codec and is decoded into
// the transport's own slots, so it must stay allocation-free (budget 0 in
// scripts/benchgate.sh). The udp arm moves the same run's copies through
// the UDP loopback mesh, a batch per sender and per destination wait.
func BenchmarkLoopbackRun(b *testing.B) {
	p := core.Params{N: 6, T: 3, K: 2, D: 1, L: 1}
	c := condition.MustNewMax(p.N, 4, p.X(), p.L)
	input := vector.OfInts(4, 2, 4, 1, 3, 4)
	fp := rounds.FailurePattern{Crashes: map[rounds.ProcessID]rounds.Crash{2: {Round: 1, AfterSends: 3}}}
	udp, err := NewLoopback(LoopbackConfig{}, p.N)
	if err != nil {
		b.Fatal(err)
	}
	defer udp.Close()
	for _, arm := range []struct {
		name string
		tr   *Loopback
	}{{"pipe", &PipeTransport{}}, {"udp", udp}} {
		b.Run(arm.name, func(b *testing.B) {
			runner := core.NewRunner()
			var res rounds.Result
			run := func() {
				if _, err := runner.RunCond(p, c, input, fp, false, arm.tr, nil, &res); err != nil {
					b.Fatal(err)
				}
				if err := arm.tr.Err(); err != nil {
					b.Fatal(err)
				}
			}
			run()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
		})
	}
}

// BenchmarkWireEncodeValue covers the round-1 proposal shape.
func BenchmarkWireEncodeValue(b *testing.B) {
	var buf [MaxFrame]byte
	f := Frame{Type: TypeData, Round: 1, Src: 1, Dst: 4, Payload: vector.Value(7)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeFrame(buf[:], &f); err != nil {
			b.Fatal(err)
		}
	}
}
