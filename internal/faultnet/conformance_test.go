package faultnet_test

import (
	"testing"

	"kset/internal/faultnet"
	"kset/internal/rounds"
	"kset/internal/rounds/transporttest"
	"kset/internal/wire"
)

// zeroFaultOver builds the injector under the zero-fault plan over the
// given inner transport (nil: its own matrix).
func zeroFaultOver(tb testing.TB, n int, inner rounds.Transport) rounds.Transport {
	tr, err := faultnet.New(&faultnet.Plan{}, n)
	if err != nil {
		tb.Fatalf("faultnet.New: %v", err)
	}
	tr.SetInner(inner)
	return tr
}

// TestZeroFaultConformance runs the fault injector under the zero-fault
// plan through the shared transport conformance suite: with no faults
// drawn it must behave exactly like the reliable matrix transport. The
// fault paths themselves are covered by the package's property tests.
func TestZeroFaultConformance(t *testing.T) {
	transporttest.Run(t, func(tb testing.TB, n int) rounds.Transport {
		return zeroFaultOver(tb, n, nil)
	})
}

// TestZeroFaultOverWireConformance: the same contract holds when the
// injector decorates a wire transport — the codec harness, and a Loopback
// moving every copy through an in-memory datagram mesh.
func TestZeroFaultOverWireConformance(t *testing.T) {
	over := func(tb testing.TB, n int, lb *wire.Loopback) rounds.Transport {
		tb.Cleanup(func() {
			if err := lb.Err(); err != nil {
				tb.Fatalf("inner wire transport error: %v", err)
			}
			lb.Close()
		})
		return zeroFaultOver(tb, n, lb)
	}
	t.Run("pipe", func(t *testing.T) {
		transporttest.Run(t, func(tb testing.TB, n int) rounds.Transport {
			return over(tb, n, &wire.PipeTransport{})
		})
	})
	t.Run("pipenet", func(t *testing.T) {
		transporttest.Run(t, func(tb testing.TB, n int) rounds.Transport {
			lb, err := wire.NewLoopback(wire.LoopbackConfig{
				Dial: func(n int) ([]wire.PacketConn, error) {
					pn := wire.NewPipeNet(n)
					conns := make([]wire.PacketConn, n)
					for i := range conns {
						conns[i] = pn.Conn(rounds.ProcessID(i + 1))
					}
					return conns, nil
				},
			}, n)
			if err != nil {
				tb.Fatalf("NewLoopback: %v", err)
			}
			return over(tb, n, lb)
		})
	})
}
