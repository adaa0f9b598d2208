package kset

import (
	"time"

	"kset/internal/rounds"
	"kset/internal/wire"
)

// Transport is the message plane of a synchronous run: the seam between
// the engine's crash adversary (who sends, in which order, how far a
// crashing sender's broadcast gets) and whatever happens to a message
// copy between hand-over and receipt. The module ships two carriers —
// the default in-memory delivery and the wire plane installed by
// WithTransport, which moves every copy through encoded datagrams (and,
// for the UDP transports, through real sockets) — and one decorator, the
// fault injector a Scenario.Faults plan installs, which rides whichever
// carrier the run has. All satisfy one contract, pinned by a shared
// conformance suite, so a scenario produces the same decisions on any
// lossless plane and the same faults over any carrier.
type Transport = rounds.Transport

// TransportFactory builds one Transport instance for a system of n
// processes. A System hands each of its pooled workers its own instance
// (transports are not concurrency-safe), created lazily on the worker's
// first run and reused for every run after it.
type TransportFactory func(n int) (Transport, error)

// WithTransport makes every synchronous run of the System move its round
// payloads through transports built by the factory — see UDPLoopback. A
// fault plan (Scenario.Faults) stacks on top: the fault plane takes its
// toll first and hands only the on-time survivors to the wire, so a copy
// is lost at exactly one layer — one the plan drops is never waited for
// below, one that misses the wire's delivery deadline is written off
// there — and Result.Lost is the sum of the two. Asynchronous runs have no
// message plane and ignore it.
func WithTransport(f TransportFactory) Option {
	return func(s *System) { s.wireFactory = f }
}

// WireConfig tunes the UDP loopback wire transport.
type WireConfig struct {
	// RoundTimeout bounds how long a destination waits for a round's
	// copies before the stragglers are written off as lost (default 2s).
	RoundTimeout time.Duration
	// Retransmit is the initial retransmission interval for missing
	// copies, doubling with jitter up to RoundTimeout/4 (default 2ms).
	Retransmit time.Duration
	// Seed seeds the retransmission jitter (0 picks a fixed default).
	Seed uint64
}

// UDPLoopback returns a factory for the UDP wire transport: n loopback
// sockets in this process, one per simulated process, with every copy
// crossing the kernel as a real datagram — retransmitted with backoff
// until it arrives or the round deadline writes it off as lost. Lossless
// runs decide identically to the matrix; runs with losses fold them into
// Result.Lost. For agreement between separate OS processes, see
// cmd/ksetpeer.
func UDPLoopback(cfg WireConfig) TransportFactory {
	return func(n int) (Transport, error) {
		return wire.NewLoopback(wire.LoopbackConfig{
			RoundTimeout: cfg.RoundTimeout,
			Retransmit:   cfg.Retransmit,
			Seed:         cfg.Seed,
		}, n)
	}
}
