// Package wire moves round payloads between OS processes over real
// sockets — the transport plane that takes the §6.2 synchronous protocol
// out of the in-memory delivery matrix and runs it across process
// boundaries, with the robustness layer an unreliable network demands:
// datagram framing, retransmission with exponential backoff and jitter,
// per-round deadlines, and crash suspicion for peers that go silent.
//
// The package has three layers:
//
//   - The frame codec (frame.go, payload.go): fixed-buffer datagram
//     framing with a version byte, a round/src/dst header and a payload
//     of one value byte or the three bytes of a state triple (frame v2;
//     testdata/frames_v2.json pins its bytes and v1's rejection).
//     Encoding into a caller-owned buffer allocates nothing; the decoder
//     is strict — every malformed input yields an error wrapping
//     kerr.ErrBadFrame, never a panic, and every accepted frame
//     re-encodes byte-identically (pinned by FuzzFrameDecode).
//
//   - The engine-driven transport: Loopback implements rounds.Transport
//     over one UDP socket per simulated process, with
//     retransmit-until-arrival inside Deliver and a per-round deadline
//     after which a silent peer's copies are written off as lost. On
//     Linux amd64/arm64 a sender's round leaves in one sendmmsg and a
//     destination reads with recvmmsg (elsewhere: a datagram per call);
//     retransmissions, rare and from different senders, go singly.
//     Without a mesh (its zero value, named PipeTransport) it routes
//     every copy through the codec deterministically in-process — the
//     test harness proving the codec preserves round semantics. Both
//     plug into the engine through kset.WithTransport; a lossless run is
//     byte-identical to the MatrixTransport run of the same scenario.
//
//   - The peer plane: Node drives one process's protocol instance over a
//     PacketConn (UDP between OS processes via cmd/ksetpeer, or the
//     deterministic in-memory pipe net in tests), with per-destination
//     retransmit-until-ack, fin frames announcing decision or completion,
//     and a per-round deadline mapping unresponsive peers into the
//     protocol's crash accounting. A Node run always terminates —
//     decided or undecided — within MaxRounds round deadlines, and
//     buffers nothing for a round past MaxRounds, whoever sends it.
//
// Every bounded wait of the package — a Loopback destination's round, a
// node's round, a node's linger — runs on one pacer (pace.go): deadline,
// jittered doubling retransmission schedule, bounded read.
//
// Suspicion is sound only under the synchronous assumption the paper's
// model already makes: the round deadline is the synchrony parameter, and
// a peer that misses it is treated as crashed (crash-stop — it is never
// readmitted, though its stray frames are still acknowledged so the
// network quiesces). Choose deadlines comfortably above the link's round
// trip; the defaults suit loopback and LAN.
package wire
