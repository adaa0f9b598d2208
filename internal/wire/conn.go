package wire

import (
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"kset/internal/rounds"
)

// PacketConn is the minimal unreliable-datagram surface the wire plane
// runs on: one endpoint of a full mesh, addressing peers by process ID.
// The UDP implementation backs cmd/ksetpeer and the Loopback transport;
// the in-memory PipeNet implementation gives tests a deterministic,
// optionally lossy network with no sockets.
type PacketConn interface {
	// WriteTo sends one datagram to the peer with the given process ID
	// (1..n). Delivery is best-effort — the datagram may be lost,
	// duplicated or reordered in transit — and WriteTo errors only when
	// the endpoint itself is broken or closed.
	WriteTo(b []byte, dst rounds.ProcessID) error
	// ReadFrom receives one datagram into b and returns its length,
	// honoring the read deadline: a timeout satisfies
	// errors.Is(err, os.ErrDeadlineExceeded).
	ReadFrom(b []byte) (int, error)
	// SetReadDeadline bounds future ReadFrom calls; the zero time means
	// no deadline.
	SetReadDeadline(t time.Time) error
	// Close releases the endpoint; blocked and future reads fail.
	Close() error
}

// batchConn is implemented by endpoints that move several datagrams, at
// most one per peer, per system call: the Loopback's sockets on Linux.
// readBatch takes what is queued, waiting under the read deadline while
// nothing is, and returns the count; lens[i] is datagram i's length.
type batchConn interface {
	writeBatch(frames [][]byte, dsts []rounds.ProcessID) error
	readBatch(bufs [][]byte, lens []int) (int, error)
}

// writeBatch sends frames[i] to dsts[i] through conn — in one batch when
// conn has one, one WriteTo each otherwise — and returns the first error.
func writeBatch(conn PacketConn, frames [][]byte, dsts []rounds.ProcessID) error {
	if b, ok := conn.(batchConn); ok {
		return b.writeBatch(frames, dsts)
	}
	var first error
	for i, f := range frames {
		if err := conn.WriteTo(f, dsts[i]); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// readBatch receives into bufs through conn: a batch when conn has one,
// one ReadFrom otherwise.
func readBatch(conn PacketConn, bufs [][]byte, lens []int) (k int, err error) {
	if b, ok := conn.(batchConn); ok {
		return b.readBatch(bufs, lens)
	}
	lens[0], err = conn.ReadFrom(bufs[0])
	return 1, err
}

// udpConn adapts one *net.UDPConn plus a peer address table.
type udpConn struct {
	c     *net.UDPConn
	peers []*net.UDPAddr // peers[id-1]; nil entries are unreachable
}

// DialUDP binds a UDP socket on laddr and wires it into the mesh given
// by the peer address table: peers[i] is the address of process i+1 (the
// local process's own entry may be empty — a node never dials itself).
func DialUDP(laddr string, peers []string) (PacketConn, error) {
	local, err := net.ResolveUDPAddr("udp", laddr)
	if err != nil {
		return nil, fmt.Errorf("wire: resolve local %q: %w", laddr, err)
	}
	c, err := net.ListenUDP("udp", local)
	if err != nil {
		return nil, fmt.Errorf("wire: bind %q: %w", laddr, err)
	}
	table := make([]*net.UDPAddr, len(peers))
	for i, p := range peers {
		if p == "" {
			continue
		}
		addr, err := net.ResolveUDPAddr("udp", p)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("wire: resolve peer %d %q: %w", i+1, p, err)
		}
		table[i] = addr
	}
	return &udpConn{c: c, peers: table}, nil
}

func (u *udpConn) WriteTo(b []byte, dst rounds.ProcessID) error {
	i := int(dst) - 1
	if i < 0 || i >= len(u.peers) || u.peers[i] == nil {
		return fmt.Errorf("wire: no address for process %d", dst)
	}
	_, err := u.c.WriteToUDP(b, u.peers[i])
	return err
}

func (u *udpConn) ReadFrom(b []byte) (int, error) {
	n, _, err := u.c.ReadFromUDPAddrPort(b) // no *UDPAddr allocated per datagram
	return n, err
}

func (u *udpConn) SetReadDeadline(t time.Time) error { return u.c.SetReadDeadline(t) }

func (u *udpConn) Close() error { return u.c.Close() }

// dialUDPLoopback binds n ephemeral UDP sockets on 127.0.0.1 and wires
// them into a full mesh, batched where it can be: the Loopback's network.
func dialUDPLoopback(n int) ([]PacketConn, error) {
	socks := make([]*net.UDPConn, n)
	addrs := make([]*net.UDPAddr, n)
	fail := func(err error) ([]PacketConn, error) {
		for _, s := range socks {
			if s != nil {
				s.Close()
			}
		}
		return nil, err
	}
	for i := 0; i < n; i++ {
		c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			return fail(fmt.Errorf("wire: bind loopback socket %d: %w", i+1, err))
		}
		socks[i] = c
		addrs[i] = c.LocalAddr().(*net.UDPAddr)
	}
	conns := make([]PacketConn, n)
	var err error
	for i := 0; i < n; i++ {
		if conns[i], err = batched(&udpConn{c: socks[i], peers: addrs}); err != nil {
			return fail(fmt.Errorf("wire: loopback socket %d: %w", i+1, err))
		}
	}
	return conns, nil
}

// pipePacket is one in-flight datagram of a PipeNet.
type pipePacket struct {
	data [MaxFrame]byte
	len  int
}

// PipeNet is an in-memory datagram mesh: n endpoints with bounded queues
// and UDP semantics (a full queue drops, closing an endpoint fails its
// reads). An optional drop hook makes it a deterministic lossy network
// for exercising the retransmission and suspicion paths without real
// sockets or random timing.
type PipeNet struct {
	mu     sync.Mutex
	queues []chan pipePacket
	closed []chan struct{}
	drop   func(src, dst rounds.ProcessID, frame []byte) bool
}

// pipeQueueLen bounds each endpoint's receive queue, mimicking a socket
// buffer: writes to a full queue are silently dropped.
const pipeQueueLen = 4096

// NewPipeNet builds a mesh of n endpoints.
func NewPipeNet(n int) *PipeNet {
	pn := &PipeNet{
		queues: make([]chan pipePacket, n),
		closed: make([]chan struct{}, n),
	}
	for i := range pn.queues {
		pn.queues[i] = make(chan pipePacket, pipeQueueLen)
		pn.closed[i] = make(chan struct{})
	}
	return pn
}

// SetDrop installs the loss adversary: frames for which it returns true
// vanish in transit. A nil hook restores lossless delivery. Safe to call
// concurrently with traffic.
func (pn *PipeNet) SetDrop(drop func(src, dst rounds.ProcessID, frame []byte) bool) {
	pn.mu.Lock()
	pn.drop = drop
	pn.mu.Unlock()
}

// Conn returns the endpoint of process id (1..n).
func (pn *PipeNet) Conn(id rounds.ProcessID) PacketConn {
	return &pipeConn{net: pn, id: id}
}

// send routes one datagram from src to dst, applying the drop hook and
// full-queue loss.
func (pn *PipeNet) send(src, dst rounds.ProcessID, b []byte) error {
	i := int(dst) - 1
	if i < 0 || i >= len(pn.queues) {
		return fmt.Errorf("wire: no pipe endpoint for process %d", dst)
	}
	if len(b) > MaxFrame {
		return fmt.Errorf("wire: datagram of %d bytes exceeds MaxFrame", len(b))
	}
	pn.mu.Lock()
	drop := pn.drop
	pn.mu.Unlock()
	if drop != nil && drop(src, dst, b) {
		return nil
	}
	var pkt pipePacket
	pkt.len = copy(pkt.data[:], b)
	select {
	case pn.queues[i] <- pkt:
	default: // queue full: drop, like a UDP socket buffer
	}
	return nil
}

// pipeConn is one PipeNet endpoint.
type pipeConn struct {
	net      *PipeNet
	id       rounds.ProcessID
	mu       sync.Mutex
	deadline time.Time
}

func (c *pipeConn) WriteTo(b []byte, dst rounds.ProcessID) error {
	select {
	case <-c.net.closed[int(c.id)-1]:
		return net.ErrClosed
	default:
	}
	return c.net.send(c.id, dst, b)
}

func (c *pipeConn) ReadFrom(b []byte) (int, error) {
	c.mu.Lock()
	deadline := c.deadline
	c.mu.Unlock()
	queue := c.net.queues[int(c.id)-1]
	closed := c.net.closed[int(c.id)-1]
	var timeout <-chan time.Time
	if !deadline.IsZero() {
		wait := time.Until(deadline)
		if wait <= 0 {
			// Drain anything already queued before reporting the timeout.
			select {
			case pkt := <-queue:
				return copy(b, pkt.data[:pkt.len]), nil
			default:
				return 0, os.ErrDeadlineExceeded
			}
		}
		t := time.NewTimer(wait)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case pkt := <-queue:
		return copy(b, pkt.data[:pkt.len]), nil
	case <-timeout:
		return 0, os.ErrDeadlineExceeded
	case <-closed:
		return 0, net.ErrClosed
	}
}

func (c *pipeConn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	c.deadline = t
	c.mu.Unlock()
	return nil
}

func (c *pipeConn) Close() error {
	c.net.mu.Lock()
	defer c.net.mu.Unlock()
	ch := c.net.closed[int(c.id)-1]
	select {
	case <-ch:
	default:
		close(ch)
	}
	return nil
}
