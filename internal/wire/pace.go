package wire

import (
	"errors"
	"os"
	"time"

	"kset/internal/prng"
)

// Default pacing: the first retransmission fires after DefaultRetransmit
// (doubling up to a quarter of the round deadline), and a destination that
// has produced nothing for DefaultRoundTimeout is written off. Loopback
// round trips are microseconds, so the defaults leave three orders of
// magnitude of slack while keeping lossy runs' termination prompt.
const (
	DefaultRoundTimeout = 2 * time.Second
	DefaultRetransmit   = 2 * time.Millisecond
)

// pollTick bounds one read, so a wait notices cancellation promptly even
// when neither the deadline nor a retransmission is near.
const pollTick = 100 * time.Millisecond

// jittered spreads a retransmission interval over [d/2, 3d/2) so that
// colliding peers (or colliding destinations of one loopback process)
// decorrelate instead of retransmitting in lock step.
func jittered(rng *prng.Rand, d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	return d/2 + time.Duration(rng.Intn(int(d)))
}

// backoff doubles the retransmission interval up to the cap.
func backoff(cur, cap time.Duration) time.Duration {
	cur *= 2
	if cur > cap {
		return cap
	}
	return cur
}

// pace is what a bounded wait must do next.
type pace int

const (
	paceRead     pace = iota // nothing is due: read
	paceSend                 // a (re)transmission is due: send, then read
	paceExpired              // the deadline passed
	paceCanceled             // the run was canceled
)

// pacer is the clock of one bounded wait — a Loopback destination's round,
// a node's round, a node's linger: a deadline, and a retransmission
// schedule whose interval doubles with jitter up to a quarter of the
// timeout. The waits differ only in what they retransmit and what
// completes them; both stay with the caller.
type pacer struct {
	now, deadline, next time.Time
	interval, cap       time.Duration
	rng                 *prng.Rand
}

// startPacer opens a wait of the given timeout. The first transmission is
// due at once, unless it was already sent, in which case the first
// retransmission is due one jittered interval from now.
func startPacer(rng *prng.Rand, timeout, interval time.Duration, sent bool) pacer {
	now := time.Now()
	p := pacer{now: now, deadline: now.Add(timeout), next: now, interval: interval, cap: timeout / 4, rng: rng}
	if sent {
		p.next = now.Add(jittered(rng, interval))
	}
	return p
}

// tick reads the clock and says what is due, scheduling the next
// retransmission when it answers paceSend.
func (p *pacer) tick(cancel <-chan struct{}) pace {
	select {
	case <-cancel:
		return paceCanceled
	default:
	}
	p.now = time.Now()
	if !p.now.Before(p.deadline) {
		return paceExpired
	}
	if p.now.Before(p.next) {
		return paceRead
	}
	p.interval = backoff(p.interval, p.cap)
	p.next = p.now.Add(jittered(p.rng, p.interval))
	return paceSend
}

// read waits for at most one datagram, until the earliest of the deadline,
// the next retransmission and the poll tick. It returns 0, nil when none
// came in time.
func (p *pacer) read(conn PacketConn, buf []byte) (int, error) {
	return inTime(p.arm(conn).ReadFrom(buf))
}

// readBatch is read for a batch (readBatch): it returns the count.
func (p *pacer) readBatch(conn PacketConn, bufs [][]byte, lens []int) (int, error) {
	return inTime(readBatch(p.arm(conn), bufs, lens))
}

// arm sets conn's read deadline as read describes and returns conn.
func (p *pacer) arm(conn PacketConn) PacketConn {
	wait := p.now.Add(pollTick)
	if p.deadline.Before(wait) {
		wait = p.deadline
	}
	if p.next.Before(wait) {
		wait = p.next
	}
	conn.SetReadDeadline(wait)
	return conn
}

// inTime turns a read that hit its deadline into an empty one.
func inTime(n int, err error) (int, error) {
	if errors.Is(err, os.ErrDeadlineExceeded) {
		return 0, nil
	}
	return n, err
}
