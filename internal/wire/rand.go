package wire

import (
	"time"

	"kset/internal/prng"
)

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

// Default pacing: the first retransmission fires after DefaultRetransmit
// (doubling up to a quarter of the round deadline), and a destination that
// has produced nothing for DefaultRoundTimeout is written off. Loopback
// round trips are microseconds, so the defaults leave three orders of
// magnitude of slack while keeping lossy runs' termination prompt.
const (
	DefaultRoundTimeout = 2 * time.Second
	DefaultRetransmit   = 2 * time.Millisecond
)
