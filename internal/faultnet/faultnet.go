package faultnet

import (
	"kset/internal/prng"
	"kset/internal/rounds"
)

// message is one in-flight copy: who sent it and when, and the payload
// (frozen when retained past its send round).
type message struct {
	src       rounds.ProcessID
	sentRound int
	payload   any
}

// Transport is a deterministic fault-injecting rounds.Transport: it
// applies a Plan's scheduled faults and seeded random faults — loss,
// delay-by-rounds, duplication, send-order reordering — to every copy
// the engine hands over, composed on top of whatever crash adversary the
// engine already applied. The zero value is unusable; call SetPlan (or
// New) first.
//
// Delayed and duplicated copies ride a ring of maxDelay+1 in-flight
// slots indexed by arrival round, so a warm transport injects faults
// without allocating. Arrivals are resolved per (destination, sender)
// with a latest-send-round-wins rule: a round's own copy shadows a
// stale delayed one, and a delayed copy arriving alone surfaces as that
// round's payload from its sender — exactly the at-most-one-message-
// per-sender-per-round shape rounds.Process implementations expect,
// with stale payload types left to the protocol's receive filters.
//
// A Transport is driven by one engine at a time (see rounds.Transport)
// and reusable across runs: Reset rewinds the counters, the ring and
// the random stream (to the seed set by Reseed, or the plan's).
type Transport struct {
	plan     *Plan
	sched    map[schedKey]Fault
	maxDelay int

	seed uint64 // per-run base; rng rewinds to it on Reset
	rng  prng.Rand

	n                                    int
	delivered, lost, delayed, duplicated int64

	// flight[slot][dst-1] holds the copies arriving at dst in rounds
	// ≡ slot (mod maxDelay+1); BeginRound retires the slot whose round
	// has passed before it is refilled for round r+maxDelay.
	flight [][][]message
	order  []rounds.ProcessID // reorder scratch
	latest []int              // per-sender latest send round seen by Deliver
}

// schedKey indexes the scheduled faults by (round, link).
type schedKey struct {
	round    int
	from, to rounds.ProcessID
}

var (
	_ rounds.Transport    = (*Transport)(nil)
	_ rounds.FaultCounter = (*Transport)(nil)
)

// New returns a Transport executing the given plan, validated against a
// system of n processes (n ≤ 0 defers the ID bound checks to the first
// run).
func New(plan *Plan, n int) (*Transport, error) {
	t := &Transport{}
	if err := t.SetPlan(plan, n); err != nil {
		return nil, err
	}
	return t, nil
}

// SetPlan installs a plan, validating it against n processes (n ≤ 0
// skips the ID bounds) and rebuilding the scheduled-fault index. The
// plan pointer is the cache key — installing the already-installed plan
// is free, and mutating an installed plan is undefined. The random
// stream reseeds to the plan's seed; override per run with Reseed.
func (t *Transport) SetPlan(plan *Plan, n int) error {
	if plan == nil {
		return errNilPlan
	}
	if plan == t.plan {
		return nil
	}
	if err := plan.Validate(n); err != nil {
		return err
	}
	t.plan = plan
	t.maxDelay = plan.maxDelay()
	t.sched = nil
	if len(plan.Scheduled) > 0 {
		t.sched = make(map[schedKey]Fault, len(plan.Scheduled))
		for _, f := range plan.Scheduled {
			t.sched[schedKey{f.Round, f.From, f.To}] = f
		}
	}
	t.seed = uint64(plan.Seed)
	return nil
}

// Plan returns the installed plan.
func (t *Transport) Plan() *Plan { return t.plan }

// Reseed fixes the base seed of the next runs' random fault stream.
// Batch drivers derive it per scenario (plan seed mixed with the
// scenario's seed and input), making every run's faults independent of
// worker count and execution order.
func (t *Transport) Reseed(seed uint64) { t.seed = seed }

// Reset implements rounds.Transport: counters to zero, ring emptied,
// random stream rewound to the base seed.
func (t *Transport) Reset(n int) {
	t.n = n
	t.rng = prng.New(t.seed)
	t.delivered, t.lost, t.delayed, t.duplicated = 0, 0, 0, 0
	slots := t.maxDelay + 1
	if cap(t.flight) < slots {
		t.flight = make([][][]message, slots)
	}
	t.flight = t.flight[:slots]
	for s := range t.flight {
		if cap(t.flight[s]) < n {
			t.flight[s] = make([][]message, n)
		}
		t.flight[s] = t.flight[s][:n]
		for d := range t.flight[s] {
			t.flight[s][d] = t.flight[s][d][:0]
		}
	}
	if cap(t.order) < n {
		t.order = make([]rounds.ProcessID, n)
		t.latest = make([]int, n)
	}
	t.order = t.order[:n]
	t.latest = t.latest[:n]
}

// BeginRound implements rounds.Transport: it retires the ring slot whose
// arrival round has passed, freeing it for round r+maxDelay arrivals.
func (t *Transport) BeginRound(r int) {
	slot := t.flight[(r+t.maxDelay)%(t.maxDelay+1)]
	for d := range slot {
		slot[d] = slot[d][:0]
	}
}

// Send implements rounds.Transport: each copy of the broadcast runs the
// link's fault gauntlet — scheduled fault first, then seeded loss,
// delay and duplication — and the survivors are filed under their
// arrival round. Copies retained past round r (delays, duplicates) are
// frozen (rounds.Freezer) so protocols may keep reusing their send
// buffers.
func (t *Transport) Send(r int, src rounds.ProcessID, payload any, order []rounds.ProcessID, limit int) {
	if limit <= 0 {
		return
	}
	if t.plan.Reorder > 0 && t.rng.Float64() < t.plan.Reorder {
		order = t.shuffled(order)
	}
	frozen := any(nil)
	for k := 0; k < limit; k++ {
		dst := order[k]
		if f, ok := t.sched[schedKey{r, src, dst}]; ok {
			switch f.Kind {
			case Drop:
				t.lost++
			case Delay:
				t.delayed++
				t.enqueue(r, f.Delay, src, dst, payload, &frozen)
			case Duplicate:
				t.duplicated++
				t.enqueue(r, 0, src, dst, payload, &frozen)
				t.enqueue(r, f.Delay, src, dst, payload, &frozen)
			}
			continue
		}
		lf := t.plan.Default
		if len(t.plan.Links) > 0 {
			if o, ok := t.plan.Links[Link{From: src, To: dst}]; ok {
				lf = o
			}
		}
		if lf.Loss > 0 && t.rng.Float64() < lf.Loss {
			t.lost++
			continue
		}
		d := 0
		if lf.DelayProb > 0 && t.rng.Float64() < lf.DelayProb {
			d = t.delayDraw(lf.MaxDelay)
			t.delayed++
		}
		t.enqueue(r, d, src, dst, payload, &frozen)
		if lf.Duplicate > 0 && t.rng.Float64() < lf.Duplicate {
			t.duplicated++
			t.enqueue(r, t.delayDraw(lf.MaxDelay), src, dst, payload, &frozen)
		}
	}
}

// enqueue files one copy sent in round r for arrival d rounds later,
// freezing the payload (once per Send) when it outlives its round.
func (t *Transport) enqueue(r, d int, src, dst rounds.ProcessID, payload any, frozen *any) {
	if d > 0 {
		if *frozen == nil {
			if fz, ok := payload.(rounds.Freezer); ok {
				*frozen = fz.Freeze()
			} else {
				*frozen = payload
			}
		}
		payload = *frozen
	}
	row := t.flight[(r+d)%(t.maxDelay+1)]
	row[dst-1] = append(row[dst-1], message{src: src, sentRound: r, payload: payload})
	t.delivered++
}

// Deliver implements rounds.Transport: round r's arrivals for dst,
// resolved per sender by latest send round (an on-time copy shadows a
// stale delayed one; ties — duplicates of one copy — carry the same
// payload).
func (t *Transport) Deliver(r int, dst rounds.ProcessID, row []any) {
	for i := range row {
		row[i] = nil
	}
	for i := range t.latest {
		t.latest[i] = 0
	}
	for _, m := range t.flight[r%(t.maxDelay+1)][dst-1] {
		if m.sentRound >= t.latest[m.src-1] {
			t.latest[m.src-1] = m.sentRound
			row[m.src-1] = m.payload
		}
	}
}

// Delivered implements rounds.Transport: the copies accepted for
// delivery — losses excluded, duplicates included, delayed copies
// counted when accepted even if the run ends before they arrive.
func (t *Transport) Delivered() int64 { return t.delivered }

// FaultCounts implements rounds.FaultCounter.
func (t *Transport) FaultCounts() (lost, delayed, duplicated int64) {
	return t.lost, t.delayed, t.duplicated
}

// shuffled copies order into the transport's scratch and applies a
// seeded Fisher–Yates shuffle.
func (t *Transport) shuffled(order []rounds.ProcessID) []rounds.ProcessID {
	s := t.order[:len(order)]
	copy(s, order)
	prng.Shuffle(&t.rng, s)
	return s
}

// delayDraw returns a uniform delay from {1, …, max} rounds; a bound of
// at most one round is no choice and consumes no draw.
func (t *Transport) delayDraw(max int) int {
	if max <= 1 {
		return 1
	}
	return 1 + t.rng.Intn(max)
}
