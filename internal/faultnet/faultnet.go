package faultnet

import (
	"math"

	"kset/internal/prng"
	"kset/internal/rounds"
)

// lateCopy is one copy in flight past its send round, its payload frozen.
type lateCopy struct {
	src     rounds.ProcessID
	payload any
}

// profile is a compiled LinkFaults: each probability as its thresh.
type profile struct {
	loss, delay, dup uint64
	maxDelay         int
}

// thresh compiles a probability into the integer T = ⌈p·2⁵³⌉, for which
// rng.Float64() < p ⟺ rng.Next()>>11 < T exactly: Float64 is the 53-bit
// draw x scaled by 2⁻⁵³, both scalings are exact, and an integer x is
// below the real p·2⁵³ exactly when it is below its ceiling. T is 0 only
// for p = 0, which never fires and consumes no draw (see hit).
func thresh(p float64) uint64 { return uint64(math.Ceil(p * (1 << 53))) }

func compile(lf LinkFaults) profile {
	return profile{thresh(lf.Loss), thresh(lf.DelayProb), thresh(lf.Duplicate), lf.MaxDelay}
}

// Transport is a deterministic fault-injecting rounds.Transport: it
// applies a Plan's scheduled faults and seeded random faults — loss,
// delay-by-rounds, duplication, send-order reordering — to every copy
// the engine hands over, composed on top of whatever crash adversary the
// engine already applied. The zero value is unusable; call SetPlan first.
//
// It decorates an inner rounds.Transport (SetInner; by default an embedded
// rounds.MatrixTransport). Send hands the on-time survivors of the
// broadcast's prefix to the inner transport in one Send, in send order;
// only delayed and duplicated copies stay here, on a ring of maxDelay+1
// slots indexed by arrival round, one list per destination. Deliver is the
// inner row overlaid, where it is nil, with the round's late arrivals,
// latest sent first: a round's own copy shadows a stale one, of several
// stale ones the latest sent wins, and a delayed copy arriving alone
// surfaces as that round's payload from its sender — the
// at-most-one-message-per-sender-per-round shape rounds.Process
// implementations expect, with stale payload types left to the protocol's
// receive filters. (A nil payload is, as on the matrix, silence.) A copy
// is lost at exactly one layer — one dropped here never reaches the inner
// transport, so a blocking inner Deliver never waits for it — and
// Delivered and FaultCounts are the sums of the two layers' counters.
//
// SetPlan compiles the plan once: probabilities to integer thresholds,
// scheduled faults to an index, and whether it injects anything at all
// (Zero). Late copies of rounds.Freezer payloads are frozen once per Send
// into copies the transport owns: they stay valid until the next Reset,
// which hands them back to Freeze to be overwritten — receivers retain no
// payload past their Step (see rounds.Process) — so a warm transport
// injects faults without allocating.
//
// A Transport is driven by one engine at a time (see rounds.Transport)
// and reusable across runs and system sizes: Reset rewinds the counters,
// the inner transport, the ring and the random stream (to Reseed's seed,
// or the plan's).
type Transport struct {
	plan  *Plan
	planN int // the n the plan was validated against

	// The compiled plan.
	def      profile
	links    map[Link]profile   // nil without per-link overrides
	sched    map[schedKey]Fault // nil without scheduled faults
	reorder  uint64
	maxDelay int
	zero     bool

	seed uint64 // per-run base; rng rewinds to it on Reset
	rng  prng.Rand

	inner  rounds.Transport // carries the on-time copies; Reset makes nil &matrix
	matrix rounds.MatrixTransport

	n                                    int
	postponed, lost, delayed, duplicated int64 // postponed: late copies, which inner never counts

	// late[slot*n+dst-1] lists the late copies arriving at dst in rounds
	// ≡ slot (mod maxDelay+1), in send order; BeginRound retires the slot
	// whose round has passed before it is refilled for round r+maxDelay.
	late [][]lateCopy
	// frozen holds the copies Freeze returned: the first used belong to
	// the current run, the rest are retired ones awaiting reuse.
	frozen []any
	used   int
	order  []rounds.ProcessID // reorder scratch
	onTime []rounds.ProcessID // one Send's survivors, in send order
}

// schedKey indexes the scheduled faults by (round, link).
type schedKey struct {
	round    int
	from, to rounds.ProcessID
}

var (
	_ rounds.Transport    = (*Transport)(nil)
	_ rounds.FaultCounter = (*Transport)(nil)
	_ rounds.CancelAware  = (*Transport)(nil)
)

// SetPlan installs a plan, validating it against n processes (n ≤ 0
// skips the ID bounds) and compiling it. The plan pointer and n are the
// cache key — installing the already-installed plan is free, and mutating
// an installed plan is undefined. The random stream reseeds to the plan's
// seed; override per run with Reseed.
func (t *Transport) SetPlan(plan *Plan, n int) error {
	if plan == nil {
		return errNilPlan
	}
	if plan == t.plan && n == t.planN {
		return nil
	}
	if err := plan.Validate(n); err != nil {
		return err
	}
	t.plan, t.planN = plan, n
	t.def, t.reorder = compile(plan.Default), thresh(plan.Reorder)
	t.maxDelay, t.zero = plan.maxDelay(), plan.Zero()
	t.links, t.sched = nil, nil
	if len(plan.Links) > 0 {
		t.links = make(map[Link]profile, len(plan.Links))
		for link, lf := range plan.Links {
			t.links[link] = compile(lf)
		}
	}
	if len(plan.Scheduled) > 0 {
		t.sched = make(map[schedKey]Fault, len(plan.Scheduled))
		for _, f := range plan.Scheduled {
			t.sched[schedKey{f.Round, f.From, f.To}] = f
		}
	}
	t.seed = uint64(plan.Seed)
	return nil
}

// SetInner installs the transport the next runs' on-time copies ride;
// nil is the embedded rounds.MatrixTransport.
func (t *Transport) SetInner(inner rounds.Transport) { t.inner = inner }

// Zero is the installed plan's Plan.Zero, computed once by SetPlan: such a
// run is identical on the inner transport alone.
func (t *Transport) Zero() bool { return t.zero }

// Reseed fixes the base seed of the next runs' random fault stream.
// Batch drivers derive it per scenario (plan seed mixed with the
// scenario's seed and input), making every run's faults independent of
// worker count and execution order.
func (t *Transport) Reseed(seed uint64) { t.seed = seed }

// Reset implements rounds.Transport: counters to zero, the inner
// transport reset, the ring emptied, the previous run's frozen copies
// retired for reuse, random stream rewound to the base seed.
func (t *Transport) Reset(n int) {
	if t.inner == nil {
		t.inner = &t.matrix
	}
	t.inner.Reset(n)
	t.n = n
	t.rng = prng.New(t.seed)
	t.postponed, t.lost, t.delayed, t.duplicated = 0, 0, 0, 0
	t.used = 0
	if cap(t.order) < n {
		t.order = make([]rounds.ProcessID, n)
		t.onTime = make([]rounds.ProcessID, n)
	}
	// Lists past this run's (maxDelay+1)·n are emptied when a run needs them.
	for len(t.late) < (t.maxDelay+1)*n {
		t.late = append(t.late, nil)
	}
	for i := range t.late[:(t.maxDelay+1)*n] {
		t.late[i] = t.late[i][:0]
	}
}

// BeginRound implements rounds.Transport: the inner transport opens the
// round and the ring slot whose arrival round has passed is retired,
// freeing it for round r+maxDelay arrivals.
func (t *Transport) BeginRound(r int) {
	t.inner.BeginRound(r)
	slot := (r + t.maxDelay) % (t.maxDelay + 1)
	for i := slot * t.n; i < (slot+1)*t.n; i++ {
		t.late[i] = t.late[i][:0]
	}
}

// hit draws whether a fault of threshold T strikes; T = 0 draws nothing.
func (t *Transport) hit(T uint64) bool { return T != 0 && t.rng.Next()>>11 < T }

// Send implements rounds.Transport: each copy of the broadcast runs the
// link's fault gauntlet — scheduled fault first, then seeded loss,
// delay and duplication — and the survivors are handed to the inner
// transport, in one Send, or filed under their arrival round.
func (t *Transport) Send(r int, src rounds.ProcessID, payload any, order []rounds.ProcessID, limit int) {
	if limit <= 0 {
		return
	}
	if t.hit(t.reorder) {
		order = t.shuffled(order)
	}
	sched, links := t.sched, t.links
	onTime := t.onTime[:0]
	frozen := any(nil)
	for _, dst := range order[:limit] {
		if sched != nil {
			if f, ok := sched[schedKey{r, src, dst}]; ok {
				switch f.Kind {
				case Drop:
					t.lost++
				case Delay:
					t.delayed++
					t.postpone(r+f.Delay, src, dst, payload, &frozen)
				case Duplicate:
					t.duplicated++
					onTime = append(onTime, dst)
					t.postpone(r+f.Delay, src, dst, payload, &frozen)
				}
				continue
			}
		}
		lf := t.def
		if links != nil {
			if o, ok := links[Link{From: src, To: dst}]; ok {
				lf = o
			}
		}
		if t.hit(lf.loss) {
			t.lost++
			continue
		}
		if t.hit(lf.delay) {
			t.delayed++
			t.postpone(r+t.delayDraw(lf.maxDelay), src, dst, payload, &frozen)
		} else {
			onTime = append(onTime, dst)
		}
		if t.hit(lf.dup) {
			t.duplicated++
			t.postpone(r+t.delayDraw(lf.maxDelay), src, dst, payload, &frozen)
		}
	}
	t.inner.Send(r, src, payload, onTime, len(onTime))
}

// postpone files one copy for arrival in a later round, freezing the
// payload (once per Send) into a retired copy when there is one.
func (t *Transport) postpone(arrival int, src, dst rounds.ProcessID, payload any, frozen *any) {
	if *frozen == nil {
		*frozen = payload
		if fz, ok := payload.(rounds.Freezer); ok {
			if t.used == len(t.frozen) {
				t.frozen = append(t.frozen, nil)
			}
			*frozen = fz.Freeze(t.frozen[t.used])
			t.frozen[t.used] = *frozen
			t.used++
		}
	}
	list := &t.late[arrival%(t.maxDelay+1)*t.n+int(dst)-1]
	*list = append(*list, lateCopy{src, *frozen})
	t.postponed++
}

// Deliver implements rounds.Transport: the inner transport's row for dst,
// overlaid with the round's late arrivals from senders it shows nothing
// of — latest sent first, so that one surfaces.
func (t *Transport) Deliver(r int, dst rounds.ProcessID, row []any) {
	t.inner.Deliver(r, dst, row)
	late := t.late[r%(t.maxDelay+1)*t.n+int(dst)-1]
	for i := len(late) - 1; i >= 0; i-- {
		if m := late[i]; row[m.src-1] == nil {
			row[m.src-1] = m.payload
		}
	}
}

// Delivered implements rounds.Transport: the copies accepted for
// delivery, by the inner transport or as late copies — losses excluded,
// duplicates included, delayed copies counted when accepted even if the
// run ends before they arrive.
func (t *Transport) Delivered() int64 { return t.inner.Delivered() + t.postponed }

// FaultCounts implements rounds.FaultCounter: this layer's faults plus
// the inner transport's own (a wire transport's written-off copies).
func (t *Transport) FaultCounts() (lost, delayed, duplicated int64) {
	if fc, ok := t.inner.(rounds.FaultCounter); ok {
		lost, delayed, duplicated = fc.FaultCounts()
	}
	return lost + t.lost, delayed + t.delayed, duplicated + t.duplicated
}

// SetCancel implements rounds.CancelAware for a blocking inner Deliver.
func (t *Transport) SetCancel(cancel <-chan struct{}) {
	if ca, ok := t.inner.(rounds.CancelAware); ok {
		ca.SetCancel(cancel)
	}
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
