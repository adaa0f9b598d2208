package faultnet

import (
	"math"
	"math/rand"
	"testing"

	"kset/internal/prng"
	"kset/internal/rounds"
	"kset/internal/vector"
)

// New returns a Transport executing the given plan, validated against a
// system of n processes (n ≤ 0 skips the ID bound checks): SetPlan on a
// zero Transport, as a System worker does. Exported for this package's
// external tests.
func New(plan *Plan, n int) (*Transport, error) {
	t := &Transport{}
	if err := t.SetPlan(plan, n); err != nil {
		return nil, err
	}
	return t, nil
}

// floodMin floods the smallest value seen and decides at a fixed round —
// the same minimal protocol the rounds package tests use, with the
// type-tolerant receive a fault-injecting transport requires.
type floodMin struct {
	min      vector.Value
	decideAt int
}

func (f *floodMin) Send(int) any { return f.min }

func (f *floodMin) Step(round int, recv []any) (vector.Value, bool) {
	for _, p := range recv {
		if v, ok := p.(vector.Value); ok && v < f.min {
			f.min = v
		}
	}
	return f.min, round >= f.decideAt
}

func newFloodRun(vals []vector.Value, decideAt int) []rounds.Process {
	procs := make([]rounds.Process, len(vals))
	for i, v := range vals {
		procs[i] = &floodMin{min: v, decideAt: decideAt}
	}
	return procs
}

func randPattern(r *rand.Rand, n, t, maxRounds int) rounds.FailurePattern {
	fp := rounds.FailurePattern{Crashes: make(map[rounds.ProcessID]rounds.Crash)}
	perm := r.Perm(n)
	for i := 0; i < r.Intn(t+1); i++ {
		fp.Crashes[rounds.ProcessID(perm[i]+1)] = rounds.Crash{
			Round:      1 + r.Intn(maxRounds),
			AfterSends: r.Intn(n + 1),
		}
	}
	return fp
}

func resultsEqual(a, b *rounds.Result) bool {
	if len(a.Decisions) != len(b.Decisions) || a.Rounds != b.Rounds ||
		a.MessagesDelivered != b.MessagesDelivered || len(a.Crashed) != len(b.Crashed) {
		return false
	}
	for id, v := range a.Decisions {
		if b.Decisions[id] != v || a.DecisionRound[id-1] != b.DecisionRound[id-1] {
			return false
		}
	}
	for id := range a.Crashed {
		if !b.Crashed[id] {
			return false
		}
	}
	return true
}

// TestZeroFaultPlanMatchesMatrix is the refactor's equivalence property:
// under a fault-free plan the fault transport must reproduce the matrix
// transport's results — decisions, rounds, crash sets and the delivered-
// copies count — over randomized crash patterns.
func TestZeroFaultPlanMatchesMatrix(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	plan := &Plan{Seed: 7}
	tr, err := New(plan, 0)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 300; trial++ {
		n := 2 + r.Intn(6)
		maxRounds := 1 + r.Intn(4)
		fp := randPattern(r, n, n-1, maxRounds)
		vals := make([]vector.Value, n)
		for i := range vals {
			vals[i] = vector.Value(1 + r.Intn(5))
		}
		decideAt := 1 + r.Intn(maxRounds)

		matrix, err := rounds.NewEngine().RunInto(nil, newFloodRun(vals, decideAt), fp,
			rounds.Options{MaxRounds: maxRounds})
		if err != nil {
			t.Fatal(err)
		}
		faulty, err := rounds.NewEngine().RunInto(nil, newFloodRun(vals, decideAt), fp,
			rounds.Options{MaxRounds: maxRounds, Transport: tr})
		if err != nil {
			t.Fatal(err)
		}
		if !resultsEqual(matrix, faulty) {
			t.Fatalf("trial %d (n=%d, rounds=%d):\nmatrix %+v\nfaultnet %+v",
				trial, n, maxRounds, matrix, faulty)
		}
		if lost, delayed, dup := tr.FaultCounts(); lost != 0 || delayed != 0 || dup != 0 {
			t.Fatalf("zero-fault plan injected faults: %d/%d/%d", lost, delayed, dup)
		}
	}
}

// TestDeterminism: the same seed replays the same faults; a reseed
// changes them.
func TestDeterminism(t *testing.T) {
	plan := &Plan{Seed: 3, Default: LinkFaults{Loss: 0.3, DelayProb: 0.3, MaxDelay: 2, Duplicate: 0.2}, Reorder: 0.5}
	vals := []vector.Value{5, 3, 8, 1, 9, 2}
	run := func(seed uint64) (*rounds.Result, [3]int64) {
		tr, err := New(plan, len(vals))
		if err != nil {
			t.Fatal(err)
		}
		tr.Reseed(seed)
		res, err := rounds.NewEngine().RunInto(nil, newFloodRun(vals, 4), rounds.FailurePattern{}, rounds.Options{MaxRounds: 4, Transport: tr})
		if err != nil {
			t.Fatal(err)
		}
		l, d, u := tr.FaultCounts()
		return res, [3]int64{l, d, u}
	}
	resA, cntA := run(99)
	resB, cntB := run(99)
	if !resultsEqual(resA, resB) || cntA != cntB {
		t.Fatalf("same seed diverged: %+v %v vs %+v %v", resA, cntA, resB, cntB)
	}
	if resA.Lost != cntA[0] || resA.Delayed != cntA[1] || resA.Duplicated != cntA[2] {
		t.Fatalf("Result counters %d/%d/%d don't match transport %v",
			resA.Lost, resA.Delayed, resA.Duplicated, cntA)
	}
	if cntA[0]+cntA[1]+cntA[2] == 0 {
		t.Fatal("stormy plan injected no faults at all")
	}
	_, cntC := run(100)
	if cntA == cntC {
		t.Fatalf("reseed produced identical fault counts %v (suspicious)", cntA)
	}
}

// TestTotalLoss: a loss-everything plan delivers nothing — every process
// decides its own value, and the accounting shows it.
func TestTotalLoss(t *testing.T) {
	tr, err := New(&Plan{Default: LinkFaults{Loss: 1}}, 4)
	if err != nil {
		t.Fatal(err)
	}
	vals := []vector.Value{4, 2, 7, 5}
	res, err := rounds.NewEngine().RunInto(nil, newFloodRun(vals, 2), rounds.FailurePattern{}, rounds.Options{MaxRounds: 2, Transport: tr})
	if err != nil {
		t.Fatal(err)
	}
	if res.MessagesDelivered != 0 {
		t.Errorf("MessagesDelivered = %d, want 0", res.MessagesDelivered)
	}
	if res.Lost != 2*4*4 {
		t.Errorf("Lost = %d, want %d (every copy of 2 rounds × 4 senders × 4 dsts)", res.Lost, 2*4*4)
	}
	for id, v := range res.Decisions {
		if v != vals[id-1] {
			t.Errorf("p%d decided %v, want its own %v (nothing was delivered)", id, v, vals[id-1])
		}
	}
}

// TestScheduledDrop: a Drop pinned to (round, link) silences exactly that
// copy.
func TestScheduledDrop(t *testing.T) {
	tr, err := New(&Plan{Scheduled: []Fault{{Round: 1, From: 1, To: 2, Kind: Drop}}}, 3)
	if err != nil {
		t.Fatal(err)
	}
	// p1 holds the minimum; p2 misses it in round 1, hears it from p3 in
	// round 2 — so with decideAt 1 p2 decides late-high, with 2 all agree.
	res, err := rounds.NewEngine().RunInto(nil, newFloodRun([]vector.Value{1, 5, 9}, 1), rounds.FailurePattern{}, rounds.Options{MaxRounds: 1, Transport: tr})
	if err != nil {
		t.Fatal(err)
	}
	if res.Decisions[2] != 5 {
		t.Errorf("p2 decided %v, want 5 (p1's round-1 copy dropped)", res.Decisions[2])
	}
	if res.Decisions[1] != 1 || res.Decisions[3] != 1 {
		t.Errorf("p1/p3 decided %v/%v, want 1/1", res.Decisions[1], res.Decisions[3])
	}
	if res.Lost != 1 {
		t.Errorf("Lost = %d, want 1", res.Lost)
	}
}

// TestScheduledDelayArrives: a copy delayed by one round arrives the next
// round, surfacing only when no fresher copy shadows it (the sender
// crashed before resending).
func TestScheduledDelayArrives(t *testing.T) {
	plan := &Plan{Scheduled: []Fault{{Round: 1, From: 1, To: 2, Kind: Delay, Delay: 1}}}
	tr, err := New(plan, 3)
	if err != nil {
		t.Fatal(err)
	}
	// p1 crashes before sending anything in round 2, so p2's round-2 view
	// of p1 is exactly the delayed round-1 copy.
	fp := rounds.FailurePattern{Crashes: map[rounds.ProcessID]rounds.Crash{1: {Round: 2, AfterSends: 0}}}
	res, err := rounds.NewEngine().RunInto(nil, newFloodRun([]vector.Value{1, 5, 9}, 2), fp, rounds.Options{MaxRounds: 2, Transport: tr})
	if err != nil {
		t.Fatal(err)
	}
	if res.Decisions[2] != 1 {
		t.Errorf("p2 decided %v, want 1 (delayed round-1 copy must arrive in round 2)", res.Decisions[2])
	}
	if res.Delayed != 1 {
		t.Errorf("Delayed = %d, want 1", res.Delayed)
	}
}

// TestScheduledDuplicate: a Duplicate delivers on time and again late,
// and counts once.
func TestScheduledDuplicate(t *testing.T) {
	plan := &Plan{Scheduled: []Fault{{Round: 1, From: 1, To: 2, Kind: Duplicate, Delay: 1}}}
	tr, err := New(plan, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rounds.NewEngine().RunInto(nil, newFloodRun([]vector.Value{1, 5}, 1), rounds.FailurePattern{}, rounds.Options{MaxRounds: 1, Transport: tr})
	if err != nil {
		t.Fatal(err)
	}
	if res.Decisions[2] != 1 {
		t.Errorf("p2 decided %v, want 1 (on-time duplicate copy)", res.Decisions[2])
	}
	if res.Duplicated != 1 {
		t.Errorf("Duplicated = %d, want 1", res.Duplicated)
	}
	// Both copies were accepted for delivery.
	if res.MessagesDelivered != 2*2+1 {
		t.Errorf("MessagesDelivered = %d, want 5", res.MessagesDelivered)
	}
}

// frozenPayload exercises the Freezer contract: the sender mutates its
// buffer every round, so a delayed copy is correct only if frozen.
type frozenPayload struct{ round *int }

func (f frozenPayload) Freeze(any) any { r := *f.round; return frozenPayload{round: &r} }

type mutatingSender struct {
	round int
	seen  []int // what arrived from p1, per round
}

func (m *mutatingSender) Send(int) any { return frozenPayload{round: &m.round} }
func (m *mutatingSender) Step(round int, recv []any) (vector.Value, bool) {
	m.round = round + 1 // mutate the shared buffer for the next send
	if p, ok := recv[0].(frozenPayload); ok {
		m.seen = append(m.seen, *p.round)
	} else {
		m.seen = append(m.seen, -1)
	}
	return 1, round >= 3
}

// TestDelayedPayloadFrozen: a delayed copy must carry the payload as
// sent, not as later mutated — the transport freezes via rounds.Freezer.
func TestDelayedPayloadFrozen(t *testing.T) {
	plan := &Plan{Scheduled: []Fault{{Round: 1, From: 1, To: 2, Kind: Delay, Delay: 2}}}
	tr, err := New(plan, 2)
	if err != nil {
		t.Fatal(err)
	}
	procs := []rounds.Process{
		&mutatingSender{round: 1},
		&mutatingSender{round: 1},
	}
	// p1 crashes before its round-2/3 sends, so p2 sees only the delayed
	// round-1 copy, in round 3.
	fp := rounds.FailurePattern{Crashes: map[rounds.ProcessID]rounds.Crash{1: {Round: 2, AfterSends: 0}}}
	if _, err := rounds.NewEngine().RunInto(nil, procs, fp, rounds.Options{MaxRounds: 3, Transport: tr}); err != nil {
		t.Fatal(err)
	}
	p2 := procs[1].(*mutatingSender)
	if len(p2.seen) != 3 || p2.seen[0] != -1 || p2.seen[1] != -1 || p2.seen[2] != 1 {
		t.Fatalf("p2 saw %v from p1, want [-1 -1 1] (frozen round-1 payload arriving in round 3)", p2.seen)
	}
}

// TestReorderRespectsCrashPrefix: reordering shuffles who a crashing
// sender reaches, but never how many.
func TestReorderRespectsCrashPrefix(t *testing.T) {
	tr, err := New(&Plan{Seed: 5, Reorder: 1}, 6)
	if err != nil {
		t.Fatal(err)
	}
	fp := rounds.FailurePattern{Crashes: map[rounds.ProcessID]rounds.Crash{1: {Round: 1, AfterSends: 3}}}
	vals := []vector.Value{1, 9, 9, 9, 9, 9}
	res, err := rounds.NewEngine().RunInto(nil, newFloodRun(vals, 1), fp, rounds.Options{MaxRounds: 1, Transport: tr})
	if err != nil {
		t.Fatal(err)
	}
	// Exactly p1's 3-copy prefix was accepted (the shuffled prefix may
	// include p1 itself, so fewer live processes may hear it — but never
	// more than 3, and no copy is lost or gained).
	if want := int64(5*6 + 3); res.MessagesDelivered != want {
		t.Errorf("MessagesDelivered = %d, want %d (5 full broadcasts + p1's 3-send prefix)",
			res.MessagesDelivered, want)
	}
	got := 0
	for _, v := range res.Decisions {
		if v == 1 {
			got++
		}
	}
	if got > 3 {
		t.Errorf("%d live processes heard the crashed p1, want at most its 3-send prefix", got)
	}
	if lost, _, _ := tr.FaultCounts(); lost != 0 {
		t.Errorf("reorder lost %d copies, want 0", lost)
	}
}

// TestPlanValidate exercises the plan's validation surface.
func TestPlanValidate(t *testing.T) {
	cases := []struct {
		name string
		plan Plan
		ok   bool
	}{
		{"zero", Plan{}, true},
		{"rates", Plan{Default: LinkFaults{Loss: 0.5, DelayProb: 0.1, MaxDelay: 2, Duplicate: 0.1}, Reorder: 0.3}, true},
		{"loss-high", Plan{Default: LinkFaults{Loss: 1.5}}, false},
		{"loss-neg", Plan{Default: LinkFaults{Loss: -0.1}}, false},
		{"loss-nan", Plan{Default: LinkFaults{Loss: math.NaN()}}, false},
		{"reorder-high", Plan{Reorder: 2}, false},
		{"delay-without-bound", Plan{Default: LinkFaults{DelayProb: 0.5}}, false},
		{"dup-without-bound", Plan{Default: LinkFaults{Duplicate: 0.5}}, false},
		{"neg-delay", Plan{Default: LinkFaults{MaxDelay: -1}}, false},
		{"link-bad-id", Plan{Links: map[Link]LinkFaults{{From: 1, To: 9}: {}}}, false},
		{"link-zero-id", Plan{Links: map[Link]LinkFaults{{From: 0, To: 1}: {}}}, false},
		{"link-ok", Plan{Links: map[Link]LinkFaults{{From: 1, To: 4}: {Loss: 1}}}, true},
		{"sched-bad-round", Plan{Scheduled: []Fault{{Round: 0, From: 1, To: 2, Kind: Drop}}}, false},
		{"sched-bad-kind", Plan{Scheduled: []Fault{{Round: 1, From: 1, To: 2}}}, false},
		{"sched-delay-zero", Plan{Scheduled: []Fault{{Round: 1, From: 1, To: 2, Kind: Delay}}}, false},
		{"sched-ok", Plan{Scheduled: []Fault{{Round: 1, From: 1, To: 2, Kind: Delay, Delay: 3}}}, true},
		{"sched-bad-id", Plan{Scheduled: []Fault{{Round: 1, From: 5, To: 2, Kind: Drop}}}, false},
	}
	for _, tc := range cases {
		err := tc.plan.Validate(4)
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: validation passed, want error", tc.name)
		}
	}
	if _, err := New(nil, 4); err == nil {
		t.Error("New(nil) must fail")
	}
	if err := (&Transport{}).SetPlan(nil, 4); err == nil {
		t.Error("SetPlan(nil) must fail")
	}
}

// TestSetPlanPointerCache: reinstalling the same plan pointer is free and
// keeps state; a new pointer revalidates.
func TestSetPlanPointerCache(t *testing.T) {
	plan := &Plan{Default: LinkFaults{Loss: 0.5}}
	tr, err := New(plan, 4)
	if err != nil {
		t.Fatal(err)
	}
	tr.Reseed(42)
	if err := tr.SetPlan(plan, 4); err != nil {
		t.Fatal(err)
	}
	if tr.seed != 42 {
		t.Error("reinstalling the same plan must not clobber the reseed")
	}
	bad := &Plan{Default: LinkFaults{Loss: 2}}
	if err := tr.SetPlan(bad, 4); err == nil {
		t.Error("invalid new plan must fail")
	}
	if tr.plan != plan {
		t.Error("failed SetPlan must leave the old plan installed")
	}
}

// TestSetPlanRevalidatesPerSize: the cache key is (plan, n) — a pooled
// transport that accepted a plan for a large system must still reject it
// for a smaller one its links do not fit.
func TestSetPlanRevalidatesPerSize(t *testing.T) {
	plan := &Plan{Links: map[Link]LinkFaults{{From: 1, To: 7}: {}}}
	tr, err := New(plan, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.SetPlan(plan, 6); err == nil {
		t.Error("a link naming p7 passed on a 6-process system")
	}
	if err := tr.SetPlan(plan, 8); err != nil {
		t.Errorf("the plan is valid for 8 processes: %v", err)
	}
}

// TestThresholdMatchesFloat64 is the compiled plan's equivalence
// property: comparing the 53-bit draw against thresh(p) decides exactly
// what Float64() < p decided, at the boundaries and over a long stream;
// p = 0 never fires and consumes no draw, p = 1 always fires.
func TestThresholdMatchesFloat64(t *testing.T) {
	const ulp = 1.0 / (1 << 53)
	ps := []float64{0, ulp, 1.0 / 3, 0.2, 0.2 / 3, 1 - ulp, 1}
	for i := 1; i <= 7; i++ {
		// adversary.Storm(·, 4, ·, 0.2) and adversary.LossSweep(·, 8, 0.5)
		ps = append(ps, 0.2*(float64(i%4)/3), 0.5*(float64(i)/7))
	}
	for _, p := range ps {
		T := thresh(p)
		check := func(x uint64) {
			if x < 1<<53 && (float64(x)/(1<<53) < p) != (x < T) {
				t.Fatalf("p=%v T=%d: draw %d fires %v under Float64, %v under the threshold",
					p, T, x, float64(x)/(1<<53) < p, x < T)
			}
		}
		for _, x := range []uint64{0, T - 1, T, T + 1, 1<<53 - 1} {
			check(x)
		}
		rng := prng.New(uint64(T))
		for i := 0; i < 1e6; i++ {
			check(rng.Next() >> 11)
		}
	}

	tr := &Transport{rng: prng.New(1)}
	if before := tr.rng; tr.hit(thresh(0)) || tr.rng != before {
		t.Error("p = 0 fired or consumed a draw")
	}
	for i := 0; i < 1000; i++ {
		if !tr.hit(thresh(1)) {
			t.Fatal("p = 1 failed to fire")
		}
	}
	if tr.rng == prng.New(1) {
		t.Error("p = 1 consumed no draw")
	}
}
