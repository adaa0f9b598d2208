package faultnet_test

import (
	"reflect"
	"testing"

	"kset/internal/condition"
	"kset/internal/core"
	"kset/internal/faultnet"
	"kset/internal/rounds"
	"kset/internal/vector"
)

// TestPooledReuseAcrossSizesAndPlans drives one Transport, one Runner and
// one recycled Result through an interleaving of system sizes, plans and
// algorithms — what a pooled campaign worker sees — and holds every run
// to a fresh transport and runner on the same scenario: no matrix cell,
// ring entry, frozen copy or reorder scratch may leak from the run before.
func TestPooledReuseAcrossSizesAndPlans(t *testing.T) {
	storm := &faultnet.Plan{Seed: 1, Default: faultnet.LinkFaults{Loss: 0.15, DelayProb: 0.25, MaxDelay: 2, Duplicate: 0.15}, Reorder: 0.3}
	delay := &faultnet.Plan{Seed: 2, Default: faultnet.LinkFaults{DelayProb: 0.5, MaxDelay: 3}}
	zero := &faultnet.Plan{Seed: 3}

	type system struct {
		p    core.Params
		cond condition.Condition
	}
	systems := map[int]system{}
	for _, n := range []int{16, 4} {
		p := core.Params{N: n, T: n / 2, K: n / 8, D: n / 4, L: 1}
		if p.K == 0 {
			p.K = 1
		}
		c := condition.MustNewMax(n, 8, p.X(), p.L)
		if err := p.ValidateWith(c); err != nil {
			t.Fatal(err)
		}
		systems[n] = system{p, c}
	}
	type algo func(*core.Runner, system, vector.Vector, rounds.FailurePattern, rounds.Transport, *rounds.Result) (*rounds.Result, error)
	figure2 := func(r *core.Runner, s system, in vector.Vector, fp rounds.FailurePattern, tr rounds.Transport, res *rounds.Result) (*rounds.Result, error) {
		return r.RunCond(s.p, s.cond, in, fp, false, tr, nil, res)
	}
	early := func(r *core.Runner, s system, in vector.Vector, fp rounds.FailurePattern, tr rounds.Transport, res *rounds.Result) (*rounds.Result, error) {
		return r.RunEarly(s.p, s.cond, in, fp, false, tr, nil, res)
	}

	steps := []struct {
		n    int
		plan *faultnet.Plan
		run  algo
	}{
		{16, storm, figure2}, {4, zero, figure2}, {16, delay, early}, {4, storm, early},
		{16, zero, early}, {16, storm, early}, {4, delay, figure2}, {16, delay, figure2},
		{4, storm, figure2}, {16, storm, figure2},
	}
	pooledTr, pooledRunner, pooledRes := &faultnet.Transport{}, core.NewRunner(), &rounds.Result{}
	for i, st := range steps {
		s := systems[st.n]
		input := vector.New(st.n)
		for j := range input {
			input[j] = vector.Value(1 + (j*7+i)%8)
		}
		fp := rounds.FailurePattern{Crashes: map[rounds.ProcessID]rounds.Crash{
			2:                      {Round: 1, AfterSends: st.n / 2},
			rounds.ProcessID(st.n): {Round: 2, AfterSends: 1},
		}}
		seed := uint64(100 + i)

		if err := pooledTr.SetPlan(st.plan, st.n); err != nil {
			t.Fatal(err)
		}
		pooledTr.Reseed(seed)
		got, err := st.run(pooledRunner, s, input, fp, pooledTr, pooledRes)
		if err != nil {
			t.Fatal(err)
		}

		fresh, err := faultnet.New(st.plan, st.n)
		if err != nil {
			t.Fatal(err)
		}
		fresh.Reseed(seed)
		want, err := st.run(core.NewRunner(), s, input, fp, fresh, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d (n=%d): pooled run diverged from a fresh one\n got %+v\nwant %+v", i, st.n, got, want)
		}
		gl, gd, gu := pooledTr.FaultCounts()
		wl, wd, wu := fresh.FaultCounts()
		if gl != wl || gd != wd || gu != wu || pooledTr.Delivered() != fresh.Delivered() {
			t.Fatalf("step %d (n=%d): pooled counts %d/%d/%d (%d delivered), fresh %d/%d/%d (%d)",
				i, st.n, gl, gd, gu, pooledTr.Delivered(), wl, wd, wu, fresh.Delivered())
		}
		if st.plan != zero && gl+gd+gu == 0 {
			t.Fatalf("step %d (n=%d): the plan injected nothing", i, st.n)
		}
	}
}

// lateRun is one direct drive of a transport: p1 broadcasts send(r) in
// each round of sends over three processes, and the run returns what
// Deliver shows p2 of p1 in round at.
func lateRun(tr *faultnet.Transport, sends []int, at int, send func(r int) any) any {
	order := []rounds.ProcessID{1, 2, 3}
	row := make([]any, 3)
	tr.Reset(3)
	for r := 1; r <= at; r++ {
		tr.BeginRound(r)
		for _, s := range sends {
			if s == r {
				tr.Send(r, 1, send(r), order, 3)
			}
		}
		tr.Deliver(r, 2, row)
	}
	return row[0]
}

// TestLateCopyShadowing pins the two-plane resolution on the link 1→2:
// an on-time copy shadows a stale one, a stale copy arriving alone
// surfaces, and of two stale copies the later sent wins.
func TestLateCopyShadowing(t *testing.T) {
	tr, err := faultnet.New(&faultnet.Plan{Scheduled: []faultnet.Fault{
		{Round: 1, From: 1, To: 2, Kind: faultnet.Delay, Delay: 2},
		{Round: 2, From: 1, To: 2, Kind: faultnet.Delay, Delay: 1},
	}}, 3)
	if err != nil {
		t.Fatal(err)
	}
	tag := func(r int) any { return r }
	for _, tc := range []struct {
		name  string
		sends []int
		at    int
		want  any
	}{
		{"alone", []int{1}, 3, 1},
		{"not early", []int{1}, 2, nil},
		{"not twice", []int{1}, 4, nil},
		{"latest stale wins", []int{1, 2}, 3, 2},
		{"on-time shadows", []int{1, 2, 3}, 3, 3},
		{"on-time shadows one", []int{1, 3}, 3, 3},
	} {
		if got := lateRun(tr, tc.sends, tc.at, tag); got != tc.want {
			t.Errorf("%s: p2 sees %v of p1 in round %d, want %v", tc.name, got, tc.at, tc.want)
		}
	}
}

// TestFrozenCopiesRecycled extends TestDelayedPayloadFrozen to the
// protocol's own payloads: a *core.StateMsg and a *core.EarlyMsg nesting
// one, delivered two rounds late, read as sent although the sender went
// on reusing both buffers — also once Reset has retired the copies and
// Freeze overwrites them, across payload types.
func TestFrozenCopiesRecycled(t *testing.T) {
	tr, err := faultnet.New(&faultnet.Plan{Scheduled: []faultnet.Fault{
		{Round: 1, From: 1, To: 2, Kind: faultnet.Delay, Delay: 2},
	}}, 3)
	if err != nil {
		t.Fatal(err)
	}
	var state core.StateMsg // the sender's reused buffers
	var wrapper core.EarlyMsg
	sendState := func(base int) func(int) any {
		return func(r int) any {
			state = core.StateMsg{Cond: vector.Value(base + r), Out: vector.Value(base + 2*r), Tmf: vector.Value(base + 3*r)}
			return &state
		}
	}
	sendEarly := func(base int, inner func(int) any) func(int) any {
		return func(r int) any {
			wrapper = core.EarlyMsg{Payload: inner(r), Flag: (base+r)%2 == 0}
			return &wrapper
		}
	}
	value := func(base int) func(int) any {
		return func(r int) any { return vector.Value(base + r) }
	}

	var retired []any
	for i, tc := range []struct {
		send func(int) any
		want any
	}{
		{sendState(10), &core.StateMsg{Cond: 11, Out: 12, Tmf: 13}},
		{sendState(20), &core.StateMsg{Cond: 21, Out: 22, Tmf: 23}},
		{sendEarly(30, sendState(30)), &core.EarlyMsg{Payload: &core.StateMsg{Cond: 31, Out: 32, Tmf: 33}, Flag: false}},
		{sendEarly(41, sendState(40)), &core.EarlyMsg{Payload: &core.StateMsg{Cond: 41, Out: 42, Tmf: 43}, Flag: true}},
		{sendEarly(50, value(50)), &core.EarlyMsg{Payload: vector.Value(51), Flag: false}},
		{sendEarly(61, sendState(60)), &core.EarlyMsg{Payload: &core.StateMsg{Cond: 61, Out: 62, Tmf: 63}, Flag: true}},
		{sendState(70), &core.StateMsg{Cond: 71, Out: 72, Tmf: 73}},
	} {
		// p1 sends in rounds 1 and 2 — the second send reuses the buffers
		// the delayed round-1 copy was taken from — and is silent in 3.
		got := lateRun(tr, []int{1, 2}, 3, tc.send)
		if !reflect.DeepEqual(got, tc.want) {
			t.Fatalf("run %d: p2 reads %+v in round 3, want the round-1 send %+v", i, got, tc.want)
		}
		if got == any(&state) || got == any(&wrapper) {
			t.Fatalf("run %d: the delayed copy aliases the sender's buffer", i)
		}
		retired = append(retired, got)
	}
	// Same type in consecutive runs: the retired copy is the new one.
	for _, pair := range [][2]int{{0, 1}, {2, 3}, {3, 4}, {4, 5}} {
		if retired[pair[0]] != retired[pair[1]] {
			t.Errorf("runs %d and %d froze into different copies: nothing was recycled", pair[0], pair[1])
		}
	}
	if sm := retired[5].(*core.EarlyMsg).Payload; sm == any(&state) {
		t.Error("a recycled wrapper holds the sender's live inner buffer")
	}
}
