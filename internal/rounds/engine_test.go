package rounds

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"kset/internal/vector"
)

func resultsEqual(a, b *Result) bool {
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

func randPattern(r *rand.Rand, n, t, maxRounds int) FailurePattern {
	fp := FailurePattern{Crashes: make(map[ProcessID]Crash)}
	perm := r.Perm(n)
	for i := 0; i < r.Intn(t+1); i++ {
		fp.Crashes[ProcessID(perm[i]+1)] = Crash{
			Round:      1 + r.Intn(maxRounds),
			AfterSends: r.Intn(n + 1),
		}
	}
	return fp
}

// cornerPattern is randPattern bent, four trials in five, towards what the
// shared-row loop special-cases: several senders whose prefixes end at one
// destination, prefixes of 0 and of n, a sender crashing mid-row in the
// round processes decide, and every process crashed by round 2.
func cornerPattern(r *rand.Rand, trial, n, maxRounds, decideAt int) FailurePattern {
	fp := randPattern(r, n, n-1, maxRounds)
	perm := r.Perm(n)
	switch trial % 5 {
	case 1: // two or three prefixes ending at the same destination
		round, end := 1+r.Intn(maxRounds), 1+r.Intn(n-1)
		for _, src := range perm[:min(n, 2+r.Intn(2))] {
			fp.Crashes[ProcessID(src+1)] = Crash{Round: round, AfterSends: end}
		}
	case 2: // prefixes of 0 and of n, beside whatever else crashes
		fp.Crashes[ProcessID(perm[0]+1)] = Crash{Round: 1 + r.Intn(maxRounds), AfterSends: 0}
		fp.Crashes[ProcessID(perm[1]+1)] = Crash{Round: 1 + r.Intn(maxRounds), AfterSends: n}
	case 3: // a crash mid-row in a round in which destinations decide
		fp.Crashes[ProcessID(perm[0]+1)] = Crash{Round: decideAt, AfterSends: 1 + r.Intn(n-1)}
	case 4: // nobody left to send in round 2 or 3
		for _, src := range perm {
			fp.Crashes[ProcessID(src+1)] = Crash{Round: 1 + r.Intn(2), AfterSends: r.Intn(n + 1)}
		}
	}
	return fp
}

// scanMaxDecisionRound is what Result.MaxDecisionRound must equal.
func scanMaxDecisionRound(res *Result) int {
	latest := 0
	for _, round := range res.DecisionRound {
		latest = max(latest, round)
	}
	return latest
}

// TestEngineSharedRowMatchesMatrix drives random failure patterns — bent
// towards the round loop's corners (cornerPattern), with and without
// send-order overrides — down every delivery the engine has, on one Engine
// whose n grows and shrinks from trial to trial: no transport (the shared
// row, or the built-in matrix once an order is overridden) and an
// installed MatrixTransport (the seam). Each run is a slice of Processes,
// through the engine's adapter, or one Group that folds each row it is
// given once (minGroup); the processes decide in different rounds. All runs
// must produce identical Results, and every Result the latest decision
// round its slice holds.
func TestEngineSharedRowMatchesMatrix(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	e := NewEngine()
	for trial := 0; trial < 400; trial++ {
		n := 2 + r.Intn(6)
		maxRounds := 1 + r.Intn(4)
		decideAt := 1 + r.Intn(maxRounds)
		fp := cornerPattern(r, trial, n, maxRounds, decideAt)
		if trial%2 == 1 && maxRounds >= 2 {
			fp.Orders = make(map[ProcessID]map[int][]ProcessID)
			for i := 0; i <= r.Intn(n); i++ {
				order := make([]ProcessID, n)
				for j, p := range r.Perm(n) {
					order[j] = ProcessID(p + 1)
				}
				fp.Orders[ProcessID(1+r.Intn(n))] = map[int][]ProcessID{2 + r.Intn(maxRounds-1): order}
			}
		}
		vals, decide := make([]vector.Value, n), make([]int, n)
		for i := range vals {
			vals[i] = vector.Value(1 + r.Intn(5))
			decide[i] = min(maxRounds, decideAt+r.Intn(2)) // some a round later
		}

		want, err := e.RunInto(nil, floodRunAt(vals, decide), fp, Options{MaxRounds: maxRounds})
		if err != nil {
			t.Fatal(err)
		}
		if got := want.MaxDecisionRound(); got != scanMaxDecisionRound(want) {
			t.Fatalf("MaxDecisionRound = %d, the slice holds %d: fp=%+v\n%+v", got, scanMaxDecisionRound(want), fp, want)
		}
		for _, tr := range []Transport{nil, &MatrixTransport{}} {
			for _, group := range []bool{false, true} {
				opts := Options{MaxRounds: maxRounds, Transport: tr}
				var got *Result
				if group {
					got, err = e.RunGroup(nil, newMinGroup(vals, decide), n, fp, opts)
				} else {
					got, err = e.RunInto(nil, floodRunAt(vals, decide), fp, opts)
				}
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("transport %T group=%v diverged: fp=%+v vals=%v decide=%v\ngot:  %+v\nwant: %+v", tr, group, fp, vals, decide, got, want)
				}
			}
		}
	}

	// A Result the engine never filled has its slice scanned.
	built := &Result{DecisionRound: []int{2, 5, 1}}
	if got := built.MaxDecisionRound(); got != 5 {
		t.Errorf("hand-built Result: MaxDecisionRound = %d, want 5", got)
	}
}

// recorder is a MatrixTransport that logs the Sends of its current run.
type recorder struct {
	MatrixTransport
	sends []sent
}

// sent is one Send call as recorder saw it.
type sent struct {
	r        int
	src      ProcessID
	limit    int
	orderLen int
}

func (t *recorder) Reset(n int) {
	t.MatrixTransport.Reset(n)
	t.sends = t.sends[:0]
}

func (t *recorder) Send(r int, src ProcessID, payload any, order []ProcessID, limit int) {
	t.sends = append(t.sends, sent{r, src, limit, len(order)})
	t.MatrixTransport.Send(r, src, payload, order, limit)
}

// round is the Sends of round r.
func (t *recorder) round(r int) []sent {
	var in []sent
	for _, s := range t.sends {
		if s.r == r {
			in = append(in, s)
		}
	}
	return in
}

// TestEngineReuse runs one Engine across runs of different sizes — growing
// and shrinking, on the fast path and through the transport seam — and
// checks each result against a fresh one-shot run. On the seam every Send
// must carry a send order of exactly n entries: a transport that shuffles
// the order would otherwise deliver to processes a smaller run lacks.
func TestEngineReuse(t *testing.T) {
	e := NewEngine()
	tr := &recorder{}
	r := rand.New(rand.NewSource(12))
	for _, n := range []int{6, 2, 8, 3, 8, 5} {
		fp := randPattern(r, n, n-1, 3)
		vals := make([]vector.Value, n)
		for i := range vals {
			vals[i] = vector.Value(1 + r.Intn(4))
		}
		want, err := run(newFloodRun(vals, 2), fp, Options{MaxRounds: 3})
		if err != nil {
			t.Fatal(err)
		}
		for _, opts := range []Options{{MaxRounds: 3}, {MaxRounds: 3, Transport: tr}} {
			got, err := e.RunInto(nil, newFloodRun(vals, 2), fp, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !resultsEqual(got, want) {
				t.Fatalf("n=%d seam=%v: reused engine %+v, fresh run %+v", n, opts.Transport != nil, got, want)
			}
		}
		for _, s := range tr.sends {
			if s.orderLen != n {
				t.Fatalf("n=%d: Send got an order of length %d, want %d", n, s.orderLen, n)
			}
		}
	}
}

// TestEngineResultSurvivesReuse pins the RunInto contract that a Result it
// allocates (res == nil) is unaffected by later runs on the same engine.
func TestEngineResultSurvivesReuse(t *testing.T) {
	e := NewEngine()
	first, err := e.RunInto(nil, newFloodRun([]vector.Value{3, 1, 2}, 1), FailurePattern{}, Options{MaxRounds: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunInto(nil, newFloodRun([]vector.Value{9, 9, 9, 9}, 1), FailurePattern{}, Options{MaxRounds: 2}); err != nil {
		t.Fatal(err)
	}
	if len(first.Decisions) != 3 || first.Decisions[1] != 1 {
		t.Fatalf("first result mutated by engine reuse: %+v", first)
	}
}

// TestEngineRoundAllocBudget pins the per-run allocation budget of a
// reused engine: one Result plus its three maps (whose bucket allocation
// brings the observed count to ~11 at n=16), nothing per round or per
// message — the old executor allocated the n×n matrix and a send order per
// sender every round.
func TestEngineRoundAllocBudget(t *testing.T) {
	const n = 16
	vals := make([]vector.Value, n)
	for i := range vals {
		vals[i] = vector.Value(1 + i%7)
	}
	e := NewEngine()
	procs := newFloodRun(vals, 1) // state reaches its fixpoint after run 1
	if _, err := e.RunInto(nil, procs, FailurePattern{}, Options{MaxRounds: 1}); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(200, func() {
		if _, err := e.RunInto(nil, procs, FailurePattern{}, Options{MaxRounds: 1}); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 12 {
		t.Errorf("engine round allocates %.1f times per run, want ≤ 12", avg)
	}
}

// floodRunAt is newFloodRun with process i+1 deciding at round decide[i].
func floodRunAt(vals []vector.Value, decide []int) []Process {
	procs := make([]Process, len(vals))
	for i, v := range vals {
		procs[i] = &floodMin{v, decide[i]}
	}
	return procs
}

// minGroup runs floodMin processes as one Group: it folds a row once — its
// smallest value — for every live process of the segment, and a row that
// extends the previous Step's (Round.Added) only by the added senders. It
// logs the engine's calls per round: how many Sends, and every Step.
type minGroup struct {
	procs []floodMin
	least vector.Value
	sends map[int]int
	steps map[int][]minStep
}

// minStep is one Step call as minGroup saw it: its segment, what
// Round.Added reported, and a copy of its row.
type minStep struct {
	lo, hi int
	added  []int
	ok     bool
	row    []any
}

func newMinGroup(vals []vector.Value, decide []int) *minGroup {
	g := &minGroup{procs: make([]floodMin, len(vals)), sends: map[int]int{}, steps: map[int][]minStep{}}
	for i, v := range vals {
		g.procs[i] = floodMin{v, decide[i]}
	}
	return g
}

func (g *minGroup) Send(r int, down []bool, row []any) {
	g.sends[r]++
	for i := range g.procs {
		if !down[i] {
			row[i] = g.procs[i].min
		}
	}
}

func (g *minGroup) Step(rd *Round, row []any, lo, hi int) (live int) {
	added, ok := rd.Added()
	g.steps[rd.R] = append(g.steps[rd.R], minStep{lo, hi, slices.Clone(added), ok, slices.Clone(row)})
	fold := func(p any) {
		if v, ok := p.(vector.Value); ok && (g.least == vector.Bottom || v < g.least) {
			g.least = v
		}
	}
	if ok {
		for _, j := range added {
			fold(row[j])
		}
	} else {
		g.least = vector.Bottom
		for _, p := range row {
			fold(p)
		}
	}
	for i := lo; i < hi; i++ {
		if rd.Down(i) {
			continue
		}
		f := &g.procs[i]
		if g.least != vector.Bottom && g.least < f.min {
			f.min = g.least
		}
		if rd.R >= f.decideAt {
			rd.Decide(i, f.min)
		} else {
			live++
		}
	}
	return live
}

// segments is the (lo, hi) of each of a round's logged Steps.
func (g *minGroup) segments(r int) [][2]int {
	var segs [][2]int
	for _, st := range g.steps[r] {
		segs = append(segs, [2]int{st.lo, st.hi})
	}
	return segs
}

// runMinGroup runs a fresh minGroup on a fresh engine and checks its Result
// against want, the one the adapter steps each process to.
func runMinGroup(t *testing.T, vals []vector.Value, decide []int, fp FailurePattern, opts Options, want *Result) *minGroup {
	t.Helper()
	g := newMinGroup(vals, decide)
	got, err := NewEngine().RunGroup(nil, g, len(vals), fp, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Group run %+v, adapter run %+v", got, want)
	}
	return g
}

// TestEngineFoldCount pins the calls the engine makes into a Group, per
// round: exactly one Send; on the shared row one Step — one fold of the
// row — per segment between the distinct prefix ends in 1..n−1 of the
// round's crashing senders — a process that decided before its crash round
// is none — from the last segment back to the first; through a
// MatrixTransport one Step per live destination, (i, i+1). Round.Added
// reports ok=false on a round's first shared-row Step and on every seam
// Step; on each later shared-row Step it lists, in ID order, exactly the
// senders whose prefix ends at the Step's hi, and the row keeps every entry
// the previous Step's had. Every Result is the one the adapter steps each
// process to.
func TestEngineFoldCount(t *testing.T) {
	const n, maxRounds = 8, 3
	vals := []vector.Value{5, 3, 7, 2, 6, 4, 8, 1}
	decide := []int{3, 3, 1, 3, 3, 3, 3, 3}
	for name, crashes := range map[string]map[ProcessID]Crash{
		"none":    nil,
		"one":     {4: {Round: 2, AfterSends: 3}},
		"several": {8: {Round: 1, AfterSends: 2}, 2: {Round: 1, AfterSends: 5}, 5: {Round: 1, AfterSends: 5}, 6: {Round: 2, AfterSends: 6}, 3: {Round: 2, AfterSends: 4}},
		"edges":   {1: {Round: 1, AfterSends: 0}, 6: {Round: 1, AfterSends: n}, 7: {Round: 2, AfterSends: 7}, 8: {Round: 2, AfterSends: 1}},
	} {
		fp := FailurePattern{Crashes: crashes}
		want, err := run(floodRunAt(vals, decide), fp, Options{MaxRounds: maxRounds})
		if err != nil {
			t.Fatal(err)
		}
		shared := runMinGroup(t, vals, decide, fp, Options{MaxRounds: maxRounds}, want)
		seam := runMinGroup(t, vals, decide, fp, Options{MaxRounds: maxRounds, Transport: &MatrixTransport{}}, want)
		for _, g := range []*minGroup{shared, seam} {
			if len(g.sends) != want.Rounds || len(g.steps) != want.Rounds {
				t.Errorf("%s: Sends in %d rounds, Steps in %d, for a %d-round run", name, len(g.sends), len(g.steps), want.Rounds)
			}
		}
		for r := 1; r <= want.Rounds; r++ {
			if shared.sends[r] != 1 || seam.sends[r] != 1 {
				t.Errorf("%s round %d: %d and %d Send calls, want 1", name, r, shared.sends[r], seam.sends[r])
			}
			// endsAt[e]: the round's crashing senders whose prefix ends at e.
			ends, endsAt, live := []int{n}, map[int][]int{}, [][2]int(nil)
			for i := 0; i < n; i++ {
				id := ProcessID(i + 1)
				cr, crashes := crashes[id]
				if decided := want.DecisionRound[i]; decided > 0 && decided < r {
					continue
				}
				if crashes && cr.Round == r {
					endsAt[cr.AfterSends] = append(endsAt[cr.AfterSends], i)
					if cr.AfterSends > 0 && !slices.Contains(ends, cr.AfterSends) {
						ends = append(ends, cr.AfterSends)
					}
				}
				if !crashes || cr.Round > r {
					live = append(live, [2]int{i, i + 1})
				}
			}
			slices.Sort(ends)
			slices.Reverse(ends)
			var segments [][2]int
			for k, hi := range ends {
				lo := 0
				if k+1 < len(ends) {
					lo = ends[k+1]
				}
				segments = append(segments, [2]int{lo, hi})
			}
			if got := shared.segments(r); !reflect.DeepEqual(got, segments) {
				t.Errorf("%s round %d: shared-row Steps %v, want %v", name, r, got, segments)
			}
			if got := seam.segments(r); !reflect.DeepEqual(got, live) {
				t.Errorf("%s round %d: seam Steps %v, want one per live destination %v", name, r, got, live)
			}
			for _, st := range seam.steps[r] {
				if st.ok {
					t.Errorf("%s round %d: seam Step (%d, %d) reports Added %v", name, r, st.lo, st.hi, st.added)
				}
			}
			for k, st := range shared.steps[r] {
				if k == 0 {
					if st.ok {
						t.Errorf("%s round %d: first shared-row Step reports Added %v", name, r, st.added)
					}
					continue
				}
				if !st.ok || !slices.Equal(st.added, endsAt[st.hi]) {
					t.Errorf("%s round %d: Step (%d, %d) reports Added %v ok=%v, want %v", name, r, st.lo, st.hi, st.added, st.ok, endsAt[st.hi])
				}
				for j, p := range shared.steps[r][k-1].row {
					if p != nil && st.row[j] != p {
						t.Errorf("%s round %d: Step (%d, %d) lost p%d's entry %v", name, r, st.lo, st.hi, j+1, p)
					}
				}
			}
		}
	}
}

// TestEngineTracedRunFolds pins that a transport decorator which records
// the run changes none of the engine's calls into a Group: through the seam
// a run over the recorder makes exactly the bare MatrixTransport run's
// Sends and Steps, one Step per sender the recorder saw minus the round's
// crashes; on the shared row, where each round's crashing senders end their
// prefixes at distinct destinations, a run makes 1 + crashes Steps per
// round.
func TestEngineTracedRunFolds(t *testing.T) {
	const n, maxRounds = 8, 3
	fp := FailurePattern{Crashes: map[ProcessID]Crash{
		8: {Round: 1, AfterSends: 2}, 2: {Round: 1, AfterSends: 5}, 3: {Round: 2, AfterSends: 6},
	}}
	vals, decide := make([]vector.Value, n), make([]int, n)
	for i := range vals {
		vals[i], decide[i] = vector.Value(1+i), maxRounds
	}
	want, err := run(floodRunAt(vals, decide), fp, Options{MaxRounds: maxRounds})
	if err != nil {
		t.Fatal(err)
	}
	shared := runMinGroup(t, vals, decide, fp, Options{MaxRounds: maxRounds}, want)
	bare := runMinGroup(t, vals, decide, fp, Options{MaxRounds: maxRounds, Transport: &MatrixTransport{}}, want)
	rec := &recorder{}
	traced := runMinGroup(t, vals, decide, fp, Options{MaxRounds: maxRounds, Transport: rec}, want)
	if !reflect.DeepEqual(traced, bare) {
		t.Fatalf("recorded run made the calls %+v, bare matrix %+v", traced, bare)
	}
	for r, crashes := range []int{2, 1, 0} {
		if got := len(shared.steps[r+1]); got != 1+crashes || shared.sends[r+1] != 1 {
			t.Errorf("shared row round %d: %d Sends and %d Steps, want 1 and %d", r+1, shared.sends[r+1], got, 1+crashes)
		}
		steps := len(rec.round(r+1)) - crashes // one per live destination
		if got := len(traced.steps[r+1]); got != steps || traced.sends[r+1] != 1 {
			t.Errorf("recorder round %d: %d Sends and %d Steps, want 1 and %d", r+1, traced.sends[r+1], got, steps)
		}
	}
}

// TestEngineCrashList pins the per-run crash list: four senders crash in
// round 1, listed out of ID order, and p4 decides in round 1 with a crash
// scheduled for round 2. On every run — many, so that map iteration order
// cannot pass by luck — p4 is not Crashed, the shared row's arithmetic
// delivered count is the seam's and the hand count, and the seam hands
// round 1's Sends over in ascending ID order, each crashing sender's with
// its prefix.
func TestEngineCrashList(t *testing.T) {
	const n = 8
	fp := FailurePattern{Crashes: map[ProcessID]Crash{
		7: {Round: 1, AfterSends: 2}, 2: {Round: 1, AfterSends: 5}, 5: {Round: 1, AfterSends: 0}, 3: {Round: 1, AfterSends: n},
		4: {Round: 2, AfterSends: 3},
	}}
	vals := []vector.Value{5, 3, 7, 2, 6, 4, 8, 1}
	decide := []int{3, 3, 3, 1, 3, 3, 3, 3}
	// Round 1: 8 senders, 64 − 6 − 3 − 8 − 0 copies; rounds 2 and 3: p1, p6
	// and p8 send 8 copies each.
	const delivered = 47 + 2*3*8
	e := NewEngine()
	for trial := 0; trial < 50; trial++ {
		for _, tr := range []Transport{nil, &recorder{}} {
			res, err := e.RunInto(nil, floodRunAt(vals, decide), fp, Options{MaxRounds: 3, Transport: tr})
			if err != nil {
				t.Fatal(err)
			}
			if want := map[ProcessID]bool{2: true, 3: true, 5: true, 7: true}; !reflect.DeepEqual(res.Crashed, want) {
				t.Fatalf("transport %T: Crashed = %v, want %v", tr, res.Crashed, want)
			}
			if res.DecisionRound[3] != 1 || res.MessagesDelivered != delivered {
				t.Fatalf("transport %T: p4 decided in round %d, %d copies delivered; want round 1, %d copies", tr, res.DecisionRound[3], res.MessagesDelivered, delivered)
			}
			if rec, ok := tr.(*recorder); ok {
				want := []sent{{1, 1, n, n}, {1, 2, 5, n}, {1, 3, n, n}, {1, 4, n, n}, {1, 5, 0, n}, {1, 6, n, n}, {1, 7, 2, n}, {1, 8, n, n}}
				if got := rec.round(1); !slices.Equal(got, want) {
					t.Fatalf("round-1 Sends %v, want %v", got, want)
				}
				// p4 decided in round 1: its round-2 crash neither fires nor sends.
				want = []sent{{2, 1, n, n}, {2, 6, n, n}, {2, 8, n, n}}
				if got := rec.round(2); !slices.Equal(got, want) {
					t.Fatalf("round-2 Sends %v, want %v", got, want)
				}
			}
		}
	}
}
