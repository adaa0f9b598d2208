package core

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"kset/internal/condition"
	"kset/internal/vector"
)

// refCond is the Figure-2 compute phase as one function of the process's
// own row, the way it read before it was split into a row digest and
// stepDigest: the reference the split is checked against.
type refCond struct {
	p     Params
	cond  condition.Condition
	state StateMsg
}

func (c *refCond) step(round int, recv []any) (vector.Value, bool) {
	if round == 1 {
		view := vector.New(c.p.N)
		for j, payload := range recv {
			if v, ok := payload.(vector.Value); ok {
				view[j] = v
			}
		}
		if view.BottomCount() > c.p.X() {
			c.state.Tmf = view.Max()
		} else if h, ok := condition.DecodeView(c.cond, view); ok && !h.Empty() {
			c.state.Cond = h.Max()
		} else {
			c.state.Out = view.Max()
		}
		return vector.Bottom, false
	}
	if c.state.Cond != vector.Bottom {
		return c.state.Cond, true
	}
	for _, payload := range recv {
		if s, ok := payload.(*StateMsg); ok {
			c.state.Cond = maxValue(c.state.Cond, s.Cond)
			c.state.Out = maxValue(c.state.Out, s.Out)
			c.state.Tmf = maxValue(c.state.Tmf, s.Tmf)
		}
	}
	if (round == c.p.RCond() && c.state.Tmf != vector.Bottom && c.state.Out == vector.Bottom) || round == c.p.RMax() {
		for _, v := range []vector.Value{c.state.Cond, c.state.Tmf, c.state.Out} {
			if v != vector.Bottom {
				return v, true
			}
		}
	}
	return vector.Bottom, false
}

// refEarly is the early-decision flag bookkeeping as it read before the
// bitsets: one bool per sender, one pass over the reader's own row.
type refEarly struct {
	k                      int
	flagged                []bool
	flag, decideNow, clean bool
}

// observe is the pre-change loop; it also returns the unwrapped row.
func (e *refEarly) observe(round int, recv []any) []any {
	e.decideNow = e.flag
	perceived := 0
	unwrapped := make([]any, len(recv))
	for i, payload := range recv {
		if payload == nil {
			if !e.flagged[i] {
				perceived++
			}
			continue
		}
		if m, ok := payload.(*EarlyMsg); ok {
			unwrapped[i] = m.Payload
			if m.Flag {
				e.flagged[i] = true
				e.flag = true
			}
		}
	}
	e.clean = perceived < e.k*round
	return unwrapped
}

// same compares the reference bookkeeping with a tracker's.
func (e *refEarly) same(tr *earlyTracker) bool {
	for i, f := range e.flagged {
		if f != (tr.flagged[i>>6]>>(i&63)&1 == 1) {
			return false
		}
	}
	return e.flag == tr.flag && e.decideNow == tr.decideNow && e.clean == tr.clean
}

// stepCond is EarlyCondProcess's compute phase before the split.
func (e *refEarly) stepCond(c *refCond, round int, recv []any) (vector.Value, bool) {
	unwrapped := e.observe(round, recv)
	sent := c.state
	if v, done := c.step(round, unwrapped); done {
		return v, true
	}
	if round > 1 && e.decideNow {
		if sent.Tmf != vector.Bottom {
			return sent.Tmf, true
		}
		if sent.Out != vector.Bottom {
			return sent.Out, true
		}
	}
	if round > 1 && e.clean && sent == c.state {
		e.flag = true
	}
	return vector.Bottom, false
}

// refFlood is the classical flood's estimate update as it read before the
// split, written out here so that no production helper is its own oracle:
// the largest proposal in the row or est; stale payloads of other kinds
// count for nothing.
func refFlood(est vector.Value, recv []any) vector.Value {
	for _, payload := range recv {
		if v, ok := payload.(vector.Value); ok && v > est {
			est = v
		}
	}
	return est
}

// randomRow draws a receive row of n entries: nil holes, proposals and
// state triples mixed regardless of the round — the stale payload kinds a
// fault-injecting transport delivers — or, one time in eight, nothing.
// Each row leans towards one kind, so that nearly full views and nearly
// empty ones both occur.
func randomRow(r *rand.Rand, n, m int) []any {
	row := make([]any, n)
	if r.Intn(8) == 0 {
		return row
	}
	val := func() vector.Value { return vector.Value(r.Intn(m + 1)) }
	lean := r.Intn(4)
	for i := range row {
		kind := r.Intn(4)
		if r.Intn(2) == 0 {
			kind = lean
		}
		switch kind {
		case 0:
		case 1:
			row[i] = vector.Value(1 + r.Intn(m))
		case 2:
			row[i] = &StateMsg{Cond: val(), Out: val(), Tmf: val()}
		case 3:
			row[i] = &EarlyMsg{Payload: val()}
		}
	}
	return row
}

// wrapRow puts most of a row's payloads under the early-decision wrapper,
// one flag in three set; the rest stay as the stale bare payloads a
// fault-injecting transport can mix in.
func wrapRow(r *rand.Rand, row []any) []any {
	for i, payload := range row {
		if _, wrapped := payload.(*EarlyMsg); payload != nil && !wrapped && r.Intn(8) != 0 {
			row[i] = &EarlyMsg{Payload: payload, Flag: r.Intn(3) == 0}
		}
	}
	return row
}

// randomTracker draws the flag history a process may enter a round with
// into the reference and the trackers under test.
func randomTracker(r *rand.Rand, n, k int, trackers ...*earlyTracker) *refEarly {
	ref := &refEarly{k: k, flagged: make([]bool, n), flag: r.Intn(2) == 0}
	for i := range ref.flagged {
		ref.flagged[i] = r.Intn(4) == 0
	}
	for _, tr := range trackers {
		tr.flag = ref.flag
		clear(tr.flagged)
		for i, f := range ref.flagged {
			if f {
				tr.flagged[i>>6] |= 1 << (i & 63)
			}
		}
	}
	return ref
}

// foldShape is the run the contract tests build processes for: x=3,
// RCond=3, RMax=4 at n=8 and at n=70, where the sender bitsets take two
// words.
func foldShape(n int) (Params, condition.Condition, vector.Vector) {
	p := Params{N: n, T: 6, K: 2, D: 3, L: 2}
	input := vector.New(n)
	for i := range input {
		input[i] = vector.Value(1 + i%4)
	}
	return p, condition.MustNewMax(n, 4, p.X(), p.L), input
}

// TestStepMatchesReference pins each process's Step against the compute
// phase as it read before it was split into a row digest and stepDigest:
// the same process state and return values on random rows — stale payload
// kinds mixed in — in round 1, round 2, RCond and RMax. The processes are
// reused across trials, so a digest that kept anything of an earlier row
// would show. The Runners' Groups step from the same two halves;
// TestExecutorsAgree pins them against Step.
func TestStepMatchesReference(t *testing.T) {
	for _, n := range []int{8, 70} {
		p, c, input := foldShape(n)
		const m = 4
		procs, err := NewRun(p, c, input)
		if err != nil {
			t.Fatal(err)
		}
		cProcs, err := NewClassicalRun(p.N, p.T, p.K, input)
		if err != nil {
			t.Fatal(err)
		}
		eProcs, err := newEarlyRun(p, c, input)
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(61))
		for trial := 0; trial < 4000; trial++ {
			round := []int{1, 2, p.RCond(), p.RMax()}[r.Intn(4)]
			row := randomRow(r, p.N, m)
			i := r.Intn(p.N)

			// A process enters round 1 with the ⊥ triple, later rounds with
			// any state round 1 or a merge can leave.
			var state StateMsg
			if round > 1 {
				state = StateMsg{Cond: vector.Value(r.Intn(2) * r.Intn(m+1)), Out: vector.Value(r.Intn(m + 1)), Tmf: vector.Value(r.Intn(m + 1))}
			}
			ref := &refCond{p: p, cond: c, state: state}
			a := procs[i].(*CondProcess)
			a.state = state
			wantV, wantDone := ref.step(round, row)
			if aV, aDone := a.Step(round, row); aV != wantV || aDone != wantDone || a.state != ref.state {
				t.Fatalf("figure2 round %d row %v from %v: reference (%v,%v) %v, Step (%v,%v) %v",
					round, row, state, wantV, wantDone, ref.state, aV, aDone, a.state)
			}

			// The classical flood, as it read before the split.
			est := vector.Value(1 + r.Intn(m))
			want := refFlood(est, row)
			ca := cProcs[i].(*ClassicalProcess)
			ca.est = est
			wantDone = round >= p.T/p.K+1
			if wantV = vector.Bottom; wantDone {
				wantV = want
			}
			if caV, caDone := ca.Step(round, row); ca.est != want || caV != wantV || caDone != wantDone {
				t.Fatalf("classical round %d row %v from %v: want (%v,%v) %v, Step (%v,%v) %v",
					round, row, est, wantV, wantDone, want, caV, caDone, ca.est)
			}

			// The early-deciding wrapper, on the row with most payloads
			// wrapped, from a random flag history.
			row = wrapRow(r, row)
			ea := eProcs[i].(*EarlyCondProcess)
			eref := randomTracker(r, p.N, p.K, &ea.early)
			ref = &refCond{p: p, cond: c, state: state}
			ea.inner.state = state
			wantV, wantDone = eref.stepCond(ref, round, row)
			if aV, aDone := ea.Step(round, row); aV != wantV || aDone != wantDone || ea.inner.state != ref.state || !eref.same(&ea.early) {
				t.Fatalf("early round %d row %v from %v: reference (%v,%v) %v %+v, Step (%v,%v) %v %+v",
					round, row, state, wantV, wantDone, ref.state, eref, aV, aDone, ea.inner.state, ea.early)
			}
		}
	}
}

// TestStepFromSeparateGoroutines steps the processes of one constructor
// call the way wire nodes do, each from its own goroutine, on rows that
// differ per process; every process must end where a process stepped alone
// ends. Run under -race it also proves Step shares no writes — for the
// early-deciding wrappers too, whose Step fills sender bitsets and an
// unwrapped row.
func TestStepFromSeparateGoroutines(t *testing.T) {
	p, c, input := foldShape(8)
	const m = 4
	procs, err := NewRun(p, c, input)
	if err != nil {
		t.Fatal(err)
	}
	early, err := newEarlyRun(p, c, input)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(67))
	rows := make([][][]any, p.N) // per process, per round
	wrapped := make([][][]any, p.N)
	for i := range rows {
		for round := 1; round <= p.RMax(); round++ {
			rows[i] = append(rows[i], randomRow(r, p.N, m))
			wrapped[i] = append(wrapped[i], wrapRow(r, randomRow(r, p.N, m)))
		}
	}
	var wg sync.WaitGroup
	// each runs step, a closure over one process and its reference, round by
	// round on its own goroutine until it decides.
	each := func(step func(round int) (done bool)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 1; round <= p.RMax() && !step(round); round++ {
			}
		}()
	}
	for i := range procs {
		i, proc, ref := i, procs[i].(*CondProcess), &refCond{p: p, cond: c}
		each(func(round int) bool {
			wantV, wantDone := ref.step(round, rows[i][round-1])
			v, done := proc.Step(round, rows[i][round-1])
			if v != wantV || done != wantDone || proc.state != ref.state {
				t.Errorf("p%d round %d: (%v,%v) %v, alone (%v,%v) %v", i+1, round, v, done, proc.state, wantV, wantDone, ref.state)
			}
			return done
		})
		e, eref, inner := early[i].(*EarlyCondProcess), &refEarly{k: p.K, flagged: make([]bool, p.N)}, &refCond{p: p, cond: c}
		each(func(round int) bool {
			wantV, wantDone := eref.stepCond(inner, round, wrapped[i][round-1])
			v, done := e.Step(round, wrapped[i][round-1])
			if v != wantV || done != wantDone || e.inner.state != inner.state || !eref.same(&e.early) {
				t.Errorf("early p%d round %d: (%v,%v) %v %+v, alone (%v,%v) %v %+v", i+1, round, v, done, e.inner.state, e.early, wantV, wantDone, inner.state, eref)
			}
			return done
		})
	}
	wg.Wait()
}

// TestGroupDigestExtendsFold pins the Runner's Groups' digest patching
// (rounds.Round.Added) against folding from scratch: a row is drawn, some
// of its senders are held back, and they come back group by group, each
// group ascending, the way the engine steps a round's segments from the
// last one back. After every group the patched digest must equal the digest
// of the grown row folded anew, for each of the three digests — round 1's
// view and its classification, a flood round's merged triple, the
// early-decision row (silent and flag bits, unwrapped payloads) with the
// triple folded over it, and the classical maximum. n runs from 3 past the
// one- and two-word sender bitsets.
func TestGroupDigestExtendsFold(t *testing.T) {
	const m = 4
	r := rand.New(rand.NewSource(71))
	for _, n := range []int{3, 8, 48, 65, 130} {
		p := Params{N: n, T: n / 2, K: 2, D: n / 6, L: 1}
		fold := newCondFold(p, condition.MustNewMax(n, m, p.X(), p.L))
		view, eview, freshView := vector.New(n), vector.New(n), vector.New(n)
		erow, fresh := newEarlyRow(n), newEarlyRow(n)
		for trial := 0; trial < 500; trial++ {
			round := 1 + r.Intn(p.RMax())
			full := randomRow(r, n, m)
			if r.Intn(2) == 0 {
				full = wrapRow(r, full)
			}
			// groups partitions the held-back senders; row lacks them all.
			var held []int
			for i := range full {
				if r.Intn(3) == 0 {
					held = append(held, i)
				}
			}
			var groups [][]int
			for len(held) > 0 {
				k := 1 + r.Intn(len(held))
				groups = append(groups, held[:k])
				held = held[k:]
			}
			row := slices.Clone(full)
			for _, g := range groups {
				for _, i := range g {
					row[i] = nil
				}
			}

			var cond, early, want StateMsg
			fold.foldRow(&cond, view, round, row)
			erow.read(row)
			fold.foldRow(&early, eview, round, erow.unwrapped)
			largest := rowMax(row)
			for _, g := range groups {
				for _, i := range g {
					row[i] = full[i]
				}
				fold.extend(&cond, view, round, row, g)
				fold.foldRow(&want, freshView, round, row)
				if cond != want || (round == 1 && !slices.Equal(view, freshView)) {
					t.Fatalf("n=%d round %d row %v added %v: extended %v view %v, folded %v view %v",
						n, round, row, g, cond, view, want, freshView)
				}

				erow.add(row, g)
				fold.extend(&early, eview, round, erow.unwrapped, g)
				fresh.read(row)
				fold.foldRow(&want, freshView, round, fresh.unwrapped)
				if !slices.Equal(erow.silent, fresh.silent) || !slices.Equal(erow.flags, fresh.flags) ||
					!slices.Equal(erow.unwrapped, fresh.unwrapped) || early != want || (round == 1 && !slices.Equal(eview, freshView)) {
					t.Fatalf("early n=%d round %d row %v added %v: extended %+v %v, read %+v %v",
						n, round, row, g, erow, early, fresh, want)
				}

				largest = maxOf(largest, row, g)
				if want := rowMax(row); largest != want {
					t.Fatalf("classical n=%d row %v added %v: extended max %v, folded %v", n, row, g, largest, want)
				}
			}
		}
	}
}
