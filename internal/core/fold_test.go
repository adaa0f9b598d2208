package core

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"kset/internal/adversary"
	"kset/internal/condition"
	"kset/internal/rounds"
	"kset/internal/vector"
)

// refCond is the Figure-2 compute phase as one function of the process's
// own row, the way it read before it was split into Fold and StepFolded:
// the reference the split is checked against.
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

// TestStepEqualsFoldStepFolded pins the rounds.Folder contract on all four
// Folders: Step, Fold-then-StepFolded and the pre-split reference leave the
// same process state and return the same values on random rows, in round 1,
// round 2, RCond and RMax. The folding processes are reused across trials,
// so a digest that kept anything of an earlier row would show. Step keeps
// its digest to itself: the shared state of the slices that were only ever
// stepped is untouched at the end.
func TestStepEqualsFoldStepFolded(t *testing.T) {
	for _, n := range []int{8, 70} {
		p, c, input := foldShape(n)
		const m = 4
		build := func(mk func() ([]rounds.Process, error)) (stepped, folded []rounds.Process) {
			var err error
			if stepped, err = mk(); err != nil {
				t.Fatal(err)
			}
			if folded, err = mk(); err != nil {
				t.Fatal(err)
			}
			return stepped, folded
		}
		stepped, folded := build(func() ([]rounds.Process, error) { return NewRun(p, c, input) })
		cStepped, cFolded := build(func() ([]rounds.Process, error) { return NewClassicalRun(p.N, p.T, p.K, input) })
		eStepped, eFolded := build(func() ([]rounds.Process, error) { return NewEarlyRun(p, c, input) })
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
			a, b := stepped[i].(*CondProcess), folded[i].(*CondProcess)
			a.state, b.state = state, state
			wantV, wantDone := ref.step(round, row)
			aV, aDone := a.Step(round, row)
			b.Fold(round, row)
			bV, bDone := b.StepFolded(round)
			if aV != wantV || aDone != wantDone || a.state != ref.state || bV != wantV || bDone != wantDone || b.state != ref.state {
				t.Fatalf("figure2 round %d row %v from %v: reference (%v,%v) %v, Step (%v,%v) %v, Fold+StepFolded (%v,%v) %v",
					round, row, state, wantV, wantDone, ref.state, aV, aDone, a.state, bV, bDone, b.state)
			}

			// The classical flood, as it read before the split.
			est := vector.Value(1 + r.Intn(m))
			want := refFlood(est, row)
			ca, cb := cStepped[i].(*ClassicalProcess), cFolded[i].(*ClassicalProcess)
			ca.est, cb.est = est, est
			caV, caDone := ca.Step(round, row)
			cb.Fold(round, row)
			cbV, cbDone := cb.StepFolded(round)
			wantDone = round >= p.T/p.K+1
			if wantV = vector.Bottom; wantDone {
				wantV = want
			}
			if ca.est != want || caV != wantV || caDone != wantDone || cb.est != want || cbV != wantV || cbDone != wantDone {
				t.Fatalf("classical round %d row %v from %v: want (%v,%v) %v, Step (%v,%v) %v, Fold+StepFolded (%v,%v) %v",
					round, row, est, wantV, wantDone, want, caV, caDone, ca.est, cbV, cbDone, cb.est)
			}

			// The early-deciding wrapper, on the row with most payloads
			// wrapped, from a random flag history.
			row = wrapRow(r, row)
			ea, eb := eStepped[i].(*EarlyCondProcess), eFolded[i].(*EarlyCondProcess)
			eref := randomTracker(r, p.N, p.K, &ea.early, &eb.early)
			ref = &refCond{p: p, cond: c, state: state}
			ea.inner.state, eb.inner.state = state, state
			wantV, wantDone = eref.stepCond(ref, round, row)
			aV, aDone = ea.Step(round, row)
			eb.Fold(round, row)
			bV, bDone = eb.StepFolded(round)
			if aV != wantV || aDone != wantDone || ea.inner.state != ref.state || !eref.same(&ea.early) ||
				bV != wantV || bDone != wantDone || eb.inner.state != ref.state || !eref.same(&eb.early) {
				t.Fatalf("early round %d row %v from %v: reference (%v,%v) %v %+v, Step (%v,%v) %v %+v, Fold+StepFolded (%v,%v) %v %+v",
					round, row, state, wantV, wantDone, ref.state, eref, aV, aDone, ea.inner.state, ea.early, bV, bDone, eb.inner.state, eb.early)
			}
		}
		if f := stepped[0].(*CondProcess).fold; f.digest != (StateMsg{}) || f.view.BottomCount() != p.N {
			t.Errorf("CondProcess.Step wrote the run's shared state: digest %v view %v", f.digest, f.view)
		}
		if f := cStepped[0].(*ClassicalProcess).fold; f.digest != vector.Bottom {
			t.Errorf("ClassicalProcess.Step wrote the run's shared digest: %v", f.digest)
		}
		e := eStepped[0].(*EarlyCondProcess)
		if !reflect.DeepEqual(*e.fold, newEarlyRow(p.N)) {
			t.Errorf("EarlyCondProcess.Step wrote the run's shared row: %+v", *e.fold)
		}
		if f := e.inner.fold; f.digest != (StateMsg{}) || f.view.BottomCount() != p.N {
			t.Errorf("EarlyCondProcess.Step wrote the inner run's shared state: digest %v view %v", f.digest, f.view)
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
	early, err := NewEarlyRun(p, c, input)
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

// TestSplicedRunsStepTheForeignFolders splices the processes of two
// constructor calls into one slice: the engine folds for the Folders that
// share the first one's state and steps the others, so the run is the run
// of one constructor call.
func TestSplicedRunsStepTheForeignFolders(t *testing.T) {
	p := Params{N: 8, T: 6, K: 2, D: 3, L: 2}
	c := condition.MustNewMax(p.N, 4, p.X(), p.L)
	input := vector.OfInts(1, 2, 3, 4, 4, 4, 3, 4)
	for name, build := range map[string]func() ([]rounds.Process, error){
		"figure2":   func() ([]rounds.Process, error) { return NewRun(p, c, input) },
		"classical": func() ([]rounds.Process, error) { return NewClassicalRun(p.N, p.T, p.K, input) },
		"early":     func() ([]rounds.Process, error) { return NewEarlyRun(p, c, input) },
	} {
		r := rand.New(rand.NewSource(71))
		fam := adversary.RandomFamily(71, p.N, p.T, p.RMax(), 100)
		for trial := 0; trial < fam.Size(); trial++ {
			fp := fam.Pattern(trial)
			var runs [3][]rounds.Process
			for i := range runs {
				var err error
				if runs[i], err = build(); err != nil {
					t.Fatal(err)
				}
			}
			want, err := rounds.Run(runs[0], fp, rounds.Options{MaxRounds: p.RMax()})
			if err != nil {
				t.Fatal(err)
			}
			for i := range runs[1] {
				if r.Intn(2) == 0 {
					runs[1][i] = runs[2][i]
				}
			}
			got, err := rounds.Run(runs[1], fp, rounds.Options{MaxRounds: p.RMax()})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: spliced run diverged under %+v:\n got %+v\nwant %+v", name, fp, got, want)
			}
		}
	}
}

// countingFolder counts the engine's calls into a Folder per round; the
// promoted FoldState keeps the wrapped run's Folders on one shared state.
type countingFolder struct {
	rounds.Folder
	folds, folded, stepped map[int]int
}

func (c countingFolder) Step(round int, recv []any) (vector.Value, bool) {
	c.stepped[round]++
	return c.Folder.Step(round, recv)
}

func (c countingFolder) Fold(round int, recv []any) {
	c.folds[round]++
	c.Folder.Fold(round, recv)
}

func (c countingFolder) StepFolded(round int) (vector.Value, bool) {
	c.folded[round]++
	return c.Folder.StepFolded(round)
}

// TestEarlyRunsFoldOncePerDistinctRow pins that early-deciding runs are on
// the fold path: per round at most one Fold more than the round's crashes,
// one StepFolded per live destination and no Step, with the results of the
// all-Step run through the transport seam.
func TestEarlyRunsFoldOncePerDistinctRow(t *testing.T) {
	p, c, input := foldShape(8)
	for name, crashes := range map[string]map[rounds.ProcessID]rounds.Crash{
		"none":    nil,
		"one":     {4: {Round: 2, AfterSends: 3}},
		"several": {8: {Round: 1, AfterSends: 2}, 2: {Round: 1, AfterSends: 5}, 5: {Round: 1, AfterSends: 5}, 3: {Round: 2, AfterSends: 6}, 6: {Round: 2, AfterSends: 1}},
	} {
		fp := rounds.FailurePattern{Crashes: crashes}
		procs, err := NewEarlyRun(p, c, input)
		if err != nil {
			t.Fatal(err)
		}
		folds, folded, stepped := map[int]int{}, map[int]int{}, map[int]int{}
		for i, proc := range procs {
			procs[i] = countingFolder{proc.(rounds.Folder), folds, folded, stepped}
		}
		got, err := rounds.Run(procs, fp, rounds.Options{MaxRounds: p.RMax()})
		if err != nil {
			t.Fatal(err)
		}
		if procs, err = NewEarlyRun(p, c, input); err != nil {
			t.Fatal(err)
		}
		want, err := rounds.Run(procs, fp, rounds.Options{MaxRounds: p.RMax(), Transport: &rounds.MatrixTransport{}})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: folded run %+v, stepped run %+v", name, got, want)
		}
		for r := 1; r <= got.Rounds; r++ {
			crashed, live := 0, 0
			for id := rounds.ProcessID(1); int(id) <= p.N; id++ {
				cr, crashes := fp.Crashes[id]
				if crashes && cr.Round == r {
					crashed++
				}
				decided, halts := got.DecisionRound[id]
				if !(crashes && cr.Round <= r) && !(halts && decided < r) {
					live++
				}
			}
			if folds[r] < 1 || folds[r] > 1+crashed || folded[r] != live || stepped[r] != 0 {
				t.Errorf("%s round %d: %d Folds with %d crashes, %d StepFolded and %d Step calls for %d live destinations",
					name, r, folds[r], crashed, folded[r], stepped[r], live)
			}
		}
	}
}
