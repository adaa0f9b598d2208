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
			row[i] = EarlyMsg{Payload: val()}
		}
	}
	return row
}

// TestStepEqualsFoldStepFolded pins the rounds.Folder contract on both
// Folders: Step, Fold-then-StepFolded and the pre-split reference leave the
// same process state and return the same values on random rows, in round 1,
// round 2, RCond and RMax. The folding processes are reused across trials,
// so a digest that kept anything of an earlier row would show. Step keeps
// its digest to itself: the shared state of the slices that were only ever
// stepped is untouched at the end.
func TestStepEqualsFoldStepFolded(t *testing.T) {
	p := Params{N: 8, T: 6, K: 2, D: 3, L: 2} // x=3, RCond=3, RMax=4
	const m = 4
	c := condition.MustNewMax(p.N, m, p.X(), p.L)
	input := vector.OfInts(1, 2, 3, 4, 1, 2, 3, 4)
	stepped, err := NewRun(p, c, input)
	if err != nil {
		t.Fatal(err)
	}
	folded, err := NewRun(p, c, input)
	if err != nil {
		t.Fatal(err)
	}
	cStepped, err := NewClassicalRun(p.N, p.T, p.K, input)
	if err != nil {
		t.Fatal(err)
	}
	cFolded, err := NewClassicalRun(p.N, p.T, p.K, input)
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
		want := est
		for _, payload := range row {
			if v, ok := payload.(vector.Value); ok && v > want {
				want = v
			}
		}
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
	}
	if f := stepped[0].(*CondProcess).fold; f.digest != (StateMsg{}) || f.view.BottomCount() != p.N {
		t.Errorf("CondProcess.Step wrote the run's shared state: digest %v view %v", f.digest, f.view)
	}
	if f := cStepped[0].(*ClassicalProcess).fold; f.digest != vector.Bottom {
		t.Errorf("ClassicalProcess.Step wrote the run's shared digest: %v", f.digest)
	}
}

// TestStepFromSeparateGoroutines steps the processes of one NewRun the way
// wire nodes do, each from its own goroutine, on rows that differ per
// process; every process must end where a process stepped alone ends. Run
// under -race it also proves Step shares no writes.
func TestStepFromSeparateGoroutines(t *testing.T) {
	p := Params{N: 8, T: 6, K: 2, D: 3, L: 2}
	const m = 4
	c := condition.MustNewMax(p.N, m, p.X(), p.L)
	input := vector.OfInts(1, 2, 3, 4, 1, 2, 3, 4)
	procs, err := NewRun(p, c, input)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(67))
	rows := make([][][]any, p.N) // per process, per round
	for i := range rows {
		for round := 1; round <= p.RMax(); round++ {
			rows[i] = append(rows[i], randomRow(r, p.N, m))
		}
	}
	var wg sync.WaitGroup
	for i, proc := range procs {
		wg.Add(1)
		go func(i int, proc *CondProcess) {
			defer wg.Done()
			ref := &refCond{p: p, cond: c}
			for round := 1; round <= p.RMax(); round++ {
				wantV, wantDone := ref.step(round, rows[i][round-1])
				v, done := proc.Step(round, rows[i][round-1])
				if v != wantV || done != wantDone || proc.state != ref.state {
					t.Errorf("p%d round %d: (%v,%v) %v, alone (%v,%v) %v", i+1, round, v, done, proc.state, wantV, wantDone, ref.state)
				}
				if done {
					return
				}
			}
		}(i, proc.(*CondProcess))
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
