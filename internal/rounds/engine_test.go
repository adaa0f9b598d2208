package rounds

import (
	"fmt"
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
		if b.Decisions[id] != v || a.DecisionRound[id] != b.DecisionRound[id] {
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
// row, or the built-in matrix once an order is overridden), no transport
// with a Trace, and an installed MatrixTransport (the seam). The processes
// are plain Processes, Folders, or a mix of both, and decide in different
// rounds. All three must produce identical Results, the traced ones
// identical traces, and every Result the latest decision round its map holds.
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
		vals, decide, plain := make([]vector.Value, n), make([]int, n), make([]bool, n)
		for i := range vals {
			vals[i] = vector.Value(1 + r.Intn(5))
			decide[i] = min(maxRounds, decideAt+r.Intn(2)) // some a round later
			plain[i] = trial%3 == 0 || trial%3 == 1 && r.Intn(2) == 0
		}
		procs := func() []Process {
			log := &foldLog{folds: map[int][]string{}, steps: map[int]int{}}
			procs := make([]Process, n)
			for i, v := range vals {
				if plain[i] {
					procs[i] = &floodMin{v, decide[i]}
				} else {
					procs[i] = &foldMin{floodMin{v, decide[i]}, log}
				}
			}
			return procs
		}

		want, err := e.Run(procs(), fp, Options{MaxRounds: maxRounds})
		if err != nil {
			t.Fatal(err)
		}
		if got := want.MaxDecisionRound(); got != scanMaxDecisionRound(want) {
			t.Fatalf("MaxDecisionRound = %d, the map holds %d: fp=%+v\n%+v", got, scanMaxDecisionRound(want), fp, want)
		}
		var traces [2]Trace
		for i, tr := range []Transport{nil, &MatrixTransport{}} {
			got, err := e.Run(procs(), fp, Options{MaxRounds: maxRounds, Transport: tr, Trace: &traces[i]})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("traced run, transport %T, diverged: fp=%+v vals=%v decide=%v\ngot:  %+v\nwant: %+v", tr, fp, vals, decide, got, want)
			}
		}
		if !reflect.DeepEqual(traces[0], traces[1]) {
			t.Fatalf("traces differ: fp=%+v vals=%v\nshared row: %+v\nmatrix:     %+v", fp, vals, traces[0], traces[1])
		}
		if len(traces[0].Rounds) != want.Rounds {
			t.Fatalf("trace has %d rounds, result %d", len(traces[0].Rounds), want.Rounds)
		}
	}

	// A Result the engine never filled has its map scanned.
	built := &Result{DecisionRound: map[ProcessID]int{1: 2, 2: 5, 3: 1}}
	if got := built.MaxDecisionRound(); got != 5 {
		t.Errorf("hand-built Result: MaxDecisionRound = %d, want 5", got)
	}
}

// orderLenTransport is a MatrixTransport that records every Send whose
// order is not exactly one entry per process of the current run.
type orderLenTransport struct {
	MatrixTransport
	bad []int
}

func (t *orderLenTransport) Send(r int, src ProcessID, payload any, order []ProcessID, limit int) {
	if len(order) != t.n {
		t.bad = append(t.bad, len(order))
	}
	t.MatrixTransport.Send(r, src, payload, order, limit)
}

// TestEngineReuse runs one Engine across runs of different sizes — growing
// and shrinking, on the fast path and through the transport seam — and
// checks each result against a fresh one-shot Run. On the seam every Send
// must carry a send order of exactly n entries: a transport that shuffles
// the order would otherwise deliver to processes a smaller run lacks.
func TestEngineReuse(t *testing.T) {
	e := NewEngine()
	tr := &orderLenTransport{}
	r := rand.New(rand.NewSource(12))
	for _, n := range []int{6, 2, 8, 3, 8, 5} {
		fp := randPattern(r, n, n-1, 3)
		vals := make([]vector.Value, n)
		for i := range vals {
			vals[i] = vector.Value(1 + r.Intn(4))
		}
		want, err := Run(newFloodRun(vals, 2), fp, Options{MaxRounds: 3})
		if err != nil {
			t.Fatal(err)
		}
		for _, opts := range []Options{{MaxRounds: 3}, {MaxRounds: 3, Transport: tr}} {
			got, err := e.Run(newFloodRun(vals, 2), fp, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !resultsEqual(got, want) {
				t.Fatalf("n=%d seam=%v: reused engine %+v, fresh run %+v", n, opts.Transport != nil, got, want)
			}
		}
		if len(tr.bad) > 0 {
			t.Fatalf("n=%d: Send got orders of length %v, want %d", n, tr.bad, n)
		}
	}
}

// TestEngineResultSurvivesReuse pins the Run contract that a returned
// Result is unaffected by later runs on the same engine.
func TestEngineResultSurvivesReuse(t *testing.T) {
	e := NewEngine()
	first, err := e.Run(newFloodRun([]vector.Value{3, 1, 2}, 1), FailurePattern{}, Options{MaxRounds: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(newFloodRun([]vector.Value{9, 9, 9, 9}, 1), FailurePattern{}, Options{MaxRounds: 2}); err != nil {
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
	if _, err := e.Run(procs, FailurePattern{}, Options{MaxRounds: 1}); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(200, func() {
		if _, err := e.Run(procs, FailurePattern{}, Options{MaxRounds: 1}); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 12 {
		t.Errorf("engine round allocates %.1f times per run, want ≤ 12", avg)
	}
}

// foldMin is floodMin as a Folder: the row's digest is its smallest value.
// The processes of one run share the digest and the per-round logs of the
// rows Fold was given and of the StepFolded calls.
type foldMin struct {
	floodMin
	run *foldLog
}

type foldLog struct {
	digest vector.Value
	folds  map[int][]string
	steps  map[int]int
}

// Step keeps its digest to itself, as the contract asks: it writes neither
// the shared digest nor the logs.
func (f *foldMin) Step(round int, recv []any) (vector.Value, bool) {
	return f.stepDigest(round, rowMin(recv))
}

func (f *foldMin) Fold(round int, recv []any) {
	f.run.digest = rowMin(recv)
	f.run.folds[round] = append(f.run.folds[round], fmt.Sprint(recv))
}

func (f *foldMin) FoldState() any { return f.run }

func rowMin(recv []any) vector.Value {
	least := vector.Bottom
	for _, p := range recv {
		if v, ok := p.(vector.Value); ok && (least == vector.Bottom || v < least) {
			least = v
		}
	}
	return least
}

func (f *foldMin) StepFolded(round int) (vector.Value, bool) {
	f.run.steps[round]++
	return f.stepDigest(round, f.run.digest)
}

func (f *foldMin) stepDigest(round int, d vector.Value) (vector.Value, bool) {
	if d != vector.Bottom && d < f.min {
		f.min = d
	}
	return f.min, round >= f.decideAt
}

// rowLogger is a plain Process logging the row of every Step: the
// reference the fold counts are checked against.
type rowLogger struct {
	floodMin
	rows map[int][]string
}

func (l *rowLogger) Step(round int, recv []any) (vector.Value, bool) {
	l.rows[round] = append(l.rows[round], fmt.Sprint(recv))
	return l.floodMin.Step(round, recv)
}

// TestEngineFoldCount pins what the fast path promises a Folder: Fold runs
// exactly once per distinct row a live destination reads — at most one
// more than the round's crashes — and StepFolded once per live
// destination, with results identical to the all-Step run.
func TestEngineFoldCount(t *testing.T) {
	const n, rounds = 8, 3
	vals := []vector.Value{5, 3, 7, 2, 6, 4, 8, 1}
	patterns := map[string]map[ProcessID]Crash{
		"none":    nil,
		"one":     {4: {Round: 2, AfterSends: 3}},
		"several": {8: {Round: 1, AfterSends: 2}, 2: {Round: 1, AfterSends: 5}, 5: {Round: 1, AfterSends: 5}, 3: {Round: 2, AfterSends: 6}},
		"edges":   {1: {Round: 1, AfterSends: 0}, 6: {Round: 1, AfterSends: n}, 7: {Round: 2, AfterSends: 7}, 8: {Round: 2, AfterSends: 1}},
	}
	for name, crashes := range patterns {
		fp := FailurePattern{Crashes: crashes}
		log := &foldLog{folds: map[int][]string{}, steps: map[int]int{}}
		rows := map[int][]string{}
		folders, loggers := make([]Process, n), make([]Process, n)
		for i, v := range vals {
			folders[i] = &foldMin{floodMin{v, rounds}, log}
			loggers[i] = &rowLogger{floodMin{v, rounds}, rows}
		}
		got, err := Run(folders, fp, Options{MaxRounds: rounds})
		if err != nil {
			t.Fatal(err)
		}
		want, err := Run(loggers, fp, Options{MaxRounds: rounds})
		if err != nil {
			t.Fatal(err)
		}
		if !resultsEqual(got, want) {
			t.Fatalf("%s: folded run %+v, stepped run %+v", name, got, want)
		}
		for r := 1; r <= rounds; r++ {
			if distinct := slices.Compact(slices.Clone(rows[r])); !slices.Equal(log.folds[r], distinct) {
				t.Errorf("%s round %d: folded rows %v, distinct rows read %v", name, r, log.folds[r], distinct)
			}
			crashed := 0
			for _, cr := range crashes {
				if cr.Round == r {
					crashed++
				}
			}
			if len(log.folds[r]) > 1+crashed {
				t.Errorf("%s round %d: %d folds with %d crashes", name, r, len(log.folds[r]), crashed)
			}
			if log.steps[r] != len(rows[r]) {
				t.Errorf("%s round %d: %d StepFolded calls for %d live destinations", name, r, log.steps[r], len(rows[r]))
			}
		}
	}
}

// TestEngineTracedRunFolds pins that a Trace records the run that executes
// without it: a traced run of Folders makes the calls the untraced one
// makes — one Fold per distinct row, n·(1+c) merges in a round of n live
// processes and c crashes, not the n² of stepping each — and reaches the
// same Result.
func TestEngineTracedRunFolds(t *testing.T) {
	const n, rounds = 8, 3
	fp := FailurePattern{Crashes: map[ProcessID]Crash{
		8: {Round: 1, AfterSends: 2}, 2: {Round: 1, AfterSends: 5}, 3: {Round: 2, AfterSends: 6},
	}}
	run := func(trace *Trace) (*Result, *foldLog) {
		log := &foldLog{folds: map[int][]string{}, steps: map[int]int{}}
		folders := make([]Process, n)
		for i := range folders {
			folders[i] = &foldMin{floodMin{vector.Value(1 + i), rounds}, log}
		}
		res, err := Run(folders, fp, Options{MaxRounds: rounds, Trace: trace})
		if err != nil {
			t.Fatal(err)
		}
		return res, log
	}
	plain, plainLog := run(nil)
	var trace Trace
	traced, tracedLog := run(&trace)
	if !reflect.DeepEqual(traced, plain) {
		t.Fatalf("traced run %+v, untraced %+v", traced, plain)
	}
	if !reflect.DeepEqual(tracedLog, plainLog) {
		t.Fatalf("traced run folded %+v, untraced %+v", tracedLog, plainLog)
	}
	for r, crashes := range []int{2, 1, 0} {
		if got := len(tracedLog.folds[r+1]); got != 1+crashes {
			t.Errorf("round %d: traced run made %d Fold calls, want %d", r+1, got, 1+crashes)
		}
		if live := len(trace.Rounds[r].Sends) - crashes; tracedLog.steps[r+1] != live {
			t.Errorf("round %d: %d StepFolded calls for %d live destinations", r+1, tracedLog.steps[r+1], live)
		}
	}
}

// TestEngineFoldMixedSlice pins the rule for mixed slices — Folders of two
// shared states and plain Processes: the choice is per destination, so the
// results are those of the all-Step run; the Folders sharing the first
// Folder's state fold each row at most once, the foreign Folders are
// stepped (their Fold and StepFolded never run).
func TestEngineFoldMixedSlice(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 300; trial++ {
		n := 2 + r.Intn(7)
		maxRounds := 1 + r.Intn(4)
		fp := randPattern(r, n, n-1, maxRounds)
		decideAt := 1 + r.Intn(maxRounds)
		var logs [2]*foldLog
		for i := range logs {
			logs[i] = &foldLog{folds: map[int][]string{}, steps: map[int]int{}}
		}
		first := -1 // the log of the slice's first Folder
		vals := make([]vector.Value, n)
		mixed := make([]Process, n)
		for i := range vals {
			vals[i] = vector.Value(1 + r.Intn(5))
			if g := r.Intn(3); g < 2 {
				mixed[i] = &foldMin{floodMin{vals[i], decideAt}, logs[g]}
				if first < 0 {
					first = g
				}
			} else {
				mixed[i] = &floodMin{vals[i], decideAt}
			}
		}
		got, err := Run(mixed, fp, Options{MaxRounds: maxRounds})
		if err != nil {
			t.Fatal(err)
		}
		want, err := Run(newFloodRun(vals, decideAt), fp, Options{MaxRounds: maxRounds})
		if err != nil {
			t.Fatal(err)
		}
		if !resultsEqual(got, want) {
			t.Fatalf("mixed slice diverged: fp=%+v vals=%v\nmixed: %+v\nsteps: %+v", fp, vals, got, want)
		}
		for g, log := range logs {
			if g != first && len(log.folds)+len(log.steps) > 0 {
				t.Fatalf("foreign Folders were folded: %+v (fp=%+v)", log, fp)
			}
			for round, folds := range log.folds {
				if len(slices.Compact(slices.Clone(folds))) != len(folds) {
					t.Fatalf("round %d: a row was folded twice: %v (fp=%+v)", round, folds, fp)
				}
			}
		}
	}
}
