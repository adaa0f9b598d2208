package core

import (
	"math/rand"
	"reflect"
	"testing"

	"kset/internal/adversary"
	"kset/internal/condition"
	"kset/internal/rounds"
	"kset/internal/vector"
)

// runOnce validates as System construction does — p.ValidateWith(c), or
// ValidateClassical for alg "classical", which reads only p.N, p.T, p.K —
// then runs alg ("figure2", "early" or "classical") on a fresh Runner, so
// the Result is the caller's to keep.
func runOnce(alg string, p Params, c condition.Condition, input vector.Vector, fp rounds.FailurePattern) (*rounds.Result, error) {
	r := NewRunner()
	if alg == "classical" {
		if err := ValidateClassical(p.N, p.T, p.K); err != nil {
			return nil, err
		}
		return r.RunClassical(p.N, p.T, p.K, input, fp, false, nil, nil, nil)
	}
	if err := p.ValidateWith(c); err != nil {
		return nil, err
	}
	if alg == "early" {
		return r.RunEarly(p, c, input, fp, false, nil, nil, nil)
	}
	return r.RunCond(p, c, input, fp, false, nil, nil, nil)
}

// exhaustive is one model-checking sweep: a configuration validated once,
// one Runner and one Result recycled by every run.
type exhaustive struct {
	t   *testing.T
	p   Params
	c   condition.Condition // nil for the classical baseline
	r   *Runner
	res rounds.Result
}

// run runs alg ("figure2", "early" or "classical") on the sweep's Runner.
// The Result it returns is valid until the next run.
func (e *exhaustive) run(alg string, input vector.Vector, fp rounds.FailurePattern) *rounds.Result {
	var res *rounds.Result
	var err error
	switch alg {
	case "classical":
		res, err = e.r.RunClassical(e.p.N, e.p.T, e.p.K, input, fp, false, nil, nil, &e.res)
	case "early":
		res, err = e.r.RunEarly(e.p, e.c, input, fp, false, nil, nil, &e.res)
	default:
		res, err = e.r.RunCond(e.p, e.c, input, fp, false, nil, nil, &e.res)
	}
	if err != nil {
		e.t.Fatalf("cfg %+v input %v fp %+v: %v", e.p, input, fp.Crashes, err)
	}
	return res
}

// exhaust model-checks one configuration: it validates p against c (as
// the classical baseline when c is nil, over ⌊t/k⌋+1 rounds, else over
// p.RMax()), builds the family's patterns once, and calls check on every
// input of {1..m}^n crossed with every pattern, in the family's order,
// with the input's membership in c. It returns the number of pairs.
func exhaust(t *testing.T, p Params, c condition.Condition, m int, family func(n, t, r int) (adversary.Family, error), check func(e *exhaustive, input vector.Vector, inC bool, fp rounds.FailurePattern)) int {
	t.Helper()
	var err error
	rmax := p.RMax()
	if c == nil {
		rmax, err = p.T/p.K+1, ValidateClassical(p.N, p.T, p.K)
	} else {
		err = p.ValidateWith(c)
	}
	if err != nil {
		t.Fatal(err)
	}
	fam, err := family(p.N, p.T, rmax)
	if err != nil {
		t.Fatal(err)
	}
	fps := fam.Patterns()
	e := &exhaustive{t: t, p: p, c: c, r: NewRunner()}
	pairs := 0
	vector.ForEach(p.N, m, func(in vector.Vector) bool {
		input := in.Clone()
		inC := c != nil && c.Contains(input)
		for _, fp := range fps {
			check(e, input, inC, fp)
		}
		pairs += len(fps)
		return true
	})
	return pairs
}

func TestParamsValidate(t *testing.T) {
	tests := []struct {
		name    string
		p       Params
		wantErr bool
	}{
		{"ok", Params{N: 5, T: 2, K: 2, D: 1, L: 1}, false},
		{"consensus", Params{N: 4, T: 3, K: 1, D: 2, L: 1}, false},
		{"n too small", Params{N: 1, T: 0, K: 1, D: 0, L: 1}, true},
		{"t zero", Params{N: 4, T: 0, K: 1, D: 0, L: 1}, true},
		{"t = n", Params{N: 4, T: 4, K: 1, D: 1, L: 1}, true},
		{"k zero", Params{N: 4, T: 2, K: 0, D: 1, L: 1}, true},
		{"l zero", Params{N: 4, T: 2, K: 2, D: 1, L: 0}, true},
		{"l > k", Params{N: 4, T: 2, K: 1, D: 1, L: 2}, true},
		{"d negative", Params{N: 4, T: 2, K: 2, D: -1, L: 1}, true},
		{"d > t", Params{N: 4, T: 2, K: 2, D: 3, L: 1}, true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.p.Validate(); (err != nil) != tc.wantErr {
				t.Errorf("Validate(%+v) = %v, wantErr %v", tc.p, err, tc.wantErr)
			}
		})
	}
}

// TestRoundFormulas pins the reconstructed bounds to the paper's special
// cases.
func TestRoundFormulas(t *testing.T) {
	tests := []struct {
		name        string
		p           Params
		rCond, rMax int
	}{
		// k = ℓ = 1: condition-based consensus decides in d+1 rounds [22].
		{"consensus d=3", Params{N: 8, T: 5, K: 1, D: 3, L: 1}, 4, 6},
		{"consensus d=1", Params{N: 8, T: 5, K: 1, D: 1, L: 1}, 2, 6},
		// d = 0: two rounds (clamp), matching "two rounds when d ≤ 1".
		{"consensus d=0", Params{N: 8, T: 5, K: 1, D: 0, L: 1}, 2, 6},
		// d = t, ℓ = 1: the classical ⌊t/k⌋+1 bound.
		{"classical k=2", Params{N: 9, T: 6, K: 2, D: 6, L: 1}, 4, 4},
		{"classical k=3", Params{N: 9, T: 6, K: 3, D: 6, L: 1}, 3, 3},
		// Generic: ⌊(d+ℓ−1)/k⌋+1.
		{"generic", Params{N: 10, T: 7, K: 2, D: 4, L: 2}, 3, 4},
		{"dividing by k", Params{N: 12, T: 9, K: 3, D: 6, L: 2}, 3, 4},
		// k > d+ℓ−1: clamp to 2.
		{"clamp", Params{N: 10, T: 6, K: 5, D: 2, L: 1}, 2, 2},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.p.RCond(); got != tc.rCond {
				t.Errorf("RCond = %d, want %d", got, tc.rCond)
			}
			if got := tc.p.RMax(); got != tc.rMax {
				t.Errorf("RMax = %d, want %d", got, tc.rMax)
			}
		})
	}
}

func TestNewRunErrors(t *testing.T) {
	p := Params{N: 4, T: 2, K: 2, D: 1, L: 1}
	c := condition.MustNewMax(4, 3, p.X(), 1)
	if _, err := NewRun(p, c, vector.OfInts(1, 2, 3)); err == nil {
		t.Error("want error for short input")
	}
	if _, err := NewRun(p, c, vector.OfInts(1, 2, 0, 3)); err == nil {
		t.Error("want error for ⊥ input")
	}
	if _, err := NewRun(p, nil, vector.OfInts(1, 2, 3, 3)); err == nil {
		t.Error("want error for nil condition")
	}
	wrongL := condition.MustNewMax(4, 3, p.X(), 2)
	if _, err := NewRun(p, wrongL, vector.OfInts(1, 2, 3, 3)); err == nil {
		t.Error("want error for ℓ mismatch")
	}
	wrongN := condition.MustNewMax(5, 3, p.X(), 1)
	if _, err := NewRun(p, wrongN, vector.OfInts(1, 2, 3, 3)); err == nil {
		t.Error("want error for n mismatch")
	}
}

// TestLemma1FastPath: input ∈ C and no more than t−d crashes by the end of
// round 1 ⟹ every correct process decides in exactly two rounds on a
// condition value.
func TestLemma1FastPath(t *testing.T) {
	p := Params{N: 6, T: 3, K: 2, D: 1, L: 1}
	c := condition.MustNewMax(p.N, 4, p.X(), p.L)
	input := vector.OfInts(4, 4, 4, 2, 1, 2) // top value 4 occupies 3 > x=2 entries
	if !c.Contains(input) {
		t.Fatal("input must be in C")
	}
	for _, fp := range []rounds.FailurePattern{
		adversary.None(),
		adversary.InitialLast(p.N, 2),
		{Crashes: map[rounds.ProcessID]rounds.Crash{2: {Round: 1, AfterSends: 3}}},
	} {
		res, err := runOnce("figure2", p, c, input, fp)
		if err != nil {
			t.Fatal(err)
		}
		verdict := Verify(input, fp, res, p.K)
		if !verdict.OK() {
			t.Fatalf("fp=%+v: %v", fp, verdict)
		}
		if verdict.MaxRound != 2 {
			t.Errorf("fp=%+v: decided at round %d, want 2", fp, verdict.MaxRound)
		}
		// The decided value comes from the condition: it is input's max.
		if !verdict.Distinct.Equal(vector.SetOf(4)) {
			t.Errorf("fp=%+v: decided %v, want {4}", fp, verdict.Distinct)
		}
	}
}

// TestLemma1SlowPath: input ∈ C with more than t−d round-1 crashes still
// decides by RCond.
func TestLemma1SlowPath(t *testing.T) {
	p := Params{N: 6, T: 4, K: 2, D: 2, L: 1}
	c := condition.MustNewMax(p.N, 4, p.X(), p.L)
	input := vector.OfInts(4, 4, 4, 4, 1, 2)
	if !c.Contains(input) {
		t.Fatal("input must be in C")
	}
	// x = 2; crash 3 processes in round 1 with staggered prefixes so some
	// survivor sees > 2 bottoms.
	fp := adversary.Stagger(p.N, 3, 3, 0, p.RMax())
	res, err := runOnce("figure2", p, c, input, fp)
	if err != nil {
		t.Fatal(err)
	}
	verdict := Verify(input, fp, res, p.K)
	if !verdict.OK() {
		t.Fatalf("%v", verdict)
	}
	if verdict.MaxRound > p.RCond() {
		t.Errorf("decided at round %d, want ≤ RCond=%d", verdict.MaxRound, p.RCond())
	}
}

// TestLemma2: input ∉ C decides by RMax; with more than t−d initial
// crashes it decides by RCond.
func TestLemma2(t *testing.T) {
	p := Params{N: 6, T: 4, K: 2, D: 2, L: 1}
	c := condition.MustNewMax(p.N, 4, p.X(), p.L)
	input := vector.OfInts(4, 3, 2, 1, 1, 2) // max occupies 1 ≤ x entries
	if c.Contains(input) {
		t.Fatal("input must be outside C")
	}

	res, err := runOnce("figure2", p, c, input, adversary.None())
	if err != nil {
		t.Fatal(err)
	}
	verdict := Verify(input, adversary.None(), res, p.K)
	if !verdict.OK() {
		t.Fatalf("%v", verdict)
	}
	if verdict.MaxRound != p.RMax() {
		t.Errorf("failure-free out-of-C decision at round %d, want RMax=%d", verdict.MaxRound, p.RMax())
	}

	fp := adversary.InitialLast(p.N, 3) // > x = 2 initial crashes
	res, err = runOnce("figure2", p, c, input, fp)
	if err != nil {
		t.Fatal(err)
	}
	verdict = Verify(input, fp, res, p.K)
	if !verdict.OK() {
		t.Fatalf("%v", verdict)
	}
	if verdict.MaxRound > p.RCond() {
		t.Errorf("initial-crash out-of-C decision at round %d, want ≤ RCond=%d", verdict.MaxRound, p.RCond())
	}
}

// TestConsensusSpecialCase: k = ℓ = 1 must solve consensus in d+1 rounds
// when the input is in the condition (the [22] behavior).
func TestConsensusSpecialCase(t *testing.T) {
	p := Params{N: 5, T: 3, K: 1, D: 2, L: 1}
	c := condition.MustNewMax(p.N, 3, p.X(), p.L)
	input := vector.OfInts(3, 3, 1, 2, 1)
	if !c.Contains(input) {
		t.Fatal("input must be in C")
	}
	fp := adversary.Stagger(p.N, p.T, 2, 1, p.RMax())
	res, err := runOnce("figure2", p, c, input, fp)
	if err != nil {
		t.Fatal(err)
	}
	verdict := Verify(input, fp, res, 1)
	if !verdict.OK() {
		t.Fatalf("%v", verdict)
	}
	if verdict.MaxRound > p.RCond() {
		t.Errorf("decided at %d, want ≤ d+1 = %d", verdict.MaxRound, p.RCond())
	}
}

// TestExhaustiveSmall model-checks the algorithm over every prefix-send
// failure pattern and every input vector of a small configuration:
// termination, validity, agreement and the Theorem-10 round bounds must
// hold in every execution.
func TestExhaustiveSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive model check")
	}
	configs := []struct {
		p Params
		m int
	}{
		{Params{N: 4, T: 2, K: 2, D: 1, L: 1}, 2},
		{Params{N: 4, T: 3, K: 2, D: 1, L: 1}, 2},
		{Params{N: 4, T: 2, K: 2, D: 1, L: 2}, 3},
		{Params{N: 4, T: 3, K: 3, D: 2, L: 2}, 2},
	}
	for _, cfg := range configs {
		p := cfg.p
		c := condition.MustNewMax(p.N, cfg.m, p.X(), p.L)
		runs := exhaust(t, p, c, cfg.m, adversary.ExhaustiveFamily, func(e *exhaustive, input vector.Vector, inC bool, fp rounds.FailurePattern) {
			verdict := Verify(input, fp, e.run("figure2", input, fp), p.K)
			if !verdict.OK() {
				t.Fatalf("cfg %+v input %v (inC=%v) fp %+v: %v", p, input, inC, fp.Crashes, verdict)
			}
			if bound := PredictRounds(p, inC, fp); verdict.MaxRound > bound {
				t.Fatalf("cfg %+v input %v (inC=%v) fp %+v: decided at %d > bound %d",
					p, input, inC, fp.Crashes, verdict.MaxRound, bound)
			}
		})
		t.Logf("cfg %+v m=%d: %d executions verified", p, cfg.m, runs)
	}
}

// TestPropertyRandomRuns fuzzes larger configurations with random inputs
// and adversaries, on both executors.
func TestPropertyRandomRuns(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 300; trial++ {
		n := 4 + r.Intn(5)
		tt := 1 + r.Intn(n-1)
		k := 1 + r.Intn(3)
		l := 1 + r.Intn(k)
		d := r.Intn(tt + 1)
		p := Params{N: n, T: tt, K: k, D: d, L: l}
		if err := p.Validate(); err != nil {
			t.Fatalf("generated invalid params %+v: %v", p, err)
		}
		m := 2 + r.Intn(3)
		c := condition.MustNewMax(n, m, p.X(), l)
		input := vector.New(n)
		for i := range input {
			input[i] = vector.Value(1 + r.Intn(m))
		}
		fp := adversary.Random(r, n, tt, p.RMax())
		res, err := runOnce("figure2", p, c, input, fp)
		if err != nil {
			t.Fatal(err)
		}
		verdict := Verify(input, fp, res, k)
		if !verdict.OK() {
			t.Fatalf("params %+v m=%d input %v fp %+v: %v", p, m, input, fp.Crashes, verdict)
		}
		if bound := PredictRounds(p, c.Contains(input), fp); verdict.MaxRound > bound {
			t.Fatalf("params %+v input %v fp %+v: round %d > bound %d",
				p, input, fp.Crashes, verdict.MaxRound, bound)
		}
	}
}

// executorsAgree runs one scenario, for every synchronous algorithm, three
// ways: the Runner's Group on the engine's shared row (one fold per
// segment) and through its transport seam (an installed MatrixTransport:
// one fold per destination), and the constructor's processes through the
// engine's plain-Process adapter (each Step reads the row itself). All
// three Results must be identical.
func executorsAgree(t *testing.T, runner *Runner, eng *rounds.Engine, p Params, c condition.Condition, input vector.Vector, fp rounds.FailurePattern) {
	t.Helper()
	for name, exec := range map[string]struct {
		run    func(tr rounds.Transport) (*rounds.Result, error)
		procs  func() ([]rounds.Process, error)
		rounds int
	}{
		"figure2": {
			func(tr rounds.Transport) (*rounds.Result, error) {
				return runner.RunCond(p, c, input, fp, false, tr, nil, nil)
			},
			func() ([]rounds.Process, error) { return NewRun(p, c, input) }, p.RMax(),
		},
		"classical": {
			func(tr rounds.Transport) (*rounds.Result, error) {
				return runner.RunClassical(p.N, p.T, p.K, input, fp, false, tr, nil, nil)
			},
			func() ([]rounds.Process, error) { return NewClassicalRun(p.N, p.T, p.K, input) }, p.T/p.K + 1,
		},
		"early": {
			func(tr rounds.Transport) (*rounds.Result, error) {
				return runner.RunEarly(p, c, input, fp, false, tr, nil, nil)
			},
			func() ([]rounds.Process, error) { return newEarlyRun(p, c, input) }, p.RMax(),
		},
	} {
		fast, err := exec.run(nil)
		if err != nil {
			t.Fatal(err)
		}
		seam, err := exec.run(&rounds.MatrixTransport{})
		if err != nil {
			t.Fatal(err)
		}
		procs, err := exec.procs()
		if err != nil {
			t.Fatal(err)
		}
		stepped, err := eng.RunInto(nil, procs, fp, rounds.Options{MaxRounds: exec.rounds})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fast, seam) || !reflect.DeepEqual(fast, stepped) {
			t.Fatalf("n=%d %s input %v fp %+v:\nshared row %+v\nseam       %+v\nprocesses  %+v", p.N, name, input, fp.Crashes, fast, seam, stepped)
		}
	}
}

// TestExecutorsAgree runs identical scenarios on the Runner's Groups —
// on the engine's shared row, where each distinct row is folded once, and
// through its transport seam — and on the constructors' processes, each
// stepping its own row, and requires identical results for all three
// algorithms: exhaustively at model-checking size and on random patterns
// there and at the n=48 the benchmark runs, where several senders crash
// mid-row in one round.
func TestExecutorsAgree(t *testing.T) {
	runner, eng := NewRunner(), rounds.NewEngine()
	for _, p := range []Params{
		{N: 6, T: 3, K: 2, D: 2, L: 2},
		{N: 48, T: 24, K: 3, D: 8, L: 2},
	} {
		const m = 6
		c := condition.MustNewMax(p.N, m, p.X(), p.L)
		fam := adversary.RandomFamily(31, p.N, p.T, p.RMax(), 50)
		r := rand.New(rand.NewSource(31))
		for trial := 0; trial < fam.Size(); trial++ {
			input := vector.New(p.N)
			for i := range input {
				input[i] = vector.Value(1 + r.Intn(m))
				if trial%2 == 0 && i < p.N/2 {
					input[i] = m // dense enough to be in the condition
				}
			}
			executorsAgree(t, runner, eng, p, c, input, fam.Pattern(trial))
		}
	}
	if testing.Short() {
		return
	}
	p := Params{N: 4, T: 3, K: 2, D: 1, L: 1}
	c := condition.MustNewMax(p.N, 2, p.X(), p.L)
	exhaust(t, p, c, 2, adversary.ExhaustiveFamily, func(e *exhaustive, input vector.Vector, _ bool, fp rounds.FailurePattern) {
		executorsAgree(t, e.r, eng, p, c, input, fp)
	})
}

func TestClassicalBaseline(t *testing.T) {
	n, tt, k := 6, 4, 2
	input := vector.OfInts(1, 5, 2, 4, 3, 1)
	for _, fp := range []rounds.FailurePattern{
		adversary.None(),
		adversary.Stagger(n, tt, 2, 1, tt/k+1),
	} {
		res, err := runOnce("classical", Params{N: n, T: tt, K: k}, nil, input, fp)
		if err != nil {
			t.Fatal(err)
		}
		verdict := Verify(input, fp, res, k)
		if !verdict.OK() {
			t.Fatalf("fp=%+v: %v", fp.Crashes, verdict)
		}
		if verdict.MaxRound != tt/k+1 {
			t.Errorf("classical decided at %d, want exactly ⌊t/k⌋+1 = %d", verdict.MaxRound, tt/k+1)
		}
	}
	if _, err := NewClassicalRun(1, 1, 1, vector.OfInts(1)); err == nil {
		t.Error("want error for n too small")
	}
	if _, err := NewClassicalRun(4, 2, 2, vector.OfInts(1, 0, 1, 1)); err == nil {
		t.Error("want error for ⊥ input")
	}
}

// TestClassicalExhaustive model-checks the baseline too.
func TestClassicalExhaustive(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive model check")
	}
	n, tt, k, m := 4, 2, 2, 2
	exhaust(t, Params{N: n, T: tt, K: k}, nil, m, adversary.ExhaustiveFamily, func(e *exhaustive, input vector.Vector, _ bool, fp rounds.FailurePattern) {
		if verdict := Verify(input, fp, e.run("classical", input, fp), k); !verdict.OK() {
			t.Fatalf("input %v fp %+v: %v", input, fp.Crashes, verdict)
		}
	})
}

func TestVerifyReportsViolations(t *testing.T) {
	input := vector.OfInts(1, 2, 3)
	res := &rounds.Result{
		Decisions:     map[rounds.ProcessID]vector.Value{1: 1, 2: 9, 3: 2},
		DecisionRound: []int{2, 2, 3},
	}
	v := Verify(input, rounds.FailurePattern{}, res, 1)
	if v.Validity {
		t.Error("validity must fail (9 not proposed)")
	}
	if v.Agreement {
		t.Error("agreement must fail (3 values > k=1)")
	}
	if !v.Termination {
		t.Error("termination holds (everyone decided)")
	}
	if v.OK() || v.String() == "" {
		t.Error("verdict misreported")
	}
	res2 := &rounds.Result{Decisions: map[rounds.ProcessID]vector.Value{}, DecisionRound: make([]int, 3)}
	v2 := Verify(input, rounds.FailurePattern{}, res2, 1)
	if v2.Termination {
		t.Error("termination must fail (nobody decided)")
	}
}

// TestRunnerAlternatingSizes pins NewRunner's promise for the early-deciding
// state: buffers grow to the largest n seen, so a held Runner that alternates
// between two sizes allocates nothing once it has seen both, and its results
// are a fresh Runner's.
func TestRunnerAlternatingSizes(t *testing.T) {
	small, c8, in8 := foldShape(8)
	large, c70, in70 := foldShape(70)
	fp := rounds.FailurePattern{Crashes: map[rounds.ProcessID]rounds.Crash{3: {Round: 1, AfterSends: 4}}}
	runner, res := NewRunner(), &rounds.Result{}
	alternate := func() {
		for _, run := range []struct {
			p     Params
			c     condition.Condition
			input vector.Vector
		}{{large, c70, in70}, {small, c8, in8}} {
			got, err := runner.RunEarly(run.p, run.c, run.input, fp, false, nil, nil, res)
			if err != nil {
				t.Fatal(err)
			}
			want, err := NewRunner().RunEarly(run.p, run.c, run.input, fp, false, nil, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d: held runner %+v, fresh runner %+v", run.p.N, got, want)
			}
		}
	}
	alternate()
	alternate()
	if avg := testing.AllocsPerRun(20, func() {
		runner.RunEarly(large, c70, in70, fp, false, nil, nil, res)
		runner.RunEarly(small, c8, in8, fp, false, nil, nil, res)
	}); avg != 0 {
		t.Errorf("a Runner alternating between n=70 and n=8 allocates %v times per pair, want 0", avg)
	}
}

// TestRunnerReuseAcrossSizesAndExecutors drives one Runner and one recycled
// Result through the three executors at n = 48 → 8 → 13 → 48 → 5 (→ 48 → 5)
// → 8 → 3 → 8, on the shared row and through a MatrixTransport: what a
// Runner sets only when it allocates — the boxed procs, the cells' fold
// pointers, the wrappers' inner cells — must survive a smaller run on a
// larger array and a reallocation of one array under another. The executors
// are interleaved so that cells is replaced (RunCond at 13, then 48) while
// the wrappers RunEarly made at 8 are still in use at 5: a wrapper left on a
// replaced cell runs on another run's proposal. Every run must equal the
// same call on a fresh Runner with a fresh Result — its DecisionRound n
// long, no round left over from a larger run — and satisfy the
// specification; MaxDecisionRound, Verify and Observe must read the
// recycled Result as they read the fresh one.
func TestRunnerReuseAcrossSizesAndExecutors(t *testing.T) {
	shapes := map[int]Params{
		48: {N: 48, T: 24, K: 4, D: 12, L: 1},
		13: {N: 13, T: 6, K: 2, D: 3, L: 2},
		8:  {N: 8, T: 4, K: 2, D: 2, L: 1},
		5:  {N: 5, T: 3, K: 1, D: 1, L: 1},
		3:  {N: 3, T: 1, K: 1, D: 0, L: 1},
	}
	const m = 8
	for _, tr := range []rounds.Transport{nil, &rounds.MatrixTransport{}} {
		held, recycled := NewRunner(), &rounds.Result{}
		r := rand.New(rand.NewSource(24))
		for _, step := range []struct {
			n     int
			execs string // c: RunCond, e: RunEarly, l: RunClassical
		}{
			{48, "l"}, {8, "cel"}, {13, "cl"}, {48, "lc"}, {5, "ecl"}, {48, "elc"}, {5, "lec"},
			{8, "cel"}, {3, "lec"}, {8, "ecl"},
		} {
			p := shapes[step.n]
			c := condition.MustNewMax(p.N, m, p.X(), p.L)
			for trial := 0; trial < 20; trial++ {
				input := vector.New(p.N)
				for i := range input {
					input[i] = vector.Value(1 + r.Intn(m))
				}
				fp := adversary.Random(r, p.N, p.T, p.RMax())
				for _, exec := range step.execs {
					run := func(runner *Runner, res *rounds.Result) *rounds.Result {
						var err error
						switch exec {
						case 'c':
							res, err = runner.RunCond(p, c, input, fp, false, tr, nil, res)
						case 'e':
							res, err = runner.RunEarly(p, c, input, fp, false, tr, nil, res)
						case 'l':
							res, err = runner.RunClassical(p.N, p.T, p.K, input, fp, false, tr, nil, res)
						}
						if err != nil {
							t.Fatal(err)
						}
						return res
					}
					got, want := run(held, recycled), run(NewRunner(), nil)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%T n=%d %c input %v fp %+v:\nheld runner  %+v\nfresh runner %+v", tr, p.N, exec, input, fp.Crashes, got, want)
					}
					if len(got.DecisionRound) != p.N {
						t.Fatalf("%T n=%d %c: DecisionRound %v, want %d entries", tr, p.N, exec, got.DecisionRound, p.N)
					}
					for i, round := range got.DecisionRound {
						if _, decided := got.Decisions[rounds.ProcessID(i+1)]; decided != (round > 0) {
							t.Fatalf("%T n=%d %c: p%d has decision round %d, decided=%v", tr, p.N, exec, i+1, round, decided)
						}
					}
					if got.MaxDecisionRound() != want.MaxDecisionRound() || Observe(got) != Observe(want) {
						t.Fatalf("%T n=%d %c: recycled Result reads %d %+v, fresh %d %+v", tr, p.N, exec,
							got.MaxDecisionRound(), Observe(got), want.MaxDecisionRound(), Observe(want))
					}
					verdict := Verify(input, fp, got, p.K)
					if !verdict.OK() {
						t.Fatalf("%T n=%d %c input %v fp %+v: %v", tr, p.N, exec, input, fp.Crashes, verdict)
					}
					if fresh := Verify(input, fp, want, p.K); !reflect.DeepEqual(verdict, fresh) {
						t.Fatalf("%T n=%d %c: recycled verdict %v, fresh %v", tr, p.N, exec, verdict, fresh)
					}
				}
			}
		}
	}
}
