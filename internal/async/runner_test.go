package async

import (
	"fmt"
	"slices"
	"testing"

	"kset/internal/condition"
	"kset/internal/vector"
)

func sameOutcome(a, b *Outcome) bool {
	return a.Decided.Equal(b.Decided) && slices.Equal(a.Undecided, b.Undecided)
}

// TestCrashSilencesThisRunsNetworkOnly: a pooled Runner keeps the network
// of its last message-passing run, and a later run on another memory must
// not reach into it — its crashes silence no replica, whatever the sizes.
func TestCrashSilencesThisRunsNetworkOnly(t *testing.T) {
	small := condition.MustNewMax(4, 3, 1, 1)
	wide := condition.MustNewMax(8, 4, 2, 1)
	mp := Config{X: 1, Cond: small, Input: vector.OfInts(3, 3, 1, 2), Seed: 5,
		Memory: MessagePassingMemory, Crashes: map[int]CrashPoint{4: CrashBeforeWrite}}
	own := Config{X: 2, Cond: wide, Input: vector.OfInts(4, 4, 4, 2, 1, 2, 3, 1), Seed: 6,
		Crashes: map[int]CrashPoint{7: CrashBeforeWrite, 2: CrashAfterWrite}}
	r := NewRunner()
	for i, cfg := range []Config{mp, own, mp} {
		var idle []bool
		if cfg.Memory != MessagePassingMemory {
			idle = slices.Clone(r.net.crashed)
		}
		got := new(Outcome)
		if err := r.RunInto(cfg, got); err != nil {
			t.Fatal(err)
		}
		want := new(Outcome)
		if err := NewRunner().RunInto(cfg, want); err != nil {
			t.Fatal(err)
		}
		if !sameOutcome(got, want) {
			t.Errorf("run %d: pooled %+v, fresh %+v", i, got, want)
		}
		if idle != nil && !slices.Equal(r.net.crashed, idle) {
			t.Errorf("run %d on %v memory marked the idle network's replicas: %v, was %v", i, cfg.Memory, r.net.crashed, idle)
		}
	}
}

// countingCond counts the evaluations of P and of the view decoding that
// a run asks of the condition it wraps.
type countingCond struct {
	condition.Condition
	ps, decodes int
}

func (c *countingCond) P(j vector.Vector) bool {
	c.ps++
	return condition.Predicate(c.Condition, j)
}

func (c *countingCond) DecodeView(j vector.Vector) (vector.Set, bool) {
	c.decodes++
	return condition.DecodeView(c.Condition, j)
}

// scribbleStore honours Scan's weakest contract and punishes anything
// beyond it: every view it hands out is overwritten on the next Write, so
// a view kept past its step decides from garbage.
type scribbleStore struct {
	regs vector.Vector
	lent []vector.Vector
}

func (s *scribbleStore) Write(i int, v vector.Value) {
	for _, view := range s.lent {
		for k := range view {
			view[k] = 1
		}
	}
	s.lent = s.lent[:0]
	s.regs[i] = v
}

func (s *scribbleStore) Scan() vector.Vector {
	view := s.regs.Clone()
	s.lent = append(s.lent, view)
	return view
}

func (s *scribbleStore) AnyNonBottom() vector.Value { return s.regs.Max() }

// TestRunnerInvariants drives one pooled Runner through interleaved sizes,
// conditions and memory kinds and holds every run to a fresh Runner's
// outcome, three ways: as configured, with each distinct register state
// deciding at most once (the evaluations a counting condition sees), and
// over stores that destroy a view at the next write. The memo and the
// running maximum are per-run state; nothing may survive into the next row.
func TestRunnerInvariants(t *testing.T) {
	type row struct {
		name string
		cfg  Config
	}
	var rows []row
	for i, sh := range []struct{ n, m, x, l int }{{8, 4, 2, 1}, {4, 3, 1, 1}, {13, 5, 3, 2}, {4, 3, 1, 1}} {
		n := sh.n
		maxC := condition.MustNewMax(n, sh.m, sh.x, sh.l)
		// The single-member condition blocks: no view of its outside input
		// with ≤ x entries missing completes into it, so nobody decides.
		member := vector.New(n)
		outside := vector.New(n)
		for k := range member {
			member[k] = vector.Value(1 + k%2)
			outside[k] = vector.Value(2 + k%2)
		}
		single := condition.MustNewExplicit(n, sh.m, sh.l)
		single.MustAdd(member, member.TopL(sh.l))
		inMax := vector.New(n)
		for k := range inMax {
			inMax[k] = vector.Value(1 + (1-k%2)*(sh.m-1)) // m, 1, m, 1, …
		}
		if !maxC.Contains(inMax) {
			t.Fatalf("n=%d: %v must be in the max condition", n, inMax)
		}
		for _, in := range []struct {
			name  string
			cond  condition.Condition
			input vector.Vector
		}{{"max/in", maxC, inMax}, {"single/in", single, member}, {"single/out", single, outside}} {
			for _, kind := range []MemoryKind{MutexMemory, WaitFreeMemory, MessagePassingMemory} {
				for _, crashes := range []map[int]CrashPoint{nil, {n: CrashBeforeWrite}, {1: CrashAfterWrite}} {
					rows = append(rows, row{
						fmt.Sprintf("n=%d/%s/memory=%d/crashes=%v", n, in.name, kind, crashes),
						Config{X: sh.x, Cond: in.cond, Input: in.input, Crashes: crashes, Seed: int64(100*i + len(rows)), Memory: kind},
					})
				}
			}
		}
	}

	pooled := NewRunner()
	fewer := 0
	for _, rw := range rows {
		cfg := rw.cfg
		want := new(Outcome)
		if err := NewRunner().RunInto(cfg, want); err != nil {
			t.Fatalf("%s: %v", rw.name, err)
		}

		// (a)+(c): the pooled Runner, its condition counted.
		cc := &countingCond{Condition: cfg.Cond}
		counted := cfg
		counted.Cond = cc
		var got Outcome
		if err := pooled.RunInto(counted, &got); err != nil {
			t.Fatalf("%s: %v", rw.name, err)
		}
		if !sameOutcome(&got, want) {
			t.Errorf("%s: pooled %+v, fresh %+v", rw.name, got, want)
		}
		states := len(cfg.Input) + 1 // one per value write, and the empty array
		for _, cp := range cfg.Crashes {
			if cp == CrashBeforeWrite {
				states--
			}
		}
		if cc.ps > states || cc.decodes > states || cc.ps > cfg.X+1 {
			t.Errorf("%s: %d P and %d decode evaluations over %d register states, %d of them with ≤ x entries missing",
				rw.name, cc.ps, cc.decodes, states, cfg.X+1)
		}
		// Every write lands by pass delayRange, so a process that gave up
		// the default budget spent its last delayRange+9 scans or more on
		// the final array: evaluating per scan costs a P for each.
		if perScan := len(want.Undecided) * (schedDelayRange(len(cfg.Input)) + 9); perScan > 0 {
			fewer++
			if cc.ps >= perScan {
				t.Errorf("%s: %d P evaluations, evaluating per scan takes ≥ %d", rw.name, cc.ps, perScan)
			}
		}

		// (b): stores that scribble over every view at the next write.
		n, crashes, err := cfg.validate(nil)
		if err != nil {
			t.Fatal(err)
		}
		var scribbled Outcome
		pooled.drive(&cfg, crashes, &scribbleStore{regs: vector.New(n)}, &scribbleStore{regs: vector.New(n)}, nil, &scribbled)
		if !sameOutcome(&scribbled, want) {
			t.Errorf("%s: over scribbling stores %+v, want %+v", rw.name, scribbled, want)
		}
	}
	if fewer == 0 {
		t.Error("no row blocked: the per-scan comparison never ran")
	}
}
