package async

import (
	"sync"
	"testing"

	"kset/internal/condition"
	"kset/internal/vector"
)

func TestNewNetworkValidation(t *testing.T) {
	for _, tc := range []struct{ n, x, regs, vl int }{
		{1, 0, 1, 1},  // n too small
		{4, 2, 4, 4},  // 2x ≥ n
		{4, -1, 4, 4}, // x negative
		{4, 1, 0, 4},  // no registers
		{4, 1, 4, -1}, // bad view length
	} {
		if _, err := NewNetwork(tc.n, tc.x, tc.regs, tc.vl, 1); err == nil {
			t.Errorf("NewNetwork(%+v): want error", tc)
		}
	}
	nw, err := NewNetwork(5, 2, 10, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	if _, err := nw.Registers(0, 11); err == nil {
		t.Error("oversized window: want error")
	}
	if _, err := nw.Registers(-1, 2); err == nil {
		t.Error("negative offset: want error")
	}
}

func TestQuorumRegisterReadWrite(t *testing.T) {
	nw, err := NewNetwork(5, 2, 5, 5, 7)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	regs, err := nw.Registers(0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got := regs.Load(0); got.value != vector.Bottom || got.seq != 0 {
		t.Errorf("fresh register = %+v", got)
	}
	regs.Store(2, &snapReg{value: 9, seq: 1, view: vector.New(5)})
	if got := regs.Load(2); got.value != 9 || got.seq != 1 {
		t.Errorf("after write: %+v", got)
	}
	// Survives up to x crashed replicas.
	nw.Crash(1)
	nw.Crash(2)
	if got := regs.Load(2); got.value != 9 {
		t.Errorf("after crashes: %+v", got)
	}
	regs.Store(2, &snapReg{value: 4, seq: 2, view: vector.New(5)})
	if got := regs.Load(2); got.value != 4 || got.seq != 2 {
		t.Errorf("write under crashes: %+v", got)
	}
	// Stale sequence numbers never overwrite fresh state.
	regs.Store(2, &snapReg{value: 1, seq: 1, view: vector.New(5)})
	if got := regs.Load(2); got.value != 4 {
		t.Errorf("stale write took effect: %+v", got)
	}
}

// TestNetworkDeterministicQuorums: the virtual network's quorum draws are
// a pure function of the seed and the operation order, so two networks
// with the same seed serve identical register histories.
func TestNetworkDeterministicQuorums(t *testing.T) {
	run := func(seed int64) []vector.Value {
		nw, err := NewNetwork(5, 2, 5, 5, seed)
		if err != nil {
			t.Fatal(err)
		}
		defer nw.Close()
		regs, err := nw.Registers(0, 5)
		if err != nil {
			t.Fatal(err)
		}
		var trace []vector.Value
		for i := 0; i < 5; i++ {
			regs.Store(i, &snapReg{value: vector.Value(i + 1), seq: 1, view: vector.New(5)})
			trace = append(trace, regs.Load(i).value)
		}
		nw.Crash(2)
		for i := 0; i < 5; i++ {
			trace = append(trace, regs.Load(i).value)
		}
		return trace
	}
	a, b := run(17), run(17)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same-seed networks diverged at op %d: %v vs %v", i, a, b)
		}
	}
}

// TestQuorumSnapshotContainment runs the Afek construction over the
// message-passing registers and checks the containment ordering of
// concurrent scans with write-once entries.
func TestQuorumSnapshotContainment(t *testing.T) {
	const n = 5
	nw, err := NewNetwork(n, 2, n, n, 11)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	regs, err := nw.Registers(0, n)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSnapshotOver(regs)

	var wg sync.WaitGroup
	const scans = 30
	views := make([]vector.Vector, scans)
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s.Write(w, vector.Value(w+1))
		}(w)
	}
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g * (scans / 3); i < (g+1)*(scans/3); i++ {
				views[i] = s.Scan()
			}
		}(g)
	}
	wg.Wait()
	for i := 0; i < scans; i++ {
		for j := 0; j < scans; j++ {
			if !views[i].ContainedIn(views[j]) && !views[j].ContainedIn(views[i]) {
				t.Fatalf("incomparable scans %v and %v", views[i], views[j])
			}
		}
	}
}

// TestAgreementOverMessagePassing runs the Section-4 algorithm end to end
// on the quorum-emulated memory: agreement and validity always, and
// termination with in-condition inputs despite x crashes.
func TestAgreementOverMessagePassing(t *testing.T) {
	n, m, x, l := 5, 3, 2, 2
	c := condition.MustNewMax(n, m, x, l)
	input := vector.OfInts(3, 3, 2, 1, 2)
	if !c.Contains(input) {
		t.Fatal("input must be in C")
	}
	for _, crashes := range []map[int]CrashPoint{
		nil,
		{5: CrashBeforeWrite},
		{4: CrashAfterWrite, 5: CrashBeforeWrite},
	} {
		out := new(Outcome)
		if err := NewRunner().RunInto(Config{
			X: x, Cond: c, Input: input, Crashes: crashes,
			Seed: 13, Memory: MessagePassingMemory,
		}, out); err != nil {
			t.Fatal(err)
		}
		if len(out.Undecided) != 0 {
			t.Fatalf("crashes=%v: undecided %v", crashes, out.Undecided)
		}
		d := out.DistinctDecisions()
		if d.Len() > l || !d.SubsetOf(input.Vals()) {
			t.Fatalf("crashes=%v: bad decisions %v", crashes, d)
		}
	}
}

// TestMessagePassingRequiresMinority: the quorum emulation needs x < n/2.
func TestMessagePassingRequiresMinority(t *testing.T) {
	c := condition.MustNewMax(4, 3, 2, 2)
	err := NewRunner().RunInto(Config{
		X: 2, Cond: c, Input: vector.OfInts(3, 3, 1, 2),
		Memory: MessagePassingMemory,
	}, new(Outcome))
	if err == nil {
		t.Fatal("x = n/2 must be rejected for message-passing memory")
	}
}
