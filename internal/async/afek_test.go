package async

import (
	"sync"
	"testing"
	"time"

	"kset/internal/condition"
	"kset/internal/vector"
)

func TestAtomicSnapshotBasics(t *testing.T) {
	s := NewAtomicSnapshot(3)
	if got := s.Scan(); !got.Equal(vector.OfInts(0, 0, 0)) {
		t.Errorf("fresh scan = %v", got)
	}
	s.Write(1, 7)
	if got := s.Scan(); !got.Equal(vector.OfInts(0, 7, 0)) {
		t.Errorf("scan = %v", got)
	}
	if got := s.AnyNonBottom(); got != 7 {
		t.Errorf("AnyNonBottom = %v", got)
	}
	s.Write(1, 9) // multi-write: seq advances
	if got := s.Scan(); !got.Equal(vector.OfInts(0, 9, 0)) {
		t.Errorf("scan after rewrite = %v", got)
	}
	// Epoch publishing: a view returned before a write stays intact (the
	// write replaces the published epoch, never mutates it), and warm
	// scans share one vector with no copying.
	before := s.Scan()
	s.Write(0, 3)
	if !before.Equal(vector.OfInts(0, 9, 0)) {
		t.Errorf("published epoch mutated by later write: %v", before)
	}
	a, b := s.Scan(), s.Scan()
	if &a[0] != &b[0] {
		t.Error("warm scans did not share the published epoch")
	}
	s.Reset(3)
	if got := s.Scan(); !got.Equal(vector.OfInts(0, 0, 0)) {
		t.Errorf("scan after reset = %v", got)
	}
}

// TestAtomicSnapshotWriteOnceContainment checks the agreement-critical
// property under concurrency: with write-once entries, concurrent scans
// are totally ordered by containment.
func TestAtomicSnapshotWriteOnceContainment(t *testing.T) {
	const n, scans = 8, 400
	s := NewAtomicSnapshot(n)
	var wg sync.WaitGroup
	views := make([]vector.Vector, scans)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			s.Write(i, vector.Value(i+1))
			time.Sleep(time.Microsecond)
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g * (scans / 4); i < (g+1)*(scans/4); i++ {
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

// TestAtomicSnapshotMonotoneLinearizable stresses the helping path and
// the epoch cache together: every writer rewrites its entry with strictly
// increasing values while scanners hammer Scan, so executions mix warm
// fast-path hits, fresh double collects and borrowed embedded views.
// Linearizability of scans over per-entry-monotone registers implies
// every pair of scans is entrywise comparable — a property plain double
// collects without helping would not need, but borrowed views and cached
// epochs must also satisfy.
func TestAtomicSnapshotMonotoneLinearizable(t *testing.T) {
	const n, writesPer, scansPer, scanners = 4, 300, 300, 4
	s := NewAtomicSnapshot(n)
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for v := 1; v <= writesPer; v++ {
				s.Write(w, vector.Value(v))
			}
		}(w)
	}
	views := make([][]vector.Vector, scanners)
	for g := 0; g < scanners; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			views[g] = make([]vector.Vector, scansPer)
			for i := 0; i < scansPer; i++ {
				views[g][i] = s.Scan()
			}
		}(g)
	}
	wg.Wait()

	var all []vector.Vector
	for _, vs := range views {
		all = append(all, vs...)
	}
	leq := func(a, b vector.Vector) bool {
		for k := range a {
			if a[k] > b[k] {
				return false
			}
		}
		return true
	}
	for i := range all {
		for j := range all {
			if !leq(all[i], all[j]) && !leq(all[j], all[i]) {
				t.Fatalf("entrywise-incomparable scans %v and %v", all[i], all[j])
			}
		}
	}
	// A scanner's own scans must additionally be non-decreasing in order.
	for g := range views {
		for i := 1; i < len(views[g]); i++ {
			if !leq(views[g][i-1], views[g][i]) {
				t.Fatalf("scanner %d regressed: %v then %v", g, views[g][i-1], views[g][i])
			}
		}
	}
}

// TestAtomicSnapshotEpochStability pins the immutability contract the
// epoch cache rests on under concurrency: while a single writer advances
// one entry, a scanner's previously returned views never change value
// after the fact. Each view is fingerprinted (copied) the moment Scan
// returns; any later divergence means a published vector was mutated.
func TestAtomicSnapshotEpochStability(t *testing.T) {
	const n, writes, scans = 4, 500, 500
	s := NewAtomicSnapshot(n)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for v := 1; v <= writes; v++ {
			s.Write(v%n, vector.Value(v))
		}
	}()
	type snap struct{ view, copy vector.Vector }
	got := make([]snap, scans)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < scans; i++ {
			v := s.Scan()
			got[i] = snap{view: v, copy: v.Clone()}
		}
	}()
	wg.Wait()
	for i, g := range got {
		if !g.view.Equal(g.copy) {
			t.Fatalf("scan %d mutated after return: now %v, was %v", i, g.view, g.copy)
		}
	}
}

// TestAgreementOnWaitFreeMemory runs the full asynchronous algorithm on
// the Afek-et-al substrate: outcomes must satisfy the same guarantees as
// on the mutex substrate.
func TestAgreementOnWaitFreeMemory(t *testing.T) {
	n, m, x, l := 5, 3, 2, 2
	c := condition.MustNewMax(n, m, x, l)
	input := vector.OfInts(3, 3, 2, 1, 2)
	for seed := int64(0); seed < 10; seed++ {
		out := new(Outcome)
		if err := NewRunner().RunInto(Config{
			X: x, Cond: c, Input: input,
			Crashes: map[int]CrashPoint{5: CrashBeforeWrite},
			Seed:    seed,
			Memory:  WaitFreeMemory,
		}, out); err != nil {
			t.Fatal(err)
		}
		if len(out.Undecided) != 0 {
			t.Fatalf("seed %d: undecided %v", seed, out.Undecided)
		}
		d := out.DistinctDecisions()
		if d.Len() > l || !d.SubsetOf(input.Vals()) {
			t.Fatalf("seed %d: bad decisions %v", seed, d)
		}
	}
}
