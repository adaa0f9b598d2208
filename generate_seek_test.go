package kset

import (
	"math"
	"testing"
)

// TestFaultSchedulesSeeksBase pins that a fault-crossed source seeks its
// base like every other cross product: Range(FaultSchedules(base, fam), lo,
// hi) never asks the base for an index below lo/k and pulls only the ⌈hi/k⌉
// − ⌊lo/k⌋ scenarios the range touches. While the fault combinators kept
// their own iterator, every range — hence every checkpoint chunk and shard
// — regenerated and discarded the stream's whole prefix.
func TestFaultSchedulesSeeksBase(t *testing.T) {
	inner := RandomInputs(3, 4, 3, 40).(funcSource)
	askedLo, pulled := int64(math.MaxInt64), int64(0)
	base := funcSource{size: inner.size, sized: true, ranged: func(lo, hi int64, yield func(Scenario) bool) {
		askedLo = min(askedLo, lo)
		inner.ranged(lo, hi, func(sc Scenario) bool {
			pulled++
			return yield(sc)
		})
	}}
	fam := StormFamily(7, 3, 2, 0.4)
	k := int64(fam.Size())
	src := FaultSchedules(base, fam)
	if n, ok := src.Size(); !ok || n != 40*k {
		t.Fatalf("Size() = %d, %v; want %d", n, ok, 40*k)
	}
	for _, r := range [][2]int64{{0, 7}, {7, 8}, {30, 61}, {100, 120}, {119, 500}} {
		lo, hi := r[0], min(r[1], 40*k)
		askedLo, pulled = math.MaxInt64, 0
		got := int64(0)
		Range(src, lo, hi).ForEach(func(sc Scenario) bool {
			if want := fam.Plan(int((lo + got) % k)).Seed; sc.Faults.Seed != want {
				t.Fatalf("[%d,%d): scenario %d carries plan seed %d, want %d", lo, hi, got, sc.Faults.Seed, want)
			}
			got++
			return true
		})
		if got != hi-lo {
			t.Fatalf("[%d,%d): yielded %d scenarios", lo, hi, got)
		}
		if askedLo < lo/k {
			t.Errorf("[%d,%d): base asked for index %d, below %d", lo, hi, askedLo, lo/k)
		}
		if want := (hi-1)/k + 1 - lo/k; pulled != want {
			t.Errorf("[%d,%d): base yielded %d scenarios, want %d", lo, hi, pulled, want)
		}
	}
}
