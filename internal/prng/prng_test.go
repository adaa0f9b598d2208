package prng

import "testing"

// TestReferenceVector pins the stream to splitmix64's published reference
// output: every seeded plane's reproducibility rests on these exact draws.
func TestReferenceVector(t *testing.T) {
	r := New(1234567)
	for i, want := range []uint64{
		6457827717110365317, 3203168211198807973, 9817491932198370423,
		4593380528125082431, 16408922859458223821,
	} {
		if got := r.Next(); got != want {
			t.Fatalf("draw %d = %d, want %d", i, got, want)
		}
	}
}

// TestDerivedDraws checks Intn and Shuffle consume exactly the draws they
// document — one, and one per shuffled element but the first — and stay
// in range, so a reseeded stream replays them.
func TestDerivedDraws(t *testing.T) {
	a, b := New(42), New(42)
	if got, want := a.Intn(10), int(b.Next()%10); got != want {
		t.Fatalf("Intn = %d, want %d", got, want)
	}
	xs := []int{0, 1, 2, 3, 4, 5, 6}
	Shuffle(&a, xs)
	seen := make([]bool, len(xs))
	for _, x := range xs {
		seen[x] = true
	}
	for x, ok := range seen {
		if !ok {
			t.Fatalf("shuffle lost %d: %v", x, xs)
		}
	}
	for i := 0; i < len(xs)-1; i++ {
		b.Next()
	}
	if a != b {
		t.Fatalf("Shuffle of %d elements did not consume %d draws", len(xs), len(xs)-1)
	}
}
