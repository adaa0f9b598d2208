package count

import (
	"math/big"
	"testing"
)

func TestComb(t *testing.T) {
	tests := []struct {
		n, k int
		want int64
	}{
		{5, 2, 10}, {5, 0, 1}, {5, 5, 1}, {5, 6, 0}, {5, -1, 0}, {0, 0, 1},
	}
	for _, tc := range tests {
		if got := combShared(tc.n, tc.k).Int64(); got != tc.want {
			t.Errorf("C(%d,%d) = %d, want %d", tc.n, tc.k, got, tc.want)
		}
	}
}

func TestSurj(t *testing.T) {
	tests := []struct {
		s, j int
		want int64
	}{
		{3, 1, 1}, {3, 2, 6}, {3, 3, 6}, {4, 2, 14}, {2, 3, 0},
		{0, 0, 1}, {1, 0, 0}, {5, 2, 30},
	}
	for _, tc := range tests {
		if got := surjShared(tc.s, tc.j).Int64(); got != tc.want {
			t.Errorf("surjShared(%d,%d) = %d, want %d", tc.s, tc.j, got, tc.want)
		}
	}
	// Identity: Σ_j C(m,j)·surjShared(n,j) over j=1..m = m^n.
	n, m := 5, 3
	sum := new(big.Int)
	for j := 1; j <= m; j++ {
		sum.Add(sum, new(big.Int).Mul(combShared(m, j), surjShared(n, j)))
	}
	if want := pow(m, n); sum.Cmp(want) != 0 {
		t.Errorf("surjection partition identity: %v, want %v", sum, want)
	}
}

// TestNBConsensusTelescopes checks the paper's observation that NB(0,1) =
// m^n (every vector trivially satisfies the density property at x = 0).
func TestNBConsensusTelescopes(t *testing.T) {
	for _, tc := range []struct{ n, m int }{{3, 2}, {4, 3}, {5, 5}, {7, 2}} {
		got := NBConsensus(tc.n, tc.m, 0)
		if want := pow(tc.m, tc.n); got.Cmp(want) != 0 {
			t.Errorf("NB(0,1) for n=%d m=%d = %v, want m^n = %v", tc.n, tc.m, got, want)
		}
	}
}

// TestNBConsensusVsBruteForce cross-checks Theorem 3 against enumeration.
func TestNBConsensusVsBruteForce(t *testing.T) {
	for n := 2; n <= 5; n++ {
		for m := 1; m <= 4; m++ {
			for x := 0; x < n; x++ {
				got := NBConsensus(n, m, x).Int64()
				want := BruteForce(n, m, x, 1)
				if got != want {
					t.Errorf("NB(x=%d,1) n=%d m=%d: formula %d, brute force %d", x, n, m, got, want)
				}
			}
		}
	}
}

// TestNBMatchesConsensusAtL1 checks that the general Theorem-13 count
// agrees with the Theorem-3 closed form at ℓ = 1.
func TestNBMatchesConsensusAtL1(t *testing.T) {
	for n := 2; n <= 6; n++ {
		for m := 1; m <= 5; m++ {
			for x := 0; x < n; x++ {
				general := MustNB(n, m, x, 1)
				consensus := NBConsensus(n, m, x)
				if general.Cmp(consensus) != 0 {
					t.Errorf("NB(%d,%d,x=%d,ℓ=1) = %v, consensus form %v", n, m, x, general, consensus)
				}
			}
		}
	}
}

// TestNBVsBruteForce is the headline cross-check of Theorem 13: the
// combinatorial count equals enumeration on a full small grid.
func TestNBVsBruteForce(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive enumeration grid")
	}
	for n := 2; n <= 5; n++ {
		for m := 1; m <= 4; m++ {
			for x := 0; x < n; x++ {
				for l := 1; l <= 3; l++ {
					got := MustNB(n, m, x, l).Int64()
					want := BruteForce(n, m, x, l)
					if got != want {
						t.Errorf("NB(n=%d,m=%d,x=%d,ℓ=%d): formula %d, brute force %d",
							n, m, x, l, got, want)
					}
				}
			}
		}
	}
}

// TestNBMonotone checks the monotonicity the hierarchies of Section 5 rest
// on: NB grows when x shrinks (Theorem 4 direction) and when ℓ grows
// (Theorem 6 direction).
func TestNBMonotone(t *testing.T) {
	n, m := 6, 4
	for l := 1; l <= 3; l++ {
		for x := 1; x < n; x++ {
			lo := MustNB(n, m, x, l)
			hi := MustNB(n, m, x-1, l)
			if lo.Cmp(hi) > 0 {
				t.Errorf("NB not monotone in x: NB(x=%d)=%v > NB(x=%d)=%v (ℓ=%d)", x, lo, x-1, hi, l)
			}
		}
	}
	for x := 0; x < n; x++ {
		for l := 2; l <= 4; l++ {
			lo := MustNB(n, m, x, l-1)
			hi := MustNB(n, m, x, l)
			if lo.Cmp(hi) > 0 {
				t.Errorf("NB not monotone in ℓ: NB(ℓ=%d)=%v > NB(ℓ=%d)=%v (x=%d)", l-1, lo, l, hi, x)
			}
		}
	}
}

// TestNBFullConditionBoundary checks Theorems 8/9 in counting form: the
// max_ℓ condition contains all m^n vectors iff ℓ > x.
func TestNBFullConditionBoundary(t *testing.T) {
	n, m := 5, 3
	for x := 0; x < n; x++ {
		for l := 1; l <= n; l++ {
			nb := MustNB(n, m, x, l)
			all := pow(m, n)
			isAll := nb.Cmp(all) == 0
			// ℓ ≥ m also yields everything: with at most m distinct values
			// present, the top-ℓ covers every entry.
			want := l > x || l >= m
			if isAll != want {
				t.Errorf("NB(n=%d,m=%d,x=%d,ℓ=%d)=%v, all=%v: full=%v, want %v",
					n, m, x, l, nb, all, isAll, want)
			}
		}
	}
}

func TestNBErrors(t *testing.T) {
	for _, tc := range []struct{ n, m, x, l int }{
		{0, 3, 0, 1}, {3, 0, 0, 1}, {3, 3, -1, 1}, {3, 3, 3, 1}, {3, 3, 0, 0},
	} {
		if _, err := NB(tc.n, tc.m, tc.x, tc.l); err == nil {
			t.Errorf("NB(%+v): want error", tc)
		}
	}
	if _, err := Fraction(0, 1, 0, 1); err == nil {
		t.Error("Fraction: want error")
	}
}

func TestFraction(t *testing.T) {
	// At x=0 the fraction is 1.
	f, err := Fraction(4, 3, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if f != 1.0 {
		t.Errorf("Fraction(x=0) = %v, want 1", f)
	}
	// Fractions decrease with x.
	prev := 1.1
	for x := 0; x < 4; x++ {
		f, err := Fraction(4, 3, x, 1)
		if err != nil {
			t.Fatal(err)
		}
		if f > prev {
			t.Errorf("fraction increased at x=%d: %v > %v", x, f, prev)
		}
		prev = f
	}
}
