package lattice

import (
	"fmt"
	"strings"

	"kset/internal/condition"
)

// Fact records what was mechanically verified for one (x,ℓ) cell of the
// paper's Figure 1.
type Fact struct {
	X, L int
	// UpInclusion: a (x+1,ℓ)-legal witness checked (x,ℓ)-legal (Thm 4).
	UpInclusion bool
	// UpStrict: a witness is (x,ℓ)-legal but not (x+1,ℓ)-legal (Thm 5).
	UpStrict bool
	// RightInclusion: the Theorem-6 boost of an (x,ℓ)-legal witness
	// checked (x,ℓ+1)-legal.
	RightInclusion bool
	// RightStrict: a witness is (x,ℓ+1)-legal but not (x,ℓ)-legal (Thm 7).
	RightStrict bool
	// AllLegal: whether the condition of all input vectors is (x,ℓ)-legal;
	// by Theorems 8/9 this must equal ℓ > x (AllExpected).
	AllLegal, AllExpected bool
	// Skipped lists sub-checks that could not be run at this cell (e.g. a
	// counterexample family is empty at this n, m).
	Skipped []string
}

// Verified reports whether every runnable sub-check at the cell succeeded.
func (f Fact) Verified() bool {
	return f.UpInclusion && f.UpStrict && f.RightInclusion && f.RightStrict &&
		f.AllLegal == f.AllExpected
}

// checkOpts caps the distance-property subset size during grid verification;
// size 3 exercises the generalized distance beyond pairs while keeping the
// grid affordable.
var checkOpts = condition.CheckOptions{MaxSubsetSize: 3}

// VerifyCell runs every Figure-1 sub-check at one (x,ℓ) cell over the
// domain {1..m}^n.
func VerifyCell(n, m, x, l int) Fact {
	return verifyCell(condition.NewChecker(), n, m, x, l)
}

// verifyCell is VerifyCell on a caller-provided Checker, so a grid sweep
// reuses one set of witness/view scratch buffers across every cell instead
// of reallocating them per legality probe.
func verifyCell(ck *condition.Checker, n, m, x, l int) Fact {
	f := Fact{X: x, L: l, AllExpected: l > x}

	// Theorem 4: the (x+1,ℓ)-legal max condition is (x,ℓ)-legal.
	if x+1 < n {
		up := enumerateMax(n, m, x+1, l)
		if up.Size() > 0 {
			f.UpInclusion = ck.Check(up, x, checkOpts) == nil
		} else {
			f.Skipped = append(f.Skipped, "thm4: empty witness")
		}
	} else {
		f.Skipped = append(f.Skipped, "thm4: x+1 ≥ n")
		f.UpInclusion = true
	}

	// Theorem 5: some condition is (x,ℓ)-legal but not (x+1,ℓ)-legal. The
	// theorem asserts existence, so when the family is empty over {1..m}
	// the value domain is widened (larger m can only enlarge the family;
	// the witness needs enough values to pad entries below the top ℓ).
	if c5, err := firstNonEmpty(m, func(mm int) (*condition.Explicit, error) {
		return Theorem5Condition(n, mm, x, l)
	}); err == nil {
		legal := ck.Check(c5, x, checkOpts) == nil
		_, stronger := ck.ExistsRecognizer(c5, x+1)
		f.UpStrict = legal && !stronger
	} else {
		f.Skipped = append(f.Skipped, fmt.Sprintf("thm5: %v", err))
		f.UpStrict = true
	}

	// Theorem 6: boosting an (x,ℓ)-legal condition to ℓ+1 stays legal.
	base := enumerateMax(n, m, x, l)
	if base.Size() > 0 {
		if boosted, err := BoostL(base); err == nil {
			f.RightInclusion = ck.Check(boosted, x, checkOpts) == nil
		} else {
			f.Skipped = append(f.Skipped, fmt.Sprintf("thm6: %v", err))
		}
	} else {
		f.Skipped = append(f.Skipped, "thm6: empty witness")
		f.RightInclusion = true
	}

	// Theorem 7: some condition is (x,ℓ+1)-legal but not (x,ℓ)-legal.
	// Existence statement: widen the domain like Theorem 5 above.
	if c7, err := firstNonEmpty(m, func(mm int) (*condition.Explicit, error) {
		return Theorem7Condition(n, mm, x, l)
	}); err == nil {
		legal := ck.Check(c7, x, checkOpts) == nil
		_, weaker := ck.ExistsRecognizer(WithL(c7, l), x)
		f.RightStrict = legal && !weaker
	} else {
		f.Skipped = append(f.Skipped, fmt.Sprintf("thm7: %v", err))
		f.RightStrict = true
	}

	// Theorems 8/9: C_all is (x,ℓ)-legal iff ℓ > x.
	all := AllVectorsCondition(n, m, l)
	if l > x {
		f.AllLegal = ck.Check(all, x, checkOpts) == nil
	} else {
		// Non-legality is inherited upward (a recognizer for C restricts
		// to any subset), so a subset with no recognizer refutes C_all.
		// The Theorem-7 family is such a subset when non-empty; fall back
		// to deciding C_all itself otherwise.
		if c7, err := Theorem7Condition(n, m, x, l); err == nil {
			_, legal := ck.ExistsRecognizer(WithL(c7, l), x)
			f.AllLegal = legal
		} else {
			_, legal := ck.ExistsRecognizer(all, x)
			f.AllLegal = legal
		}
	}
	return f
}

// firstNonEmpty tries a counterexample construction over growing value
// domains m..m+4 and returns the first non-empty instance; the cell's
// process count stays fixed, only padding values are added.
func firstNonEmpty(m int, build func(m int) (*condition.Explicit, error)) (*condition.Explicit, error) {
	var lastErr error
	for mm := m; mm <= m+4; mm++ {
		c, err := build(mm)
		if err == nil {
			return c, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

// VerifyFigure1 verifies every cell of the (x,ℓ) grid with x ∈ [0, xMax]
// and ℓ ∈ [1, lMax] over the vector domain {1..m}^n, sharing one legality
// Checker (and its scratch buffers) across all cells. xMax must be < n.
func VerifyFigure1(n, m, xMax, lMax int) ([]Fact, error) {
	if xMax >= n {
		return nil, fmt.Errorf("lattice: xMax=%d must be < n=%d", xMax, n)
	}
	if lMax < 1 || n < 1 || m < 1 {
		return nil, fmt.Errorf("lattice: bad grid n=%d m=%d lMax=%d", n, m, lMax)
	}
	ck := condition.NewChecker()
	var facts []Fact
	for x := 0; x <= xMax; x++ {
		for l := 1; l <= lMax; l++ {
			facts = append(facts, verifyCell(ck, n, m, x, l))
		}
	}
	return facts, nil
}

// Render draws the verified grid in the spirit of the paper's Figure 1:
// rows are x (the failure resilience), columns are ℓ (the agreement
// looseness), each cell shows whether all its theorems verified and whether
// it contains the all-vectors condition. The wait-free consensus corner and
// the ℓ > x region boundary are visible by inspection.
func Render(facts []Fact) string {
	if len(facts) == 0 {
		return "(empty grid)"
	}
	xMax, lMax := 0, 0
	byCell := map[[2]int]Fact{}
	for _, f := range facts {
		byCell[[2]int{f.X, f.L}] = f
		if f.X > xMax {
			xMax = f.X
		}
		if f.L > lMax {
			lMax = f.L
		}
	}
	var b strings.Builder
	b.WriteString("Sets of (x,ℓ)-legal conditions — ✓: Thms 4–9 verified; ∗: contains C_all\n")
	b.WriteString("      ")
	for l := 1; l <= lMax; l++ {
		fmt.Fprintf(&b, " ℓ=%-4d", l)
	}
	b.WriteByte('\n')
	for x := xMax; x >= 0; x-- {
		fmt.Fprintf(&b, "x=%-3d ", x)
		for l := 1; l <= lMax; l++ {
			f, ok := byCell[[2]int{x, l}]
			switch {
			case !ok:
				b.WriteString("   .   ")
			case !f.Verified():
				b.WriteString("   ✗   ")
			case f.AllLegal:
				b.WriteString("   ✓∗  ")
			default:
				b.WriteString("   ✓   ")
			}
		}
		b.WriteByte('\n')
	}
	b.WriteString("(x-resilient ℓ-set agreement is asynchronously solvable from C_all iff ℓ > x)\n")
	return b.String()
}
