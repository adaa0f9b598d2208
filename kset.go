package kset

import (
	"math/big"

	"kset/internal/adversary"
	"kset/internal/async"
	"kset/internal/condition"
	"kset/internal/core"
	"kset/internal/count"
	"kset/internal/rounds"
	"kset/internal/vector"
)

// Core value and vector types.
type (
	// Value is a proposed value (≥ 1); Bottom (⊥) marks absent entries.
	// The value domain is capped at 64 (vector.MaxSetValue): value sets
	// are single-word bitmasks, and every condition constructor rejects
	// larger domains.
	Value = vector.Value
	// Vector is an input vector or view, one entry per process.
	Vector = vector.Vector
	// Set is a set of values 1..64, represented as a bitmask; build one
	// with SetOf.
	Set = vector.Set
)

// Bottom is the default value ⊥.
const Bottom = vector.Bottom

// VectorOf builds an input vector from plain ints (0 means ⊥).
func VectorOf(vs ...int) Vector { return vector.OfInts(vs...) }

// SetOf builds a value set from the given values, deduplicating.
func SetOf(vs ...Value) Set { return vector.SetOf(vs...) }

// Condition types.
type (
	// Condition is a set of input vectors with a recognizing function h_ℓ.
	Condition = condition.Condition
	// MaxCondition is the (x,ℓ)-legal condition generated by max_ℓ.
	MaxCondition = condition.MaxCondition
	// MinCondition is the (x,ℓ)-legal condition generated by min_ℓ.
	MinCondition = condition.MinCondition
	// ExplicitCondition is a finite enumerated condition: a hashed member
	// index with O(1) Contains/Recognize and no per-probe allocation. New
	// holds a Clone of it, so adding to it afterwards does not reach a
	// System.
	ExplicitCondition = condition.Explicit
	// LegalityViolation is a witnessed legality failure.
	LegalityViolation = condition.Violation
)

// NewMaxCondition returns the (x,ℓ)-legal condition over {1..m}^n
// generated by the recognizer max_ℓ (Theorem 2): the vectors whose ℓ
// greatest values occupy more than x entries. Instantiate the synchronous
// algorithm with x = t−d.
func NewMaxCondition(n, m, x, l int) (*MaxCondition, error) {
	return condition.NewMax(n, m, x, l)
}

// NewMinCondition returns the min_ℓ twin of NewMaxCondition: the vectors
// whose ℓ smallest values occupy more than x entries. Use it when the
// protocol should favor small values; every legality result holds
// symmetrically.
func NewMinCondition(n, m, x, l int) (*MinCondition, error) {
	return condition.NewMin(n, m, x, l)
}

// NewExplicitCondition creates an empty explicit condition over {1..m}^n
// with parameter ℓ; add vectors with Add. Like every condition
// constructor it returns an error — wrapping ErrDomainTooLarge — when m
// exceeds the 64-value domain cap.
func NewExplicitCondition(n, m, l int) (*ExplicitCondition, error) {
	return condition.NewExplicit(n, m, l)
}

// CheckLegal verifies that c, with its own recognizing function, is
// (x, c.L())-legal, checking the distance property over member subsets of
// size up to maxSubset (0 = all; exponential). It returns nil when legal.
func CheckLegal(c Condition, x, maxSubset int) *LegalityViolation {
	return condition.Check(c, x, condition.CheckOptions{MaxSubsetSize: maxSubset})
}

// IsLegalizable searches for any recognizing function making the explicit
// condition (x, c.L())-legal. Exponential; for small conditions.
func IsLegalizable(c *ExplicitCondition, x int) bool {
	_, ok := condition.ExistsRecognizer(c, x)
	return ok
}

// Synchronous-system types.
type (
	// Params fixes n, t, k and the condition class S^d_t[ℓ].
	Params = core.Params
	// FailurePattern is the synchronous crash adversary.
	FailurePattern = rounds.FailurePattern
	// Crash schedules one process crash.
	Crash = rounds.Crash
	// ProcessID is a 1-based process identifier.
	ProcessID = rounds.ProcessID
	// Result reports one synchronous execution.
	Result = rounds.Result
	// Verdict reports specification conformance of an execution.
	Verdict = core.Verdict
)

// NoFailures returns the failure-free pattern.
func NoFailures() FailurePattern { return adversary.None() }

// InitialCrashes returns a pattern crashing the last count processes
// before they send anything.
func InitialCrashes(n, count int) FailurePattern { return adversary.InitialLast(n, count) }

// Verify checks an execution result against the k-set agreement
// specification.
func Verify(input Vector, fp FailurePattern, res *Result, k int) Verdict {
	return core.Verify(input, fp, res, k)
}

// CrashPoint says where an asynchronous process crashes.
type CrashPoint = async.CrashPoint

// Asynchronous crash points.
const (
	NoCrash          = async.NoCrash
	CrashBeforeWrite = async.CrashBeforeWrite
	CrashAfterWrite  = async.CrashAfterWrite
)

// ConditionSize returns NB(x,ℓ): the number of vectors in the
// max_ℓ-generated (x,ℓ)-legal condition over {1..m}^n (Theorems 3 and 13).
func ConditionSize(n, m, x, l int) (*big.Int, error) { return count.NB(n, m, x, l) }

// ConditionFraction returns ConditionSize divided by m^n: the share of all
// inputs the condition covers.
func ConditionFraction(n, m, x, l int) (float64, error) { return count.Fraction(n, m, x, l) }
