package core

import (
	"kset/internal/adversary"
	"kset/internal/condition"
	"kset/internal/rounds"
	"kset/internal/vector"
)

// Exhaust drives the Figure-2 condition-based algorithm over every pattern
// adversary.Enumerate generates — the §6.2 exhaustive safety sweep — with
// one Runner and one recycled Result for the whole sweep, so each
// of the Σ_{f≤t} C(n,f)·(r·(n+1))^f executions allocates nothing: the
// buffer-reusing companion of the enumeration (which itself reuses one
// pattern and its crash map across steps). fn receives each pattern with
// its run result and may stop the sweep by returning false; both
// arguments are reused across steps and must not be retained
// (Result.Reset clears the previous run's maps in place).
//
// Parameters and the condition are validated once up front; the per-run
// hot path only revalidates the input vector, exactly like a System run.
func Exhaust(p Params, c condition.Condition, input vector.Vector, fn func(fp rounds.FailurePattern, res *rounds.Result) bool) error {
	if err := p.ValidateWith(c); err != nil {
		return err
	}
	r := NewRunner()
	var res rounds.Result
	var runErr error
	err := adversary.Enumerate(p.N, p.T, p.RMax(), func(fp rounds.FailurePattern) bool {
		out, err := r.RunCond(p, c, input, fp, false, nil, nil, &res)
		if err != nil {
			runErr = err
			return false
		}
		return fn(fp, out)
	})
	if err != nil {
		return err
	}
	return runErr
}
