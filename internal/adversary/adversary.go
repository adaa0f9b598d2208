package adversary

import (
	"math/rand"

	"kset/internal/rounds"
)

// None returns the failure-free pattern.
func None() rounds.FailurePattern { return rounds.FailurePattern{} }

// InitialLast returns a pattern in which the last count processes
// p_{n-count+1}..p_n all crash in round 1 before sending anything — the
// paper's "initially crashed" processes (their entries stay ⊥ in every
// view).
func InitialLast(n, count int) rounds.FailurePattern {
	fp := rounds.FailurePattern{Crashes: make(map[rounds.ProcessID]rounds.Crash, count)}
	for i := 0; i < count; i++ {
		fp.Crashes[rounds.ProcessID(n-i)] = rounds.Crash{Round: 1, AfterSends: 0}
	}
	return fp
}

// Stagger returns the containment-chain adversary of the agreement proof's
// counting argument: in round 1, the last c1 processes crash with
// increasing send prefixes (the i-th delivers to only the first i
// processes), giving survivors views that differ as much as the model
// allows; from round 2 on, perRound further processes crash per round, each
// delivering only to the first process. Crashes stop when total crashes
// reach t.
func Stagger(n, t, c1, perRound, maxRounds int) rounds.FailurePattern {
	fp := rounds.FailurePattern{Crashes: make(map[rounds.ProcessID]rounds.Crash)}
	next := rounds.ProcessID(n) // crash from the highest id down
	crashed := 0
	for i := 0; i < c1 && crashed < t && next >= 1; i++ {
		fp.Crashes[next] = rounds.Crash{Round: 1, AfterSends: i % (n + 1)}
		next--
		crashed++
	}
	for r := 2; r <= maxRounds && crashed < t; r++ {
		for i := 0; i < perRound && crashed < t && next >= 1; i++ {
			fp.Crashes[next] = rounds.Crash{Round: r, AfterSends: 1}
			next--
			crashed++
		}
	}
	return fp
}

// Random returns a random pattern with at most t crashes within maxRounds
// rounds, with uniformly random crash rounds and send prefixes.
func Random(r *rand.Rand, n, t, maxRounds int) rounds.FailurePattern {
	fp := rounds.FailurePattern{Crashes: make(map[rounds.ProcessID]rounds.Crash)}
	count := r.Intn(t + 1)
	perm := r.Perm(n)
	for i := 0; i < count; i++ {
		fp.Crashes[rounds.ProcessID(perm[i]+1)] = rounds.Crash{
			Round:      1 + r.Intn(maxRounds),
			AfterSends: r.Intn(n + 1),
		}
	}
	return fp
}
