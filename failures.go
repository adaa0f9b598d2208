package kset

import "kset/internal/adversary"

// CrashSpec schedules one crash for Crashes: process ID crashes during its
// send phase of Round, after delivering to the first AfterSends processes
// of its send order.
type CrashSpec struct {
	ID         ProcessID
	Round      int
	AfterSends int
}

// Crashes builds a failure pattern from explicit crash schedules, so
// campaigns can sweep hand-written adversaries without touching the
// FailurePattern maps directly:
//
//	fp := kset.Crashes(
//		kset.CrashSpec{ID: 6, Round: 1, AfterSends: 2},
//		kset.CrashSpec{ID: 7, Round: 2},
//	)
func Crashes(specs ...CrashSpec) FailurePattern {
	fp := FailurePattern{Crashes: make(map[ProcessID]Crash, len(specs))}
	for _, s := range specs {
		fp.Crashes[s.ID] = Crash{Round: s.Round, AfterSends: s.AfterSends}
	}
	return fp
}

// FailureFamily is a finite, deterministic, indexed family of failure
// patterns: Size patterns, Pattern(i) always the same for the same i.
// Families are the adversary side of the generator subsystem — cross one
// with an input source via FailureSchedules, or expand a sweep grid point
// per pattern via SweepFailures.
type FailureFamily = adversary.Family

// InitialCrashFamily is the family {InitialCrashes(n, f) : f = 0..maxF} —
// the f-sweep of the early-decision experiments. Pattern i crashes the
// last i processes before they send anything.
func InitialCrashFamily(n, maxF int) FailureFamily {
	return adversary.InitialFamily(n, maxF)
}

// StaggeredCrashFamily is the family of containment-chain worst cases of
// the agreement proof's counting argument, one per round-1 crash budget:
// pattern c1 = 0..t crashes c1 processes in round 1 with increasing send
// prefixes, then one more per round until t crashes are spent.
func StaggeredCrashFamily(n, t, maxRounds int) FailureFamily {
	return adversary.StaggerFamily(n, t, maxRounds)
}

// RandomCrashFamily is a family of count seeded random patterns with at
// most t crashes within maxRounds rounds: uniformly random crash subjects,
// rounds and send prefixes. Pattern i is drawn from its own source seeded
// with seed+i, so the family is deterministic and random-access.
func RandomCrashFamily(seed int64, n, t, maxRounds, count int) FailureFamily {
	return adversary.RandomFamily(seed, n, t, maxRounds, count)
}
