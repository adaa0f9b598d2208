package adversary

import (
	"math/rand"
	"sync"

	"kset/internal/rounds"
)

// Family is a finite, deterministic, indexed family of failure patterns —
// the adversary-side counterpart of a scenario stream. A family is defined
// by its size and a pure index → pattern function, so enumeration is
// random-access and resumable: Pattern(i) always returns the same pattern
// for the same family, which is what keeps generator-fed campaigns
// reproducible run to run.
type Family struct {
	name string
	size int
	gen  func(i int) rounds.FailurePattern
}

// newFamily builds a family from a name, a size and a pure index → pattern
// function. gen must be deterministic; it is called with indices 0..size-1.
func newFamily(name string, size int, gen func(i int) rounds.FailurePattern) Family {
	if size < 0 {
		size = 0
	}
	return Family{name: name, size: size, gen: gen}
}

// Name returns the family's label, used in scenario and sweep keys.
func (f Family) Name() string { return f.name }

// Size returns the number of patterns in the family.
func (f Family) Size() int { return f.size }

// Pattern returns the i-th pattern. It panics when i is out of range.
func (f Family) Pattern(i int) rounds.FailurePattern {
	if i < 0 || i >= f.size {
		panic("adversary: family index out of range")
	}
	return f.gen(i)
}

// ForEach calls fn on every pattern of the family in index order, stopping
// early when fn returns false.
func (f Family) ForEach(fn func(i int, fp rounds.FailurePattern) bool) {
	for i := 0; i < f.size; i++ {
		if !fn(i, f.gen(i)) {
			return
		}
	}
}

// Patterns builds every pattern of the family, in index order.
func (f Family) Patterns() []rounds.FailurePattern {
	fps := make([]rounds.FailurePattern, f.size)
	for i := range fps {
		fps[i] = f.gen(i)
	}
	return fps
}

// InitialFamily is the family {InitialLast(n, f) : f = 0..maxCrashes} —
// the f-sweep of the early-decision experiments: pattern i crashes the
// last i processes before they send anything.
func InitialFamily(n, maxCrashes int) Family {
	if maxCrashes > n {
		maxCrashes = n
	}
	return newFamily("initial", maxCrashes+1, func(i int) rounds.FailurePattern {
		return InitialLast(n, i)
	})
}

// StaggerFamily is the family of containment-chain worst-case adversaries
// {Stagger(n, t, c1, 1, maxRounds) : c1 = 0..t}: pattern i spends i of the
// t crashes on round-1 staggered prefixes and the rest one per round.
func StaggerFamily(n, t, maxRounds int) Family {
	return newFamily("stagger", t+1, func(i int) rounds.FailurePattern {
		return Stagger(n, t, i, 1, maxRounds)
	})
}

// RandomFamily is a family of count seeded random patterns (at most t
// crashes within maxRounds rounds each). Pattern i is drawn from the stream
// rand.New(rand.NewSource(seed+i)) yields, so the family is random-access
// deterministic: the same (seed, n, t, maxRounds, count) always yields the
// same patterns. Every pattern is drawn from the package's one generator,
// reseeded with seed+i: Seed resets its source and read position, so the
// stream is that same one, without a fresh ~5 kB source per pattern.
func RandomFamily(seed int64, n, t, maxRounds, count int) Family {
	return newFamily("random", count, func(i int) rounds.FailurePattern {
		gen.Lock()
		defer gen.Unlock()
		gen.r.Seed(seed + int64(i))
		return Random(gen.r, n, t, maxRounds)
	})
}

// gen is the generator RandomFamily draws from. A family cannot hold one
// of its own, as Pattern is a value method that callers may use from
// several goroutines; they take turns on the lock instead. (A sync.Pool
// would register with the runtime anew after every collection, an
// allocation that then lands in whatever the caller does next.)
var gen = struct {
	sync.Mutex
	r *rand.Rand
}{r: rand.New(rand.NewSource(0))}
