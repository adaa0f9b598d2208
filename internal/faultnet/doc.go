// Package faultnet is the fault-injecting message transport of the round
// engine: a deterministic, seeded rounds.Transport that drops, delays
// (by whole rounds), duplicates and reorders the message copies the
// engine hands over, according to a declarative Plan of per-link rates
// and explicitly scheduled faults.
//
// The paper's §6.2 adversary controls only crashes — who stops, when,
// and after how many sends. faultnet adds an orthogonal adversary class,
// faulty links, composable with any crash FailurePattern: the engine
// still applies the crash adversary to each round's sends, and the
// transport then decides what happens to each surviving copy. The
// paper's algorithms are not designed for lossy links, which is the
// point — campaigns measure how the round bounds, agreement and
// termination degrade as loss and delay rates grow, with non-decision
// within the bounded rounds surfacing as a counted outcome rather than
// a hang.
//
// Determinism: every random fault is drawn from an allocation-free
// splitmix64 stream rewound on each Reset to a per-run seed (Reseed),
// which batch drivers derive from the plan seed, the scenario seed and
// the input vector — so a campaign's faults are byte-reproducible at
// any worker count; the stream is pinned draw for draw by
// testdata/draws_v1.json. On-time copies go to an inner rounds.Transport
// (a matrix, or the wire plane's: see Transport); only delayed and
// duplicated copies ride a ring of maxDelay+1 arrival slots, frozen
// (rounds.Freezer) into copies the transport recycles from run to run. A
// plan that injects nothing needs no fault layer: kset's workers validate
// it and run on what is beneath, the wire transport or the engine's row.
package faultnet
