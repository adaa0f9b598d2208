//go:build !race

package kset_test

// raceEnabled reports a race-detector build, whose sync.Pool drops a
// random quarter of the values put back.
const raceEnabled = false
