//go:build race

package copack_test

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = true
