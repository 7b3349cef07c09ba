//go:build !race

package deepum

// raceEnabled reports a race-detector build, whose instrumentation
// allocates on its own account.
const raceEnabled = false
