//go:build race

package scenario_test

// raceEnabled reports whether the race detector is on.
const raceEnabled = true
