//go:build race

package nn

// raceEnabled lets allocation-counting tests skip under the race detector,
// whose instrumentation allocates on its own.
const raceEnabled = true
