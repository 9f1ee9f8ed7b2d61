//go:build race

package mlaas

// raceEnabled lets allocation-counting tests skip under the race detector,
// whose instrumentation allocates on its own and whose sync.Pool drops a
// quarter of what is put back.
const raceEnabled = true
