//go:build race

package repro_test

// The race detector makes sync.Pool drop items at random, so tests that
// count the allocations of pooled paths skip under -race.
func init() { raceEnabled = true }
