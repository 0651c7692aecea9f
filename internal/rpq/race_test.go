//go:build race

package rpq_test

func init() { raceEnabled = true }
