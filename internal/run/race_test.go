//go:build race

package run_test

func init() { raceEnabled = true }
