//go:build race

package xmlio_test

func init() { raceEnabled = true }
