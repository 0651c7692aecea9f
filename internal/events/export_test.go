package events

// The pre-codec writer and parser (oracle_test.go), exported to the
// external tests that compare WriteLog and ReadLogLimits against them.
var (
	WriteLogOracle = writeLogOracle
	ReadLogOracle  = readLogOracle
)
