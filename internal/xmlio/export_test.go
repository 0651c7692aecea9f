package xmlio

// The reflective run schema the decoder falls back to, for the oracle
// tests in package xmlio_test.
type (
	XMLRun     = xmlRun
	XMLVertex  = xmlVertex
	XMLRunEdge = xmlRunEdge
)
