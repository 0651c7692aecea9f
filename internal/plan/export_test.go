package plan

import (
	"repro/internal/dag"
	"repro/internal/spec"
)

// ConstructOracle is the pre-arena plan constructor (oracle_test.go),
// exported to the external tests that compare Construct against it.
var ConstructOracle = constructOracle

// Scratch is one constructor's scratch, held by a test across calls.
type Scratch struct{ c constructor }

// ConstructWith is Construct on sc's scratch instead of a pooled one,
// so a test decides which calls share it.
func ConstructWith(sc *Scratch, s *spec.Spec, g *dag.Graph, origin []dag.VertexID) (*Plan, error) {
	return sc.c.construct(s, g, origin)
}
