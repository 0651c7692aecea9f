package plan

// ConstructOracle is the pre-arena plan constructor (oracle_test.go),
// exported to the external tests that compare Construct against it.
var ConstructOracle = constructOracle
