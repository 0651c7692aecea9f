package rpq

// OracleCheck holds the dense walk to the map-based walk it replaced;
// see oracleCheck.
var OracleCheck = oracleCheck
