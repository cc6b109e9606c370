package engine

// Exported for the external test package (engine_test), which imports plan
// and so cannot be package engine.
var (
	DefaultShardPruner = defaultShardPruner
	EquivTable         = equivTable
	EquivQueries       = equivQueries
)
