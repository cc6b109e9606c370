//go:build !race

package plan_test

// raceEnabled reports a -race build, whose instrumentation (sync.Pool
// drops a share of what is put back) changes what a query allocates.
const raceEnabled = false
