package engine

// The engine's single wall-clock capture point.
//
// Instrumentation is deliberately central: rather than sprinkling
// timestamps through the per-kind passes, the engine measures at the one
// place every pruned execution funnels through — execPasses (pass.go),
// where shardExec.run times every pass, failover redos included, as a
// shard span, and the completion that follows the last of them as the
// merge span. A nil trace keeps all of it disabled at the cost of one
// pointer check.

import "time"

// Stopwatch is the engine's one wall-clock source. Every execution
// path — direct and pruned at any width — captures its wall time
// through StartClock/Elapsed so the numbers are comparable across paths
// and cover a whole call including internal failover redos, never a
// single attempt.
type Stopwatch struct{ t0 time.Time }

// StartClock starts a monotonic stopwatch.
func StartClock() Stopwatch { return Stopwatch{t0: time.Now()} }

// Elapsed is the monotonic wall time since StartClock.
func (s Stopwatch) Elapsed() time.Duration { return time.Since(s.t0) }
