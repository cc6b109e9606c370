package engine

import (
	"cheetah/internal/obs"
	"cheetah/internal/prune"
	"cheetah/internal/switchsim"
)

// CheetahOptions configures the pruned execution path.
type CheetahOptions struct {
	// Workers is the number of CWorkers (data partitions). Paper testbed:
	// 5 for Big Data, 1 for TPC-H.
	Workers int
	// Pruner overrides the kind table's default program (DefaultPruner).
	// For KindJoin it must be a *prune.Join; for KindSkyline a
	// *prune.Skyline; etc.
	Pruner prune.Pruner
	// Seed drives fingerprinting and any randomized pruner defaults.
	Seed uint64
	// Skip enables storage-side block skipping (skip.go) for kinds with
	// a sound block bound (FILTER, TOP N, JOIN) when the table carries a
	// skip index (table.BuildSkipIndex). Results stay bit-identical to
	// ExecDirect; skipped blocks are never encoded, so Traffic shrinks.
	Skip bool
	// NoFuse opts out of the fused execution loops (fuse.go) and keeps
	// the chunked batch pipeline. The fused loops are the default when the
	// query's pruner is a shipped type they know (pass.fuse); Results are
	// always bit-identical to ExecDirect either way. Traffic and Stats
	// are also identical for every kind except randomized TOP N, whose
	// fused RNG draws from a counter-indexed stream (prune decisions may
	// differ; final Results do not).
	NoFuse bool
	// Trace, when non-nil, collects the run's spans — one shard span for
	// the pass, noted fused or chunked, and one merge span for the
	// master's completion, like every pruned run (ShardedOptions.Trace) —
	// into the query's lifecycle trace. Tracing observes only: it never
	// changes results, traffic or stats.
	Trace *obs.Trace
}

// BatchDataplane processes one batch of entries for an already-admitted
// query flow. fabric.Lease implements it by routing through the shared
// pipeline's per-flow program table (ShardedOptions.Flows), cluster.Rack
// by sending the entries over a lossy network through the §7.2 protocol;
// the engine's default implementation simply runs the execution's own
// pruner.
type BatchDataplane interface {
	ProcessBatch(b *switchsim.Batch, decisions []switchsim.Decision)
}

// HealthDataplane is the optional failure-aware extension of
// BatchDataplane: Err reports nil while the switch still holds the
// program and the revocation error once it died. A dead switch's
// dataplane stays safe to call — it forwards everything — but any pass
// that crossed the death may have lost program state the completion
// depends on (§7.2), so executions check Err after each pass and redo
// the work through a replacement. fabric.Lease and cluster.Rack implement
// it.
type HealthDataplane interface {
	BatchDataplane
	Err() error
}

// progDataplane is the exclusive-ownership default: batches run straight
// on the query's program.
type progDataplane struct{ prog switchsim.Program }

func (d progDataplane) ProcessBatch(b *switchsim.Batch, decisions []switchsim.Decision) {
	switchsim.ProcessBatchOf(d.prog, b, decisions)
}

// FusedProgram implements the fused-capability probe (pass.fuse): on the
// exclusive path the execution owns the program outright, so direct
// access is always allowed.
func (d progDataplane) FusedProgram() switchsim.Program { return d.prog }

// Traffic counts the data movement of one Cheetah execution; the cost
// model converts it to time.
type Traffic struct {
	// EntriesSent counts worker→switch data packets across all passes.
	EntriesSent int
	// Forwarded counts switch→master survivors (including emitted
	// aggregates and control-plane drains).
	Forwarded int
	// SecondPassSent counts the partial second pass of HAVING (entries
	// re-streamed for candidate keys) — included in EntriesSent too.
	SecondPassSent int
	// MasterProcessed counts entries the master touched to complete the
	// query.
	MasterProcessed int
}

// ExecCheetah runs the query along the Cheetah path: partition the table
// across CWorkers, stream the relevant columns through the (simulated)
// switch pruner, and complete the query at the master on the survivors
// via late materialization (row ids travel in the packets). It is
// ExecSharded at one shard, and the run is its report.
func ExecCheetah(q *Query, opts CheetahOptions) (*ShardedRun, error) {
	so := ShardedOptions{Shards: 1, Workers: opts.Workers, Seed: opts.Seed,
		Skip: opts.Skip, NoFuse: opts.NoFuse, Trace: opts.Trace}
	if opts.Pruner != nil {
		so.Pruners = []prune.Pruner{opts.Pruner}
	}
	return ExecSharded(q, so)
}
