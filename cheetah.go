// Package cheetah is the public API of the Cheetah reproduction: switch
// pruning for database queries (Tirmazi, Ben Basat, Gao, Yu — SIGCOMM
// 2019).
//
// The front door is the session API: Open a table, build a query with
// the fluent builder, and Exec it — the planner picks the pruning
// algorithm, derives its §5 parameters, admission-checks the program
// against the switch model, and routes execution (falling back to exact
// direct execution, with an explanation, when the switch cannot host the
// query):
//
//	db, _ := cheetah.Open(visits, cheetah.SessionOptions{Workers: 5})
//	ex, _ := db.Select().TopN("adRevenue", 250).Exec(ctx)
//	fmt.Println(ex.Explain())
//
// Underneath, the package re-exports the composable substrate for
// callers that need manual control:
//
//   - Queries and tables: declarative query specs over columnar tables.
//   - Execution: ExecDirect (exact single-node ground truth), ExecCheetah
//     (workers → switch pruner → master completion) and ExecSharded (the
//     same across a fabric of switches); SessionOptions.UseCluster routes
//     a session over a simulated lossy network with the §7.2 reliability
//     protocol.
//   - Pruners: every §4/§5 algorithm, constructible with paper or custom
//     parameters, each declaring its Table 2 resource profile.
//   - The switch model: PISA resource admission and multi-query packing.
//   - Storage-side data skipping: block zone maps + Bloom metadata that
//     eliminate whole blocks before they are read, composing with the
//     switch's in-flight pruning (see SkipStats).
//
// See examples/quickstart for a five-minute tour and DESIGN.md for the
// system inventory.
package cheetah

import (
	"cheetah/internal/cache"
	"cheetah/internal/cluster"
	"cheetah/internal/connector"
	"cheetah/internal/engine"
	"cheetah/internal/fabric"
	"cheetah/internal/netserve"
	"cheetah/internal/plan"
	"cheetah/internal/prune"
	"cheetah/internal/serve"
	"cheetah/internal/stream"
	"cheetah/internal/switchsim"
	"cheetah/internal/table"
	"cheetah/internal/wire"
)

// The session API: planner-backed query execution.
type (
	// DB is an open session over one table: fluent query building,
	// automatic pruner planning, and one Exec entrypoint.
	DB = plan.Session
	// SessionOptions configures a session (switch model, workers, δ,
	// cluster transport, cost model).
	SessionOptions = plan.Options
	// QueryBuilder is the fluent, validating query builder returned by
	// DB.Select.
	QueryBuilder = plan.Builder
	// Plan is the planner's decision: mode, pruner, profile, reason.
	Plan = plan.Plan
	// PlanMode discriminates direct / cheetah / cluster execution.
	PlanMode = plan.Mode
	// Execution is the unified execution report (result + traffic +
	// plan + cost estimates) with an Explain rendering.
	Execution = plan.Execution
)

// Plan modes.
const (
	// ModeDirect is exact single-node execution (the planner's fallback).
	ModeDirect = plan.ModeDirect
	// ModeCheetah is the in-process batched pruned path.
	ModeCheetah = plan.ModeCheetah
	// ModeCluster is the pruned path over the simulated lossy network.
	ModeCluster = plan.ModeCluster
)

// Open opens a planning session over t. It is the recommended entrypoint
// for running queries; the free functions below remain for manual
// control of pruner construction and execution paths.
func Open(t *Table, opts SessionOptions) (*DB, error) { return plan.Open(t, opts) }

// The concurrent serving layer (§5's multi-query switch sharing) and
// the multi-switch fabric: with SessionOptions.Switches > 1, Exec
// shards each query across N pipelines (scatter/gather with an exact
// two-level merge — see Execution.PerSwitch) and Serve places whole
// concurrent queries on the least-loaded switch.
type (
	// Serving is a live multi-query serving handle over the session's
	// switch fabric, opened with DB.Serve. Any number of goroutines may
	// call Submit concurrently; each query is placed on the least-loaded
	// switch, admitted into its shared pipeline under its own QueryID,
	// waits FIFO when every switch is full, and falls back to exact
	// direct execution when it can never fit (or the queue limit sheds
	// it).
	Serving = plan.Serving
	// SwitchReport is one fabric switch's share of a scatter/gather
	// execution (per-shard traffic + pipeline occupancy).
	SwitchReport = plan.SwitchReport
	// ServeOptions configures a serving handle (queue limit).
	ServeOptions = plan.ServeOptions
	// ServeCounters are the serving layer's cumulative admission
	// statistics (admitted, waited, oversized, shed, revoked, failed-
	// over, re-placed, deadline-missed, active, queued).
	ServeCounters = serve.Counters
	// QoS carries one submission's quality-of-service terms: tenant
	// identity (per-tenant quotas), admission priority, and an optional
	// queueing deadline past which the query is shed. Zero value =
	// best-effort. Pass to Serving.SubmitQoS.
	QoS = serve.QoS
	// Fabric is a serving or streaming handle's switch fleet, reached
	// via Serving.Fabric / Streaming.Fabric: failure lifecycle
	// (Fail/Restore/Add), per-switch servers, counters, and occupancy.
	Fabric = fabric.Fabric
	// Utilization summarizes switch pipeline occupancy (also surfaced
	// per query in Execution.PipelineUtil).
	Utilization = switchsim.Utilization
)

// The streaming subsystem: tables as append-able sources, queries as
// continuous subscriptions executed incrementally over live appends.
// Open a handle with DB.Stream, append rows through it, and Subscribe
// planner-built queries — each delta batch runs through the batched
// engine (scattered across the fabric when Switches > 1) and merges
// into a standing result that always equals a from-scratch run over
// the full committed prefix. SubscribeWindow adds tumbling and sliding
// row-count windows for the aggregate kinds.
type (
	// Streaming is a live streaming handle over the session's table,
	// opened with DB.Stream: an append log plus a switch fabric hosting
	// the standing programs of its continuous queries.
	Streaming = plan.Streaming
	// StreamOptions configures a streaming handle (backlog bound,
	// block-vs-shed backpressure, placement queue limit).
	StreamOptions = plan.StreamOptions
	// StreamSubscription is one registered continuous query: poll
	// Results or receive Updates; Close releases its standing program.
	StreamSubscription = plan.Subscription
	// StreamUpdate is one subscription progress notification.
	StreamUpdate = stream.Update
	// IngestStats are the append log's point-in-time gauges.
	IngestStats = stream.Stats
)

// Streaming backpressure errors.
var (
	// ErrStreamBacklog marks an append shed by the backlog bound.
	ErrStreamBacklog = stream.ErrBacklog
	// ErrStreamClosed marks operations on a closed streaming handle.
	ErrStreamClosed = stream.ErrClosed
)

// The network front door: a TCP server speaking the internal/wire
// frame protocol that multiplexes many remote clients onto one shared
// fabric (cmd/cheetahd is the standalone daemon), and the client that
// dials it. Queries answered over the wire are bit-identical to
// in-process ExecDirect; SIGTERM-style drains hand every outstanding
// client a result, a retryable error, or a Goodbye. See
// examples/server for the in-process tour.
type (
	// Server serves a fabric over TCP; open with ServeNet/ListenNet,
	// stop with Shutdown (graceful drain) or Close.
	Server = netserve.Server
	// ServerOptions configures the served catalog (tables, streamed
	// primary) and the fabric behind it.
	ServerOptions = netserve.Options
	// NetClient is a wire-protocol client connection: one-shot queries,
	// appends, pings, and credit-windowed subscriptions.
	NetClient = netserve.Client
	// NetQueryOptions carries one remote query's QoS terms.
	NetQueryOptions = netserve.QueryOptions
	// NetSubscribeOptions configures a remote subscription (window,
	// slide, initial credits).
	NetSubscribeOptions = netserve.SubscribeOptions
	// NetSub is a remote standing subscription: coalesced Updates plus
	// a Credit window.
	NetSub = netserve.ClientSub
	// ServerError is a server-reported wire error; Retryable reports
	// whether reissuing (elsewhere, or after the drain) can succeed.
	ServerError = netserve.ServerError
	// WireSpec is a table-name-detached query for the wire protocol;
	// the server binds it against its served catalog. Build one from an
	// engine query with WireSpecOf.
	WireSpec = wire.QuerySpec
	// WireUpdate is one subscription refresh as NetSub.Updates delivers
	// it: the whole standing result, rebuilt from the server's change
	// set, plus its committed stream version.
	WireUpdate = wire.UpdateMsg
	// WireResult is one query answer over the wire: rows plus the
	// server-side wall clock and compact stage-trace summary
	// (NetClient.Query returns it; render the summary with
	// FormatNetTrace).
	WireResult = wire.ResultMsg
)

// WireSpecOf derives a wire query spec from a locally-built query, with
// the served names standing in for its table pointers.
var WireSpecOf = wire.SpecOf

// FormatNetTrace renders a wire result's server-side stage summary —
// one line per lifecycle stage with duration and entry counts. Empty
// when the server disabled tracing.
var FormatNetTrace = netserve.FormatTrace

// ListenNet starts a wire-protocol server on addr ("host:0" picks a
// free port).
func ListenNet(addr string, opts ServerOptions) (*Server, error) {
	return netserve.Listen(addr, opts)
}

// DialNet connects to a wire-protocol server as the given tenant.
func DialNet(addr, tenant string) (*NetClient, error) {
	return netserve.Dial(addr, tenant)
}

// Connectors: pluggable Source→Ingestor feeds and Subscription→Sink
// fan-outs, wired by spec strings ("gen:rows=100000,batch=256",
// "log:path=-") through a registry — how cheetahd builds streaming
// topology from flags.
type (
	// ConnectorSource produces row batches for a streaming feed.
	ConnectorSource = connector.Source
	// ConnectorSink consumes standing-result refreshes from a pipe.
	ConnectorSink = connector.Sink
	// ConnectorRegistry maps spec names to source/sink builders.
	ConnectorRegistry = connector.Registry
	// ConnectorRuntime owns running feeds and pipes over one Streaming
	// handle; Close stops them all.
	ConnectorRuntime = connector.Runtime
)

// DefaultConnectors returns the built-in connector registry (gen and
// csv sources; log and null sinks).
func DefaultConnectors() *connector.Registry { return connector.DefaultRegistry() }

// NewConnectorRuntime creates a connector runtime over a streaming
// handle.
func NewConnectorRuntime(st *Streaming) (*ConnectorRuntime, error) {
	return connector.NewRuntime(st)
}

// Tables and schemas.
type (
	// Table is a columnar in-memory table.
	Table = table.Table
	// Schema describes a table's columns.
	Schema = table.Schema
	// ColumnDef is one schema column.
	ColumnDef = table.ColumnDef
)

// Column types.
const (
	Int64  = table.Int64
	String = table.String
)

// NewTable creates an empty table with the given schema.
func NewTable(s Schema) (*Table, error) { return table.New(s) }

// Storage-side data skipping belongs to the table: its block skip index
// (per-column zone maps + Bloom filters over fixed-size row blocks) lets
// WHERE/TOP N/JOIN plans skip blocks the metadata proves irrelevant
// before any row is read or encoded — bit-identical results, reported via
// Execution.SkipStats and the Explain output. Open keeps the index a
// table carries and builds one of 4 096-row blocks on a table without; a
// caller who wants another block size calls Table.BuildSkipIndex first
// (for a JOIN's right table too).
type (
	// SkipIndex is a table's block skip metadata, built with
	// Table.BuildSkipIndex and extended by Table.RefreshSkipIndex.
	SkipIndex = table.SkipIndex
	// SkipStats counts blocks proven irrelevant (and their rows) during
	// one execution; embedded in Execution and cumulative per streaming
	// subscription via StreamSubscription.Skipped.
	SkipStats = engine.SkipStats
)

// Queries and execution.
type (
	// Query is a declarative query spec.
	Query = engine.Query
	// QueryKind discriminates query shapes.
	QueryKind = engine.QueryKind
	// FilterPred is a WHERE predicate.
	FilterPred = engine.FilterPred
	// Result is a canonical, sorted query result.
	Result = engine.Result
	// CheetahOptions configures the pruned execution path.
	CheetahOptions = engine.CheetahOptions
	// ShardedOptions configures the multi-switch scatter/gather path.
	ShardedOptions = engine.ShardedOptions
	// ShardedRun reports a pruned execution (aggregate plus per-switch
	// traffic): ExecSharded's, and ExecCheetah's at one switch.
	ShardedRun = engine.ShardedRun
	// CostModel converts traffic into completion-time estimates.
	CostModel = engine.CostModel
)

// CmpOp is a comparison operator usable in WHERE predicates (and the
// builder's Where clause).
type CmpOp = prune.CmpOp

// Comparison operators.
const (
	OpGT = prune.OpGT
	OpGE = prune.OpGE
	OpLT = prune.OpLT
	OpLE = prune.OpLE
	OpEQ = prune.OpEQ
	OpNE = prune.OpNE
)

// Query kinds.
const (
	KindFilter     = engine.KindFilter
	KindDistinct   = engine.KindDistinct
	KindTopN       = engine.KindTopN
	KindGroupByMax = engine.KindGroupByMax
	KindGroupBySum = engine.KindGroupBySum
	KindHaving     = engine.KindHaving
	KindJoin       = engine.KindJoin
	KindSkyline    = engine.KindSkyline
)

// ExecDirect runs a query exactly on one node: the ground truth every
// other execution mode must reproduce, and what to compare a session's
// (Open + DB.Exec) answers against.
func ExecDirect(q *Query) (*Result, error) { return engine.ExecDirect(q) }

// ExecCheetah runs a query along the pruned path: CWorkers serialize the
// relevant columns, the simulated switch prunes, the master completes.
//
// Deprecated: prefer the session API (Open + DB.Exec); use ExecCheetah
// directly only to pin a hand-constructed pruner or the legacy scalar
// path.
func ExecCheetah(q *Query, opts CheetahOptions) (*ShardedRun, error) {
	return engine.ExecCheetah(q, opts)
}

// ExecSharded runs a query across a fabric of N switches: the table is
// sharded (hash-on-key for joins, so matching keys co-locate), each
// shard streams through its own switch program concurrently, and the
// master's two-level merge reproduces ExecDirect exactly. Prefer the
// session API (Open with SessionOptions.Switches + DB.Exec), which
// additionally sizes one program per switch; call ExecSharded directly
// to pin per-switch pruners, flows, or a shard strategy.
func ExecSharded(q *Query, opts ShardedOptions) (*ShardedRun, error) {
	return engine.ExecSharded(q, opts)
}

// DefaultCostModel returns the calibrated completion-time model.
func DefaultCostModel() CostModel { return engine.DefaultCostModel() }

// ClusterReport summarizes the §7.2 reliability protocol's behaviour on
// a run over the simulated lossy network (SessionOptions.UseCluster):
// Execution.ClusterReport.
type ClusterReport = cluster.Report

// Pruners.
type (
	// Pruner is a switch pruning program with statistics.
	Pruner = prune.Pruner
	// PruneStats counts a pruner's traffic.
	PruneStats = prune.Stats

	// DistinctConfig configures the DISTINCT pruner.
	DistinctConfig = prune.DistinctConfig
	// DetTopNConfig configures the deterministic TOP N pruner.
	DetTopNConfig = prune.DetTopNConfig
	// RandTopNConfig configures the randomized TOP N pruner.
	RandTopNConfig = prune.RandTopNConfig
	// GroupByConfig configures the max/min GROUP BY pruner.
	GroupByConfig = prune.GroupByConfig
	// GroupBySumConfig configures the in-switch SUM aggregation pruner.
	GroupBySumConfig = prune.GroupBySumConfig
	// JoinConfig configures the two-pass Bloom-filter JOIN pruner.
	JoinConfig = prune.JoinConfig
	// HavingConfig configures the Count-Min HAVING pruner.
	HavingConfig = prune.HavingConfig
	// SkylineConfig configures the SKYLINE pruner.
	SkylineConfig = prune.SkylineConfig
)

// Cache replacement policies for DISTINCT.
const (
	FIFO = cache.FIFO
	LRU  = cache.LRU
)

// Skyline heuristics.
const (
	SkylineSum      = prune.SkylineSum
	SkylineAPH      = prune.SkylineAPH
	SkylineBaseline = prune.SkylineBaseline
)

// Pruner constructors.
var (
	NewDistinct   = prune.NewDistinct
	NewDetTopN    = prune.NewDetTopN
	NewRandTopN   = prune.NewRandTopN
	NewGroupBy    = prune.NewGroupBy
	NewGroupBySum = prune.NewGroupBySum
	NewJoin       = prune.NewJoin
	NewHaving     = prune.NewHaving
	NewSkyline    = prune.NewSkyline
)

// Configuration formulas from §5.
var (
	// TopNColumnsFor computes Theorem 2's matrix-column count.
	TopNColumnsFor = prune.TopNColumnsFor
	// OptimalTopNRows jointly optimizes the TOP N matrix dimensions.
	OptimalTopNRows = prune.OptimalTopNRows
)

// Switch hardware models.
type (
	// SwitchModel describes PISA hardware resources.
	SwitchModel = switchsim.Model
	// SwitchPipeline packs pruning programs onto a model.
	SwitchPipeline = switchsim.Pipeline
	// ResourceProfile is one algorithm's Table 2 row.
	ResourceProfile = switchsim.Profile
)

// Tofino returns the default 12-stage switch model.
func Tofino() SwitchModel { return switchsim.Tofino() }

// Tofino2 returns the larger 20-stage model.
func Tofino2() SwitchModel { return switchsim.Tofino2() }

// NewPipeline creates an empty pipeline for a model.
func NewPipeline(m SwitchModel) (*SwitchPipeline, error) { return switchsim.NewPipeline(m) }
