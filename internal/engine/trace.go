package engine

// Trace plumbing and the engine's single wall-clock capture point.
//
// Instrumentation is deliberately central: rather than sprinkling
// timestamps through the per-kind passes, the engine measures at the
// two places every execution funnels through — the single-switch driver
// (execSinglePass, which also times every batch crossing its dataplane)
// and shardExec.run (every sharded pass, including failover redos). A
// nil trace keeps all of it disabled at the cost of one pointer check.

import (
	"sync/atomic"
	"time"

	"cheetah/internal/obs"
	"cheetah/internal/switchsim"
)

// Stopwatch is the engine's one wall-clock source. Every execution
// path — direct, cheetah (scalar/batched/fused) and sharded — captures
// its wall time through StartClock/Elapsed so the numbers are
// comparable across paths and cover a whole call including internal
// failover redos, never a single attempt.
type Stopwatch struct{ t0 time.Time }

// StartClock starts a monotonic stopwatch.
func StartClock() Stopwatch { return Stopwatch{t0: time.Now()} }

// Elapsed is the monotonic wall time since StartClock.
func (s Stopwatch) Elapsed() time.Duration { return time.Since(s.t0) }

// traceAcc accumulates dataplane time for one execution: ProcessBatch
// wall time (the switch's share of the pass) and the offset of the
// last processed batch (the stream/merge boundary). Atomics, because
// batch collection may interleave with worker goroutines.
type traceAcc struct {
	base    time.Time
	pruneNs atomic.Int64
	lastEnd atomic.Int64 // ns offset of the last ProcessBatch return
}

// traceDataplane wraps a single-switch execution's dataplane and
// accumulates its processing time.
type traceDataplane struct {
	inner BatchDataplane
	acc   *traceAcc
}

// FusedProgram forwards the fused-capability probe (pass.fuse), so that
// tracing never changes which loops a pass takes; a dataplane without the
// probe grants no program.
func (d traceDataplane) FusedProgram() switchsim.Program {
	if fp, ok := d.inner.(interface{ FusedProgram() switchsim.Program }); ok {
		return fp.FusedProgram()
	}
	return nil
}

func (d traceDataplane) ProcessBatch(b *switchsim.Batch, decisions []switchsim.Decision) {
	t0 := time.Now()
	d.inner.ProcessBatch(b, decisions)
	now := time.Now()
	d.acc.pruneNs.Add(now.Sub(t0).Nanoseconds())
	d.acc.lastEnd.Store(now.Sub(d.acc.base).Nanoseconds())
}

// addSpans records the stage spans of one chunked single-switch
// execution that started at trace offset base, all derived from the
// accumulator: the stream phase splits into encode (worker-side encode +
// collection minus dataplane time) and prune (accumulated ProcessBatch
// time); everything after the last batch is the master's merge.
func (acc *traceAcc) addSpans(tr *obs.Trace, base time.Duration, run *CheetahRun) {
	total := tr.Elapsed() - base
	pruneNs := time.Duration(acc.pruneNs.Load())
	streamEnd := time.Duration(acc.lastEnd.Load())
	if streamEnd > total {
		streamEnd = total
	}
	encode := streamEnd - pruneNs
	if encode < 0 {
		encode = 0
	}
	tr.Add(obs.Span{Stage: obs.StageEncode, Switch: 0, Start: base, Dur: encode,
		Entries: int64(run.Traffic.EntriesSent)})
	tr.Add(obs.Span{Stage: obs.StagePrune, Switch: 0, Start: base + encode, Dur: pruneNs,
		Entries: int64(run.Traffic.EntriesSent), Forwarded: int64(run.Traffic.Forwarded),
		Note: run.PrunerName})
	tr.Add(obs.Span{Stage: obs.StageMerge, Switch: 0, Start: base + streamEnd, Dur: total - streamEnd,
		Entries: int64(run.Traffic.MasterProcessed)})
}
