package switchsim

import "sync"

// This file adds the batched dataplane interface. The per-entry Process
// call models one packet crossing the pipeline; simulating at that
// granularity costs an interface dispatch, a slice header and a stats
// update per entry, which dominates runtime at paper-scale streams. A
// Batch carries a block of entries in column-major order so programs can
// run tight per-column loops with configuration and statistics hoisted
// out of the inner loop, while the per-entry *semantics* (state updates
// in arrival order) stay exactly those of repeated Process calls.

// Batch is a column-major block of entries flowing through the pipeline.
// Cols[i][j] holds value i of entry j — the same values, in the same
// order, that Process would receive as vals[i] for each entry. All
// columns have length ≥ N; entries 0..N-1 are valid. A column may carry
// what the program never reads — SKYLINE's last column is each entry's
// row id, the late-materialization handle riding through its swaps —
// and programs simply never index it.
//
// Programs with in-flight packet rewriting (switchsim's Emitter-style
// aggregation) may overwrite a forwarded entry's column values in place:
// the batch models the packets *after* the pipeline, so a rewritten slot
// holds what the forwarded packet carries toward the master.
type Batch struct {
	Cols [][]uint64
	N    int
}

// BatchProgram is the fast-path extension of Program: ProcessBatch must
// make exactly the same per-entry decisions, state transitions and
// statistics updates as calling Process on entries 0..N-1 in order,
// writing each verdict to decisions[j]. decisions has length ≥ N.
type BatchProgram interface {
	Program
	ProcessBatch(b *Batch, decisions []Decision)
}

// gatherPool recycles the scalar fallback's per-entry gather slice;
// allocating it per call shows up at paper scale when a third-party
// Program streams millions of chunk-sized batches.
var gatherPool = sync.Pool{New: func() any {
	s := make([]uint64, 0, 16)
	return &s
}}

// ProcessBatchOf runs prog over the batch, using the native batch loop
// when prog implements BatchProgram and falling back to a per-entry
// gather + Process loop otherwise, so third-party Programs keep working
// unchanged behind the batched engine.
func ProcessBatchOf(prog Program, b *Batch, decisions []Decision) {
	if bp, ok := prog.(BatchProgram); ok {
		bp.ProcessBatch(b, decisions)
		return
	}
	vp := gatherPool.Get().(*[]uint64)
	vals := *vp
	if cap(vals) < len(b.Cols) {
		vals = make([]uint64, len(b.Cols))
	}
	vals = vals[:len(b.Cols)]
	for j := 0; j < b.N; j++ {
		for i, c := range b.Cols {
			vals[i] = c[j]
		}
		decisions[j] = prog.Process(vals)
	}
	*vp = vals
	gatherPool.Put(vp)
}

// ProcessBatch runs the program bound to flowID over a batch of entries.
// Unknown flows forward everything untouched, mirroring Process, and so
// does a failed pipeline — a dead switch prunes nothing, which is what
// keeps the §7.2 backstop exact. Only the flow lookup is under the read
// lock — holding it across a whole batch would convoy every flow's
// traffic behind any pending Install (Go's write-preferring RWMutex
// blocks new readers then), serializing exactly the concurrency §5
// promises. The caller owns its flow's lifecycle: a flow is only
// uninstalled after its own batches are done, so the program cannot be
// torn down mid-batch.
//
// When a FaultInjector is armed, it is consulted once per batch with
// the pipeline-wide batch ordinal before the batch executes, so a test
// can kill the switch between any two batches.
func (pl *Pipeline) ProcessBatch(flowID uint32, b *Batch, decisions []Decision) {
	pl.mu.RLock()
	failed := pl.failed
	inj := pl.injector
	prog := pl.programOf(flowID)
	pl.mu.RUnlock()
	if !failed && inj != nil {
		n := pl.batchSeq.Add(1)
		if inj(flowID, int(n-1)) {
			pl.killFromFlow(flowID)
			failed = true
		}
	}
	if failed || prog == nil {
		for j := 0; j < b.N; j++ {
			decisions[j] = Forward
		}
		return
	}
	ProcessBatchOf(prog, b, decisions)
}

// FusedProgram returns the live program installed for flowID when a
// caller may drive it directly — the engine's fused loops bypass the
// per-batch mux entirely, so the pipeline must be healthy, the flow
// installed, and no fault injector armed (injected deaths fire between
// batches through ProcessBatch's ordinal; a bypassing caller would
// never observe them, so chaos runs keep the batched path). A nil
// return means the caller must route through ProcessBatch. The
// ownership discipline is unchanged: the flow's owner is the only
// goroutine touching its program state, and a concurrent Fail only
// flips the pipeline flag — the post-pass health check (Lease.Err)
// still reports the death.
func (pl *Pipeline) FusedProgram(flowID uint32) Program {
	pl.mu.RLock()
	defer pl.mu.RUnlock()
	if pl.failed || pl.injector != nil {
		return nil
	}
	return pl.programOf(flowID)
}
