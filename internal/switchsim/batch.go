package switchsim

import "sync"

// This file adds the batched dataplane interface. The per-entry Process
// call models one packet crossing the pipeline; a Batch carries a block
// of entries in column-major order, so a dataplane hands a whole chunk
// across one call (a lease's flow lookup, a rack's send) instead of one
// per entry. A program states its verdict once, in Process: ProcessBatchOf
// is the one chunk driver, gathering each entry and calling Process in
// arrival order, so the per-entry semantics are exactly those of repeated
// Process calls by construction. The engine's fast path is not here but in
// its fused loops, which drive the shipped pruners' state directly.

// Batch is a column-major block of entries flowing through the pipeline.
// Cols[i][j] holds value i of entry j — the same values, in the same
// order, that Process would receive as vals[i] for each entry. All
// columns have length ≥ N; entries 0..N-1 are valid. A column may carry
// what the program never reads — SKYLINE's last column is each entry's
// row id, the late-materialization handle riding through its swaps —
// and programs simply never index it.
//
// An Emitter may overwrite a forwarded entry's column values in place:
// the batch models the packets *after* the pipeline, so a rewritten slot
// holds what the forwarded packet carries toward the master.
type Batch struct {
	Cols [][]uint64
	N    int
}

// Emitter is implemented by programs that rewrite packets in flight: the
// entry that arrived is absorbed into switch state and the packet leaves
// carrying different values (an evicted aggregate, as in §6's in-switch
// SUM). ProcessBatchOf calls ProcessEmit instead of Process when a
// program has it.
type Emitter interface {
	// ProcessEmit handles one entry. When the returned decision is
	// Forward, out holds the values the forwarded packet carries (which
	// may differ from vals, and are never more). out is only valid until
	// the next call.
	ProcessEmit(vals []uint64) (d Decision, out []uint64)
}

// gatherPool recycles the per-entry gather slice; allocating it per call
// shows up at paper scale when a program streams millions of chunk-sized
// batches.
var gatherPool = sync.Pool{New: func() any {
	s := make([]uint64, 0, 16)
	return &s
}}

// ProcessBatchOf runs prog over the batch: each entry's values are
// gathered and handed to Process, in order, and its verdict written to
// decisions[j] (decisions has length ≥ N). For an Emitter it calls
// ProcessEmit instead and writes a forwarded entry's rewritten values back
// into the batch columns, so the batch holds the packets the master
// receives; a caller needing the original values reads them first.
func ProcessBatchOf(prog Program, b *Batch, decisions []Decision) {
	vp := gatherPool.Get().(*[]uint64)
	vals := *vp
	if cap(vals) < len(b.Cols) {
		vals = make([]uint64, len(b.Cols))
	}
	vals = vals[:len(b.Cols)]
	em, emits := prog.(Emitter)
	for j := 0; j < b.N; j++ {
		for i, c := range b.Cols {
			vals[i] = c[j]
		}
		if !emits {
			decisions[j] = prog.Process(vals)
			continue
		}
		d, out := em.ProcessEmit(vals)
		decisions[j] = d
		if d == Forward {
			for i, v := range out {
				b.Cols[i][j] = v
			}
		}
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
