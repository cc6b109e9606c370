package engine

// The pass of the four aggregation kinds (DISTINCT, GROUP BY MAX, GROUP
// BY SUM, HAVING): agg streams one table through one switch program into
// one partial (partial.go) — by the fused loops of fuse.go when the pass
// may drive the program directly, through the chunked pipeline otherwise.
// It is all the single-switch execution and every shard of the sharded
// one do before completeAgg (pass.go) merges and renders.

import (
	"fmt"

	"cheetah/internal/prune"
)

// aggProgram reports whether pruner is the shipped program of the
// aggregation kind, the one the fused loops know how to drive.
func aggProgram(kind QueryKind, pruner prune.Pruner) bool {
	switch pruner.(type) {
	case *prune.Distinct:
		return kind == KindDistinct
	case *prune.GroupBy:
		return kind == KindGroupByMax
	case *prune.GroupBySum:
		return kind == KindGroupBySum
	case *prune.Having:
		return kind == KindHaving
	}
	return false
}

// agg is the aggregation kinds' pass: it streams the pass's table through
// its program into p, emptied first (a failover redo starts here). Every
// survivor is absorbed, GROUP BY SUM's switch state is drained and its
// keys resolved, and HAVING's candidates are marked — its second pass
// (partial.sumCandidates) is the completion's, because the candidates of
// all passes are unioned first. A GROUP BY SUM program sums only the
// pass's rows: sums it held before the pass — a caller's program that ran
// before — are thrown away, so every sum resolves to a row of the table.
func (ps *pass) agg(p *partial) error {
	q, t, pruner, seed, workers := ps.q, ps.q.Table, ps.pruner, ps.seed, ps.workers
	p.reset()
	if gs, ok := pruner.(*prune.GroupBySum); ok {
		gs.DrainTo(func(uint64, int64) {})
	}
	vc := -1
	if q.Kind != KindDistinct {
		vc = t.Schema().MustIndex(q.AggCol)
	}
	var sent, fwd int
	if ps.fuse(aggProgram(q.Kind, pruner)) {
		switch pr := pruner.(type) {
		case *prune.Distinct:
			sent, fwd = fusedDistinctScan(seed, pr.FusedMatrix(), workers, p)
			pr.AddStats(uint64(sent), uint64(sent-fwd))
		case *prune.GroupBy:
			sent, fwd = fusedGroupByMaxScan(t, vc, seed, pr, workers, p)
			pr.AddStats(uint64(sent), uint64(sent-fwd))
		case *prune.GroupBySum:
			sent, fwd = fusedGroupBySumScan(t, vc, seed, pr, workers, p)
			pr.AddStats(uint64(sent), uint64(sent-fwd))
		case *prune.Having:
			sent, fwd = fusedHavingPass1(t, vc, seed, pr, workers, p)
			pr.AddStats(uint64(sent), uint64(sent-fwd))
		}
	} else {
		// The chunked pipeline: packets are (fingerprint) or (fingerprint,
		// value) columns, the fingerprints copied from the same column the
		// fused scans read; keep absorbs each forwarded entry.
		fps := p.hashKeys(seed)
		enc, width := encFingerprint(fps), 1
		if vc >= 0 {
			enc, width = encKeyVal(fps, t.Int64Col(vc)), 2
		}
		var keep func(cols [][]uint64, j, row int)
		switch q.Kind {
		case KindDistinct:
			keep = func(c [][]uint64, j, row int) { p.absorbFirst(c[0][j], row) }
		case KindGroupByMax:
			keep = func(c [][]uint64, j, row int) { p.absorbMax(int64(c[1][j]), row) }
		case KindGroupBySum:
			// A forwarded packet is one the program rewrote in place with
			// the aggregate it evicted.
			if _, ok := pruner.(*prune.GroupBySum); !ok {
				return fmt.Errorf("engine: group-by-sum needs a *prune.GroupBySum, got %T", pruner)
			}
			keep = func(c [][]uint64, j, _ int) { p.absorbSum(c[0][j], int64(c[1][j])) }
		case KindHaving:
			if _, ok := pruner.(*prune.Having); !ok {
				return fmt.Errorf("engine: having needs a *prune.Having, got %T", pruner)
			}
			keep = func(c [][]uint64, j, _ int) { p.nominate(c[0][j]) }
		}
		sent, fwd = batchPass(fullSpans(t), workers, width, enc, ps.dp, keep)
	}
	// The master touches every forwarded entry — of GROUP BY SUM, whose
	// end-of-stream drain counts as forwarded too, every distinct key.
	ps.traffic = Traffic{EntriesSent: sent, Forwarded: fwd, MasterProcessed: fwd}
	if gs, ok := pruner.(*prune.GroupBySum); ok && q.Kind == KindGroupBySum {
		ps.traffic.Forwarded += drainSums(gs, p)
		p.resolve()
		ps.traffic.MasterProcessed = len(p.fpEnts)
	}
	ps.keys = keysNote(p.hashedRows)
	return nil
}

// drainSums is GROUP BY SUM's end-of-stream control-plane drain: the
// aggregates still cached on the switch absorb into p. It returns how
// many there were; each counts as forwarded.
func drainSums(gs *prune.GroupBySum, p *partial) (drained int) {
	gs.DrainTo(func(key uint64, sum int64) {
		drained++
		p.absorbSum(key, sum)
	})
	return drained
}
