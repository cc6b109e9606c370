package engine

// The one execution of the four aggregation kinds (DISTINCT, GROUP BY
// MAX, GROUP BY SUM, HAVING) on the pruned path. aggPass streams one
// table through one switch program into one partial (partial.go) — by
// the fused loops of fuse.go when the caller may drive the program
// directly, through the chunked pipeline otherwise — and is all the
// single-switch execution, every shard of the sharded one, and their
// batched fallbacks do; they differ in who merges the partials and who
// renders.

import (
	"fmt"

	"cheetah/internal/prune"
	"cheetah/internal/switchsim"
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

// defaultAggPruner builds the default program of an aggregation kind,
// with HAVING's sketch thresholded at threshold (a shard's share of the
// query's).
func defaultAggPruner(q *Query, threshold int64, seed uint64) (prune.Pruner, error) {
	switch q.Kind {
	case KindGroupBySum:
		return prune.NewGroupBySum(prune.DefaultGroupBySumConfig(seed))
	case KindHaving:
		return prune.NewHaving(prune.DefaultHavingConfig(threshold, seed))
	default:
		return DefaultPruner(q, seed)
	}
}

// aggPass streams q.Table through pruner into p: every survivor is
// absorbed, GROUP BY SUM's switch state is drained and its keys
// resolved, and HAVING's candidates are marked — its second pass
// (partial.sumCandidates) is the caller's, because a sharded execution
// unions all shards' candidates first. With fuse set and pruner the
// kind's shipped program the stream runs as a fused loop on the program
// itself; otherwise it is chunked through dp. It returns the entries
// sent and forwarded (drains included).
func aggPass(q *Query, pruner prune.Pruner, dp BatchDataplane, fuse bool, seed uint64, workers int, p *partial) (sent, fwd int, err error) {
	t := q.Table
	vc := -1
	if q.Kind != KindDistinct {
		vc = t.Schema().MustIndex(q.AggCol)
	}
	if fuse && aggProgram(q.Kind, pruner) {
		switch pr := pruner.(type) {
		case *prune.Distinct:
			sent, fwd = fusedDistinctScan(seed, pr.FusedMatrix(), workers, p)
			pr.AddStats(uint64(sent), uint64(sent-fwd))
		case *prune.GroupBy:
			sent, fwd = fusedGroupByMaxScan(t, vc, seed, pr, workers, p)
			pr.AddStats(uint64(sent), uint64(sent-fwd))
		case *prune.GroupBySum:
			sent, fwd = fusedGroupBySumScan(t, vc, seed, pr, workers, p)
			fwd += drainSums(pr, p)
			p.resolve(seed)
		case *prune.Having:
			sent, fwd = fusedHavingPass1(t, vc, seed, pr, workers, p)
			pr.AddStats(uint64(sent), uint64(sent-fwd))
		}
		return sent, fwd, nil
	}
	// The chunked pipeline: packets are (fingerprint) or (fingerprint,
	// value) columns; absorb sees each chunk's forwarded indices.
	enc, width := encFingerprint(t, p.cols, seed), 1
	if vc >= 0 {
		enc, width = encKeyVal(t, p.cols[0], vc, seed), 2
	}
	var absorb func(cols [][]uint64, ids []uint64, j uint64)
	switch q.Kind {
	case KindDistinct:
		absorb = func(cols [][]uint64, ids []uint64, j uint64) { p.absorbFirst(cols[0][j], int(ids[j])) }
	case KindGroupByMax:
		absorb = func(cols [][]uint64, ids []uint64, j uint64) { p.absorbMax(cols[0][j], int64(cols[1][j]), int(ids[j])) }
	case KindGroupBySum:
		// A forwarded packet is one the program rewrote in place with the
		// aggregate it evicted.
		if _, ok := pruner.(*prune.GroupBySum); !ok {
			return 0, 0, fmt.Errorf("engine: group-by-sum needs a *prune.GroupBySum, got %T", pruner)
		}
		absorb = func(cols [][]uint64, _ []uint64, j uint64) { p.absorbSum(cols[0][j], int64(cols[1][j])) }
	case KindHaving:
		if _, ok := pruner.(*prune.Having); !ok {
			return 0, 0, fmt.Errorf("engine: having needs a *prune.Having, got %T", pruner)
		}
		absorb = func(cols [][]uint64, _ []uint64, j uint64) { p.slot(cols[0][j]) }
	}
	buf := getStreamBuf()
	defer putStreamBuf(buf)
	needIDs := q.Kind == KindDistinct || q.Kind == KindGroupByMax
	batchPass(t.NumRows(), workers, width, needIDs, buf, enc, dp,
		func(b *switchsim.Batch, dec []switchsim.Decision, ids []uint64) {
			sent += b.N
			idx := buf.compactIndices(dec, b.N)
			fwd += len(idx)
			for _, j := range idx {
				absorb(b.Cols, ids, j)
			}
		})
	if gs, ok := pruner.(*prune.GroupBySum); ok && q.Kind == KindGroupBySum {
		fwd += drainSums(gs, p)
		p.resolve(seed)
	}
	return sent, fwd, nil
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

// execAggregation is the single-switch execution of an aggregation kind,
// fused or batched. ok=false (fuse only) means the fused compiler cannot
// own this execution and the batched pipeline must run instead.
func execAggregation(q *Query, opts CheetahOptions, fuse bool) (run *CheetahRun, ok bool, err error) {
	pruner := opts.Pruner
	if pruner == nil {
		if pruner, err = defaultAggPruner(q, q.Threshold, opts.Seed); err != nil {
			return nil, true, err
		}
	} else if fuse && !(aggProgram(q.Kind, pruner) && fuseGate(opts, pruner)) {
		return nil, false, nil
	}
	p := newPartial(q)
	defer p.release()
	sent, fwd, err := aggPass(q, pruner, opts.dataplaneFor(pruner), fuse, opts.Seed, opts.Workers, p)
	if err != nil {
		return nil, true, err
	}
	run = &CheetahRun{PrunerName: pruner.Name()}
	run.Traffic = Traffic{EntriesSent: sent, Forwarded: fwd, MasterProcessed: fwd}
	switch q.Kind {
	case KindGroupBySum:
		run.Traffic.MasterProcessed = len(p.ents)
	case KindHaving:
		resent := p.sumCandidates(q.Table.Schema().MustIndex(q.AggCol), opts.Seed)
		run.Traffic.EntriesSent += resent
		run.Traffic.SecondPassSent = resent
		run.Traffic.MasterProcessed = resent
	}
	run.Result = p.render(q)
	run.Stats = pruner.Stats()
	return run, true, nil
}
