package prune

import (
	"fmt"
	"reflect"
	"testing"

	"cheetah/internal/boolexpr"
	"cheetah/internal/cache"
	"cheetah/internal/hashutil"
	"cheetah/internal/switchsim"
)

// FuzzResetMatchesFresh pins the invariant a session's free list of
// switch programs stands on: a Reset program is a fresh one. From the
// input it builds one shipped program and config, drives a first entry
// stream through instance A, Resets A, then drives a second stream
// through A and through a freshly built B. Every verdict, every emitted
// value, the Stats, the drained state and the phase must agree, entry
// by entry, whether an entry goes through Process or through the fused
// entry point the engine's fused loops use.
//
// Input layout: byte 0 picks the program, the next 8 bytes its config,
// byte 9 whether A drains before its Reset (as a finished pass does),
// byte 10 where the first stream ends; the rest is entries of 5 bytes
// (an op byte, then four values).
func FuzzResetMatchesFresh(f *testing.F) {
	for prog := range numResetProgs {
		seed := []byte{byte(prog), 3, 2, 1, 9, 4, 7, 5, 2, byte(prog & 1), 40}
		for i := 0; i < 90; i++ {
			// Entries alternate Process and the fused entry point; a JOIN
			// turns to its probe phase once in each stream.
			op := byte(i*37+prog) &^ 0x0c
			if i%45 == 25 {
				op |= 0x0c
			}
			seed = append(seed, op, byte(i*11), byte(200-i*3), byte(i*i), byte(i^0x5a))
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 11 {
			return
		}
		build, name := resetProg(data[0], data[1:9])
		if build == nil {
			return
		}
		entries := data[11:]
		cut := min(5*int(data[10]), len(entries)/5*5)
		first, second := entries[:cut], entries[cut:]

		a, err := build()
		if err != nil {
			return // an invalid config is the constructor's to refuse
		}
		b, err := build()
		if err != nil {
			t.Fatalf("%s: second build failed: %v", name, err)
		}
		driveReset(a, first)
		if data[9]&1 != 0 {
			drainState(a)
		}
		a.Reset()
		got, want := driveReset(a, second), driveReset(b, second)
		got.Drained, want.Drained = drainState(a), drainState(b)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Reset program diverges from a fresh one\nreset: %+v\nfresh: %+v", name, got, want)
		}
	})
}

const numResetProgs = 10

// resetProg builds program prog's constructor from 8 config bytes, with
// small dimensions so a short stream collides, evicts and saturates.
func resetProg(prog byte, c []byte) (func() (Pruner, error), string) {
	seed := uint64(c[7])<<8 | uint64(c[6])
	small := func(b byte, n int) int { return 1 + int(b)%n }
	switch prog % numResetProgs {
	case 0:
		cfg := DistinctConfig{Rows: small(c[0], 16), Cols: small(c[1], 4),
			Policy: cache.Policy(c[2] % 2), FingerprintBits: uint(c[3] % 65), Seed: seed}
		return func() (Pruner, error) { return NewDistinct(cfg) }, fmt.Sprintf("distinct %+v", cfg)
	case 1:
		cfg := GroupByConfig{Rows: small(c[0], 16), Cols: small(c[1], 4), Min: c[2]&1 != 0, Seed: seed}
		return func() (Pruner, error) { return NewGroupBy(cfg) }, fmt.Sprintf("groupby %+v", cfg)
	case 2:
		cfg := GroupBySumConfig{Rows: small(c[0], 16), Cols: small(c[1], 4), Seed: seed}
		return func() (Pruner, error) { return NewGroupBySum(cfg) }, fmt.Sprintf("groupbysum %+v", cfg)
	case 3:
		cfg := HavingConfig{Agg: HavingAgg(c[2] % 2), Threshold: int64(c[3]),
			Rows: small(c[0], 4), CountersPerRow: small(c[1], 32), Seed: seed}
		return func() (Pruner, error) { return NewHaving(cfg) }, fmt.Sprintf("having %+v", cfg)
	case 4, 5:
		cfg := JoinConfig{FilterBits: 64 * small(c[0], 16), Hashes: small(c[1], 4),
			Kind: JoinFilterKind(c[2] % 2), Asymmetric: prog%numResetProgs == 5, Seed: seed}
		return func() (Pruner, error) { return NewJoin(cfg) }, fmt.Sprintf("join %+v", cfg)
	case 6:
		cfg := RandTopNConfig{N: small(c[2], 16), Rows: small(c[0], 16), Cols: small(c[1], 4), Seed: seed}
		return func() (Pruner, error) { return NewRandTopN(cfg) }, fmt.Sprintf("rand top-n %+v", cfg)
	case 7:
		cfg := DetTopNConfig{N: small(c[2], 16), Thresholds: small(c[1], 8)}
		return func() (Pruner, error) { return NewDetTopN(cfg) }, fmt.Sprintf("det top-n %+v", cfg)
	case 8:
		cfg := SkylineConfig{Dims: small(c[0], 4), Points: small(c[1], 8), Heuristic: SkylineHeuristic(c[2] % 3)}
		return func() (Pruner, error) { return NewSkyline(cfg) }, fmt.Sprintf("skyline %+v", cfg)
	default:
		n := small(c[0], 3)
		preds := make([]Predicate, n)
		leaves := make([]boolexpr.Expr, n)
		for i := range preds {
			preds[i] = Predicate{ValIdx: i, Op: CmpOp(c[1+i] % 6), Const: int64(int8(c[4+i])),
				Precomputed: c[1+i]&0x80 != 0}
			leaves[i] = boolexpr.Leaf{V: i}
		}
		var formula boolexpr.Expr = boolexpr.And(leaves)
		if c[7]&1 != 0 {
			formula = boolexpr.Or(leaves)
		}
		cfg := FilterConfig{Predicates: preds, Formula: formula}
		return func() (Pruner, error) { return NewFilter(cfg) }, fmt.Sprintf("filter %+v", cfg)
	}
}

// resetTrace is everything a stream makes a program say.
type resetTrace struct {
	Verdicts []switchsim.Decision
	Emitted  [][2]uint64 // GROUP BY SUM's evicted (key, sum) pairs, in order
	Stats    Stats
	Phase    JoinPhase
	Drained  [][]uint64 // read after the stream (drainState)
}

// driveReset feeds entries (5 bytes each) through p. An op byte's bit 0
// sends the entry through the fused entry point instead of Process; for
// JOIN, bit 1 is the side and op&0x0c == 0x0c flips the program to its
// probe phase instead of carrying an entry. Keys are small, values
// signed, so entries collide and cross thresholds both ways.
func driveReset(p Pruner, entries []byte) resetTrace {
	var tr resetTrace
	vals := make([]uint64, 4)
	for len(entries) >= 5 {
		op, e := entries[0], entries[1:5]
		entries = entries[5:]
		fused := op&1 != 0
		for i, b := range e {
			vals[i] = uint64(int64(int8(b)))
		}
		key := uint64(e[0] % 16)
		var d switchsim.Decision
		switch pr := p.(type) {
		case *Distinct:
			vals[0] = key
			if fused {
				d = fusedVerdict(pr, pr.FusedMatrix().Insert(key))
			} else {
				d = pr.Process(vals)
			}
		case *GroupBy:
			vals[0] = key
			if fused {
				m, isMin := pr.FusedMatrix()
				v := int64(vals[1])
				if isMin {
					v = -v
				}
				d = fusedVerdict(pr, m.Offer(key, v))
			} else {
				d = pr.Process(vals)
			}
		case *GroupBySum:
			vals[0] = key
			var emit []uint64
			if fused {
				ek, es, evicted := pr.FusedAdd(key, int64(vals[1]))
				d = fusedVerdict(pr, !evicted)
				if evicted {
					emit = []uint64{ek, uint64(es)}
				}
			} else {
				d, emit = pr.ProcessEmit(vals)
			}
			if emit != nil {
				tr.Emitted = append(tr.Emitted, [2]uint64{emit[0], emit[1]})
			}
		case *Having:
			vals[0] = key
			if fused {
				d = fusedVerdict(pr, pr.FusedOffer(key, int64(vals[1])))
			} else {
				d = pr.Process(vals)
			}
		case *Join:
			if op&0x0c == 0x0c {
				pr.StartProbe()
				continue
			}
			side := JoinSide(op >> 1 & 1)
			if fused && !pr.Asymmetric() {
				fa, fb := pr.FusedFilters()
				own, other := fa, fb
				if side == SideB {
					own, other = fb, fa
				}
				if pr.Phase() == PhaseBuild {
					own.Add(key)
					d = fusedVerdict(pr, true)
				} else {
					d = fusedVerdict(pr, !other.Contains(key))
				}
			} else {
				d = pr.Process([]uint64{uint64(side), key})
			}
		case *RandTopN:
			if fused {
				m, rows, base, pos := pr.FusedRandState(1)
				row := int(hashutil.ReduceFull(hashutil.Mix64(base+pos*FusedRandGolden), rows))
				d = fusedVerdict(pr, m.Offer(row, int64(vals[0])))
			} else {
				d = pr.Process(vals)
			}
		case *DetTopN:
			if fused {
				d = fusedVerdict(pr, pr.FusedOffer(int64(vals[0])))
			} else {
				d = pr.Process(vals)
			}
		case *Skyline:
			for i := range vals {
				vals[i] = uint64(e[i]) // coordinates are unsigned
			}
			if fused {
				d = fusedVerdict(pr, pr.FusedOffer(vals))
			} else {
				d = pr.Process(vals)
			}
		case *Filter:
			if fused {
				preds, tt := pr.FusedSpec()
				var idx uint32
				for i, pd := range preds {
					if pd.Eval(vals) {
						idx |= 1 << uint(i)
					}
				}
				d = fusedVerdict(pr, !tt.Lookup(idx))
			} else {
				d = pr.Process(vals)
			}
		default:
			panic(fmt.Sprintf("driveReset: unhandled program %T", p))
		}
		tr.Verdicts = append(tr.Verdicts, d)
	}
	tr.Stats = p.Stats()
	if j, ok := p.(*Join); ok {
		tr.Phase = j.Phase()
	}
	return tr
}

// fusedVerdict deposits one fused entry's stats, as the fused loops do
// once per pass, and returns its verdict.
func fusedVerdict(p interface {
	AddStats(processed, pruned uint64)
}, pruned bool) switchsim.Decision {
	if pruned {
		p.AddStats(1, 1)
		return switchsim.Prune
	}
	p.AddStats(1, 0)
	return switchsim.Forward
}

// drainState reads and clears what the switch holds at end of stream:
// GROUP BY SUM's partial sums through DrainTo, SKYLINE's stored points
// through Drain. Nil for the other programs.
func drainState(p Pruner) [][]uint64 {
	switch pr := p.(type) {
	case *GroupBySum:
		var out [][]uint64
		pr.DrainTo(func(key uint64, sum int64) { out = append(out, []uint64{key, uint64(sum)}) })
		return out
	case *Skyline:
		return pr.Drain()
	}
	return nil
}
