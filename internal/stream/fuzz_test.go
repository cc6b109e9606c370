package stream

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"cheetah/internal/engine"
	"cheetah/internal/table"
)

// foldSchema is the fuzz table: Int64 dimensions for TOP N and SKYLINE,
// String columns for DISTINCT.
var foldSchema = table.Schema{
	{Name: "a", Type: table.Int64}, {Name: "b", Type: table.Int64}, {Name: "c", Type: table.Int64},
	{Name: "s", Type: table.String}, {Name: "t", Type: table.String}, {Name: "u", Type: table.String},
}

// foldInts is a small alphabet, so ties and duplicate points repeat
// across deltas, plus the int64 extremes.
var foldInts = []int64{0, -1, 1, 2, 3, 5, math.MinInt64, math.MaxInt64}

// foldStrs holds empty cells, cells with NUL and cells that are prefixes
// of each other: a separator-joined tuple key confuses ["a\x00b", "c"]
// with ["a", "b\x00c"].
var foldStrs = []string{"", "a", "ab", "abc", "\x00", "a\x00", "\x00b", "a\x00b", "b\x00c", "c", "b"}

// foldTable decodes data into at most 512 rows of six cells each.
func foldTable(t *testing.T, data []byte) *table.Table {
	t.Helper()
	src := table.MustNew(foldSchema)
	for r := 0; r < 512 && 6*r+6 <= len(data); r++ {
		b := data[6*r : 6*r+6]
		err := src.AppendRow(foldInts[int(b[0])%len(foldInts)], foldInts[int(b[1])%len(foldInts)],
			foldInts[int(b[2])%len(foldInts)], foldStrs[int(b[3])%len(foldStrs)],
			foldStrs[int(b[4])%len(foldStrs)], foldStrs[int(b[5])%len(foldStrs)])
		if err != nil {
			t.Fatal(err)
		}
	}
	return src
}

// foldQuery decodes the query shape: kind picks TOP N, windowed TOP N,
// SKYLINE (2 or 3 dimensions over a, b, c with repeats, so 1 to 3
// distinct ones) or DISTINCT over 2 or 3 String columns.
func foldQuery(shape uint8, n uint16, win uint16, rows int) (q engine.Query, window, slide int) {
	kind, rest := shape%5, int(shape/5)
	switch kind {
	case 0, 1:
		q = engine.Query{Kind: engine.KindTopN, OrderCol: "a", N: 1 + int(n)%(rows+16)}
		if kind == 1 {
			slide = 1 + int(win)%256
			window = slide * (1 + int(win>>8)%3)
		}
	case 2:
		dims := 2 + rest%2
		rest /= 2
		for range dims {
			q.SkylineCols = append(q.SkylineCols, []string{"a", "b", "c"}[rest%3])
			rest /= 3
		}
		q.Kind = engine.KindSkyline
	default:
		q = engine.Query{Kind: engine.KindDistinct, DistinctCols: []string{"s", "t", "u"}[:2+rest%2]}
	}
	return q, window, slide
}

// foldExec is the delta executor: DirectExec, or the pruned path at 1-3
// workers.
func foldExec(sel uint8, seed uint64) DeltaExec {
	workers := int(sel % 4)
	if workers == 0 {
		return DirectExec
	}
	return func(dq *engine.Query) (*engine.Result, error) {
		run, err := engine.ExecCheetah(dq, engine.CheetahOptions{Workers: workers, Seed: seed})
		if err != nil {
			return nil, err
		}
		return run.Result, nil
	}
}

// FuzzStandingMatchesDirect pins the folds a standing result is kept
// with — TOP N's N-heap, SKYLINE's re-run over the frontier, DISTINCT's
// tuple set — to the oracle: after every Step over a fuzzed schedule of
// 0-40-row batches, Results equals ExecDirect over the rows it covers
// (the whole prefix, or the fired window's rows).
func FuzzStandingMatchesDirect(f *testing.F) {
	row := func(a, b, c, s, t, u byte) []byte { return []byte{a, b, c, s, t, u} }
	var nul []byte // ["a\x00b", "c", _] and ["a", "b\x00c", _]
	nul = append(nul, row(0, 0, 0, 7, 9, 0)...)
	nul = append(nul, row(0, 0, 0, 1, 8, 0)...)
	var mixed []byte // 512 rows cycling the alphabets out of step
	for r := 0; r < 512; r++ {
		mixed = append(mixed, row(byte(r), byte(r/3), byte(r/7), byte(r), byte(r/5), byte(r/11))...)
	}
	for _, exec := range []uint8{0, 2} {
		// DISTINCT over the NUL pair, in one batch and in two.
		f.Add(uint8(3), uint16(0), uint16(0), exec, []byte{2}, nul)
		f.Add(uint8(3), uint16(0), uint16(0), exec, []byte{1}, nul)
		// TestIncrementalEquivalence's kinds, one big batch and many small.
		for _, shape := range []uint8{0, 2, 3, 4, 7, 12} {
			f.Add(shape, uint16(10), uint16(0), exec, []byte{40}, mixed)
			f.Add(shape, uint16(10), uint16(0), exec, []byte{37, 0, 11, 40, 3}, mixed)
		}
		// TestWindowedEquivalence's shapes: tumbling 200/200, sliding
		// 300/100 (three panes).
		f.Add(uint8(1), uint16(10), uint16(199), exec, []byte{37, 40, 1}, mixed)
		f.Add(uint8(1), uint16(10), uint16(2<<8|99), exec, []byte{37, 40, 1}, mixed)
	}
	f.Fuzz(func(t *testing.T, shape uint8, n uint16, win uint16, exec uint8, sched, data []byte) {
		src := foldTable(t, data)
		q, window, slide := foldQuery(shape, n, win, src.NumRows())
		target := table.MustNew(foldSchema)
		in, err := NewIngestor(target, Config{})
		if err != nil {
			t.Fatal(err)
		}
		defer in.Close()
		q.Table = target
		sub, err := in.Subscribe(&q, SubOptions{Exec: foldExec(exec, uint64(n)), Window: window, Slide: slide, NoPump: true})
		if err != nil {
			t.Fatal(err)
		}
		// Batches of 0-40 rows; a schedule of empty batches alone also
		// appends one row per round, so that the rows run out.
		if !slices.ContainsFunc(sched, func(b byte) bool { return b%41 != 0 }) {
			sched = append(sched, 1)
		}
		for lo, i := 0, 0; lo < src.NumRows(); i++ {
			hi := min(lo+int(sched[i%len(sched)])%41, src.NumRows())
			if hi > lo {
				v, err := src.View(lo, hi)
				if err != nil {
					t.Fatal(err)
				}
				if err := in.AppendBatch(v); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := sub.Step(); err != nil {
				t.Fatal(err)
			}
			wlo, whi := uint64(0), uint64(hi)
			if window > 0 {
				wlo, whi = sub.WindowBounds()
			}
			got, _ := sub.Results()
			want := windowGroundTruth(t, &q, src, wlo, whi)
			if !want.Equal(got) {
				t.Fatalf("%v over rows [%d,%d) after a batch ending at %d:\n got: %q\nwant: %q",
					q.Kind, wlo, whi, hi, got.Rows, want.Rows)
			}
			lo = hi
		}
	})
}

// TestDistinctNULTuples pins the multi-column DISTINCT key: ["a\x00b",
// "c"] and ["a", "b\x00c"] join to one string around a NUL separator, yet
// are two tuples on every path.
func TestDistinctNULTuples(t *testing.T) {
	tb := table.MustNew(table.Schema{{Name: "s", Type: table.String}, {Name: "t", Type: table.String}})
	for _, r := range [][2]string{{"a\x00b", "c"}, {"a", "b\x00c"}} {
		if err := tb.AppendRow(r[0], r[1]); err != nil {
			t.Fatal(err)
		}
	}
	q := engine.Query{Kind: engine.KindDistinct, Table: tb, DistinctCols: []string{"s", "t"}}
	paths := map[string]func() (*engine.Result, error){
		"direct": func() (*engine.Result, error) { return engine.ExecDirect(&q) },
		"sharded-k2": func() (*engine.Result, error) {
			run, err := engine.ExecSharded(&q, engine.ShardedOptions{Shards: 2, Workers: 2, Seed: 3})
			if err != nil {
				return nil, err
			}
			return run.Result, nil
		},
	}
	for name, opts := range map[string]engine.CheetahOptions{
		"cheetah": {}, "cheetah-nofuse": {NoFuse: true}, "cheetah-scalar": {Scalar: true},
	} {
		paths[name] = func() (*engine.Result, error) {
			opts.Workers, opts.Seed = 2, 3
			run, err := engine.ExecCheetah(&q, opts)
			if err != nil {
				return nil, err
			}
			return run.Result, nil
		}
	}
	for _, batch := range []int{1, 2} {
		paths[fmt.Sprintf("subscription-batch%d", batch)] = func() (*engine.Result, error) {
			in, err := NewIngestor(table.MustNew(tb.Schema()), Config{})
			if err != nil {
				return nil, err
			}
			defer in.Close()
			qs := q
			qs.Table = in.t
			sub, err := in.Subscribe(&qs, SubOptions{NoPump: true})
			if err != nil {
				return nil, err
			}
			for lo := 0; lo < tb.NumRows(); lo += batch {
				v, err := tb.View(lo, min(lo+batch, tb.NumRows()))
				if err != nil {
					return nil, err
				}
				if err := in.AppendBatch(v); err != nil {
					return nil, err
				}
				if _, err := sub.Step(); err != nil {
					return nil, err
				}
			}
			res, _ := sub.Results()
			return res, nil
		}
	}
	for name, run := range paths {
		res, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.Rows) != 2 {
			t.Errorf("%s: %d tuples, want 2: %q", name, len(res.Rows), res.Rows)
		}
	}
}
