package engine

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"cheetah/internal/obs"
	"cheetah/internal/switchsim"
)

// stagesOf indexes a trace's spans by stage.
func stagesOf(tr *obs.Trace) map[obs.Stage][]obs.Span {
	out := make(map[obs.Stage][]obs.Span)
	for _, s := range tr.Spans() {
		out[s.Stage] = append(out[s.Stage], s)
	}
	return out
}

// TestWallUnifiedAcrossPaths pins the timing-capture fix: every
// execution path stamps Wall exactly once, around the whole call, via
// the engine's shared Stopwatch — no path leaves it zero.
func TestWallUnifiedAcrossPaths(t *testing.T) {
	tb := equivTable(t, 3000, 0x5eed)
	rt := equivTable(t, 900, 0x0dd)
	for name, q := range equivQueries(tb, rt) {
		paths := map[string]func() (*ShardedRun, error){
			"batched": func() (*ShardedRun, error) {
				return ExecCheetah(q, CheetahOptions{Workers: 2, Seed: 7, NoFuse: true})
			},
			"fused": func() (*ShardedRun, error) {
				return ExecCheetah(q, CheetahOptions{Workers: 2, Seed: 7})
			},
			"sharded": func() (*ShardedRun, error) {
				return ExecSharded(q, ShardedOptions{Shards: 3, Workers: 2, Seed: 7})
			},
		}
		for path, run := range paths {
			r, err := run()
			if err != nil {
				t.Fatalf("%s/%s: %v", name, path, err)
			}
			if r.Wall <= 0 {
				t.Fatalf("%s/%s: Wall not captured", name, path)
			}
		}
	}
}

// TestWallCoversFailoverRetries pins that a shard redone after a
// mid-stream switch death reports one Wall covering all attempts — the
// failover span's burn is inside Wall, not reset by the retry.
func TestWallCoversFailoverRetries(t *testing.T) {
	defer func(n int) { chunkEntries = n }(chunkEntries)
	chunkEntries = 256
	tb := equivTable(t, 3000, 0x5eed)
	rt := equivTable(t, 900, 0x0dd)
	q := equivQueries(tb, rt)["filter"]
	h := newFailoverHarness(t, q, 3, 0xfeed, map[int]switchsim.FaultInjector{
		1: func(flow uint32, batch int) bool { return batch >= 1 },
	})
	tr := obs.New()
	defer tr.Release()
	run, err := ExecSharded(q, ShardedOptions{
		Shards: 3, Workers: 2, Seed: 0xfeed,
		Pruners: h.pruners, Flows: h.flows, Failover: h.failover,
		Trace: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	if run.FailedOver < 1 {
		t.Fatalf("FailedOver = %d, want ≥ 1", run.FailedOver)
	}
	st := stagesOf(tr)
	if len(st[obs.StageFailover]) < 1 {
		t.Fatalf("no failover span recorded; spans:\n%s", tr)
	}
	var attempts int64
	for _, s := range append(st[obs.StageShard], st[obs.StageFailover]...) {
		attempts += int64(s.Dur)
	}
	if int64(run.Wall) < attempts/2 {
		// Shards run concurrently, so Wall < sum is normal; but Wall must
		// at least cover the longest chain — a per-attempt reset would
		// leave it far below the recorded span time.
		var longest int64
		for _, s := range append(st[obs.StageShard], st[obs.StageFailover]...) {
			if d := int64(s.Start + s.Dur); d > longest {
				longest = d
			}
		}
		if int64(run.Wall) < longest {
			t.Fatalf("Wall %v below the last span end %v: per-attempt reset?", run.Wall, longest)
		}
	}
}

// TestTracingDoesNotPerturbExecution pins the invariant: with and
// without a trace attached, every kind produces bit-identical results,
// traffic and stats on both the batched and fused paths.
func TestTracingDoesNotPerturbExecution(t *testing.T) {
	tb := equivTable(t, 3000, 0xabc)
	rt := equivTable(t, 900, 0xdef)
	for name, q := range equivQueries(tb, rt) {
		for _, noFuse := range []bool{false, true} {
			plain, err := ExecCheetah(q, CheetahOptions{Workers: 2, Seed: 7, NoFuse: noFuse})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			tr := obs.New()
			traced, err := ExecCheetah(q, CheetahOptions{Workers: 2, Seed: 7, NoFuse: noFuse, Trace: tr})
			if err != nil {
				t.Fatalf("%s traced: %v", name, err)
			}
			if !traced.Result.Equal(plain.Result) {
				t.Fatalf("%s noFuse=%v: tracing changed the result", name, noFuse)
			}
			if traced.Traffic != plain.Traffic || traced.Stats != plain.Stats {
				t.Fatalf("%s noFuse=%v: tracing changed traffic/stats: %+v vs %+v",
					name, noFuse, traced.Traffic, plain.Traffic)
			}
			tr.Release()
		}
	}
}

// keyRowsOf returns how many rows of key fingerprints a pass over q reads
// — 0 for the kinds that read none — and whether the table can keep them
// (a single key column; a multi-column key is hashed per query).
func keyRowsOf(q *Query) (rows int, memoised bool) {
	switch q.Kind {
	case KindDistinct:
		return q.Table.NumRows(), len(q.DistinctCols) == 1
	case KindGroupByMax, KindGroupBySum, KindHaving:
		return q.Table.NumRows(), true
	case KindJoin:
		return q.Table.NumRows() + q.Right.NumRows(), true
	}
	return 0, false
}

// isNote reports whether note is "<what>: memo" or "<what>: <verb> <n>".
func isNote(note, what, verb string) bool {
	return note == what+": memo" || strings.HasPrefix(note, what+": "+verb+" ")
}

// idsReadAt says where a run over q reads key ids, at every shard count:
// JOIN's pass, on both sides, whose pair counts are keyed by the right
// handle's ids; the merge of a single-column aggregation, whose partials
// are keyed by the ids resolved once per query; nowhere else.
func idsReadAt(q *Query) (pass, merge bool) {
	switch q.Kind {
	case KindJoin:
		return true, false
	case KindDistinct:
		return false, len(q.DistinctCols) == 1
	case KindGroupByMax, KindGroupBySum, KindHaving:
		return false, true
	}
	return false, false
}

// TestTraceSpansPerPath pins which spans each pruned path records — the
// same ones: at every width, fused or chunked, exactly one shard span per
// pass — labeled with its switch, noted with the stream it took (fused for
// every kind's default program, chunked only under NoFuse) and, for
// the kinds that read key fingerprints and key ids, with where those came
// from, carrying the pass's stream counts — and one merge span that starts
// after the last pass ended, noted with where the ids the completion read
// came from. No run records a fused, encode or prune span. At one shard
// the two spans tile the run's Wall.
func TestTraceSpansPerPath(t *testing.T) {
	tb := equivTable(t, 3000, 0x111)
	rt := equivTable(t, 900, 0x222)
	type outcome struct {
		traffic Traffic
		wall    time.Duration
	}
	for name, q := range equivQueries(tb, rt) {
		for _, noFuse := range []bool{false, true} {
			for _, k := range []int{1, 2, 3} {
				label := fmt.Sprintf("%s noFuse=%v k=%d", name, noFuse, k)
				exec := func(tr *obs.Trace) outcome {
					if k == 1 {
						// The single-switch front door is the one-shard run.
						run, err := ExecCheetah(q, CheetahOptions{Workers: 2, Seed: 7, NoFuse: noFuse, Trace: tr})
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						return outcome{run.Traffic, run.Wall}
					}
					run, err := ExecSharded(q, ShardedOptions{Shards: k, Workers: 2, Seed: 7, NoFuse: noFuse, Trace: tr})
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					return outcome{run.Traffic, run.Wall}
				}
				tr := obs.New()
				got := exec(tr)
				st := stagesOf(tr)
				if len(st[obs.StageShard]) != k || len(st[obs.StageMerge]) != 1 || len(tr.Spans()) != k+1 {
					t.Fatalf("%s: want %d shard spans + one merge and nothing else; got:\n%s", label, k, tr)
				}
				merge := st[obs.StageMerge][0]
				idsInPass, idsInMerge := idsReadAt(q)
				if merge.Note != "" && !isNote(merge.Note, "ids", "built") || q.Kind == KindHaving && merge.Note == "" ||
					!idsInMerge && merge.Note != "" {
					t.Fatalf("%s: merge noted %q", label, merge.Note)
				}
				seen := map[int]bool{}
				var sent, fwd int64
				for _, s := range st[obs.StageShard] {
					seen[s.Switch] = true
					sent += s.Entries
					fwd += s.Forwarded
					if merge.Start < s.Start+s.Dur {
						t.Fatalf("%s: merge starts at %v, before shard %d ended at %v", label, merge.Start, s.Switch, s.Start+s.Dur)
					}
					stream, rest, _ := strings.Cut(s.Note, "; ")
					keys, rest, _ := strings.Cut(rest, "; ")
					ids, xmap, _ := strings.Cut(rest, "; ")
					// Every default run takes the fused loops: a silent fall to
					// the chunked stream costs a Process call per entry.
					if want := map[bool]string{false: "fused", true: "chunked"}[noFuse]; stream != want {
						t.Fatalf("%s: shard %d noted %q, want %s", label, s.Switch, s.Note, want)
					}
					if keyRows, _ := keyRowsOf(q); (keyRows > 0) != isNote(keys, "keys", "hashed") {
						t.Fatalf("%s: shard %d reads %d rows of key fingerprints, noted %q", label, s.Switch, keyRows, s.Note)
					}
					if idsInPass != isNote(ids, "ids", "built") ||
						idsInPass != (isNote(xmap, "xmap", "built") || isNote(xmap, "xmap", "extended")) {
						t.Fatalf("%s: shard %d noted %q", label, s.Switch, s.Note)
					}
				}
				if len(seen) != k {
					t.Fatalf("%s: shard spans not labeled per switch: %v", label, seen)
				}
				// HAVING's partial second pass re-streams under the merge
				// span, after the passes returned.
				if want := int64(got.traffic.EntriesSent - got.traffic.SecondPassSent); sent != want || fwd != int64(got.traffic.Forwarded) {
					t.Fatalf("%s: shard spans carry %d entries / %d forwarded, traffic %+v", label, sent, fwd, got.traffic)
				}
				if merge.Entries != int64(got.traffic.MasterProcessed) {
					t.Fatalf("%s: merge span entries %d != master processed %d", label, merge.Entries, got.traffic.MasterProcessed)
				}
				tr.Release()
				if k != 1 {
					continue
				}
				// The tiling identity where it already holds: at one shard
				// the pass, then the completion, and next to nothing outside
				// the two. A descheduling between the spans is noise, so the
				// best of a few runs counts.
				var gap, tol time.Duration
				for try := 0; try < 5; try++ {
					tr := obs.New()
					wall := exec(tr).wall
					st := stagesOf(tr)
					tr.Release()
					gap = (wall - st[obs.StageShard][0].Dur - st[obs.StageMerge][0].Dur).Abs()
					if tol = max(wall/20, 50*time.Microsecond); gap <= tol {
						break
					}
				}
				if gap > tol {
					t.Fatalf("%s: shard + merge miss Wall by %v (tolerance %v)", label, gap, tol)
				}
			}
		}
	}
	// The keys and ids notes explain a slow first query: cold tables hash
	// every key row once and give every key row its id once, whichever
	// stream runs and at whatever width — each shard's note counts the rows
	// of its own, so the shards' notes add up to the query's, never k times
	// it — and the same query again reads both off the table, unless the
	// key spans columns, which is hashed per query and has no dictionary.
	// JOIN reads ids in its pass, the aggregation kinds in the master's
	// completion; JOIN's first pass then notes the query's key map, built
	// on the cold run and read on the warm one.
	for _, noFuse := range []bool{false, true} {
		for _, k := range []int{1, 3} {
			for name := range equivQueries(tb, rt) {
				// Tables no query has read yet.
				q := equivQueries(equivTable(t, 3000, 0x111), equivTable(t, 900, 0x222))[name]
				keyRows, memoised := keyRowsOf(q)
				if keyRows == 0 {
					continue
				}
				idsInPass, idsInMerge := idsReadAt(q)
				type notes struct{ shard, merge string }
				cold := notes{shard: "keys: hashed " + strconv.Itoa(keyRows)}
				warm := notes{shard: "keys: memo"}
				switch {
				case !memoised:
					warm = cold
				case idsInPass:
					cold.shard += "; ids: built " + strconv.Itoa(keyRows)
					warm.shard += "; ids: memo"
				case idsInMerge:
					cold.merge, warm.merge = "ids: built "+strconv.Itoa(keyRows), "ids: memo"
				}
				for run, want := range []notes{cold, warm} {
					tr := obs.New()
					var err error
					if k == 1 {
						_, err = ExecCheetah(q, CheetahOptions{Workers: 2, Seed: 7, NoFuse: noFuse, Trace: tr})
					} else {
						_, err = ExecSharded(q, ShardedOptions{Shards: k, Workers: 2, Seed: 7, NoFuse: noFuse, Trace: tr})
					}
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					st := stagesOf(tr)
					tr.Release()
					got := notes{addNotes(st[obs.StageShard]), st[obs.StageMerge][0].Note}
					if idsInPass {
						i := strings.LastIndex(got.shard, "; ")
						xmap := got.shard[i+2:]
						if got.shard = got.shard[:i]; run == 0 && !strings.HasPrefix(xmap, "xmap: built ") ||
							run == 1 && xmap != "xmap: memo" {
							t.Fatalf("%s noFuse=%v k=%d run %d: key map noted %q", name, noFuse, k, run, xmap)
						}
					}
					if got != want {
						t.Fatalf("%s noFuse=%v k=%d run %d: noted %+v, want %+v", name, noFuse, k, run, got, want)
					}
				}
			}
		}
	}
}

// addNotes adds up the key parts of shard spans' notes — "keys: …",
// "ids: …" and "xmap: …" after the stream — into one: "<what>: <verb> <Σn>" when some
// shard did the work, "<what>: memo" when none did.
func addNotes(shards []obs.Span) string {
	var whats []string
	sums, verbs := map[string]int{}, map[string]string{}
	for _, s := range shards {
		_, rest, _ := strings.Cut(s.Note, "; ")
		for i, part := range strings.Split(rest, "; ") {
			what, how, _ := strings.Cut(part, ": ")
			if i == len(whats) {
				whats = append(whats, what)
			}
			if verb, n, found := strings.Cut(how, " "); found {
				v, _ := strconv.Atoi(n)
				sums[what] += v
				verbs[what] = verb
			}
		}
	}
	for i, what := range whats {
		if verb, ok := verbs[what]; ok {
			whats[i] = what + ": " + verb + " " + strconv.Itoa(sums[what])
		} else {
			whats[i] = what + ": memo"
		}
	}
	return strings.Join(whats, "; ")
}
