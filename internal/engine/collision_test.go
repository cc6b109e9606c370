package engine

import (
	"bufio"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	"cheetah/internal/obs"
	"cheetah/internal/table"
)

// collisionRun is one aggregation or JOIN over tables whose fingerprint
// columns were forced to collide, run through the sharded executor.
type collisionRun struct {
	label   string // kind, key type, fingerprints, width
	outcome string // Traffic and Stats
	differs int    // keys whose row differs from ExecDirect's
}

// collisionRuns runs DISTINCT, GROUP BY MAX, GROUP BY SUM, HAVING and
// JOIN at k ∈ {1, 2, 3} over string and integer keys whose fingerprints
// are forced (collidingFingerprints) by writing them into the tables'
// fingerprint columns — what the switch streams, what the key dictionary
// preselects by and what JOIN's key map probes the other side's
// dictionary with, while ids and map still compare the cells. A sharded
// JOIN scatters on the tables' key-only co-partition (table.ShardKeys),
// whose shards are tables of their own: their columns are forced too.
func collisionRuns(t *testing.T) []collisionRun {
	t.Helper()
	const seed = 7
	var runs []collisionRun
	names := make([]string, 0, len(collidingFingerprints))
	for name := range collidingFingerprints {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, intKeys := range []bool{false, true} {
		for _, fname := range names {
			fp := collidingFingerprints[fname]
			tb := joinKeyTable(t, intKeys, seqKeys(600, 0, 37), nil)
			rt := joinKeyTable(t, intKeys, seqKeys(400, 20, 50), nil)
			forceKeyFingerprints(t, tb, seed, fp)
			forceKeyFingerprints(t, rt, seed, fp)
			for _, q := range []*Query{
				{Kind: KindDistinct, Table: tb, DistinctCols: []string{"name"}},
				{Kind: KindGroupByMax, Table: tb, KeyCol: "name", AggCol: "pay"},
				{Kind: KindGroupBySum, Table: tb, KeyCol: "name", AggCol: "pay"},
				{Kind: KindHaving, Table: tb, KeyCol: "name", AggCol: "pay", Threshold: 4800},
				{Kind: KindJoin, Table: tb, Right: rt, LeftKey: "name", RightKey: "name"},
			} {
				want, err := ExecDirect(q)
				if err != nil {
					t.Fatal(err)
				}
				for _, k := range []int{1, 2, 3} {
					tr := obs.New()
					run, err := ExecSharded(q, ShardedOptions{Shards: k, Workers: 2, Seed: seed, Trace: tr})
					if err != nil {
						t.Fatal(err)
					}
					// Every pass read the forced columns: a pass that hashed
					// its keys itself would stream honest fingerprints.
					for _, sp := range stagesOf(tr)[obs.StageShard] {
						if !strings.Contains(sp.Note, "keys: memo") {
							t.Fatalf("%v k=%d: shard %d noted %q", q.Kind, k, sp.Switch, sp.Note)
						}
					}
					tr.Release()
					runs = append(runs, collisionRun{
						label:   fmt.Sprintf("%v int=%v fingerprints=%s k=%d", q.Kind, intKeys, fname, k),
						outcome: fmt.Sprintf("traffic=%+v stats=%+v", run.Traffic, run.Stats),
						differs: keysDiffering(want, run.Result),
					})
				}
			}
		}
	}
	return runs
}

// forceKeyFingerprints forces fp(key) on every row of tb, key the number
// joinKeyTable spelled the row's cell from.
func forceKeyFingerprints(t *testing.T, tb *table.Table, seed uint64, fp func(key int) uint64) {
	t.Helper()
	forceFingerprints(t, tb, seed, func(r int) uint64 {
		if tb.ColumnType(0) == table.String {
			key, _ := strconv.Atoi(strings.TrimPrefix(tb.StringAt(0, r), "user"))
			return fp(key)
		}
		return fp(int(tb.Int64At(0, r)))
	})
}

// keysDiffering counts the keys — first cells — whose row is not the same
// in a and b, a key missing from one side included.
func keysDiffering(a, b *Result) int {
	rows := func(r *Result) map[string]string {
		m := make(map[string]string, len(r.Rows))
		for _, row := range r.Rows {
			m[row[0]] = strings.Join(row, "\x00")
		}
		return m
	}
	ra, rb := rows(a), rows(b)
	n := 0
	for k, v := range ra {
		if rb[k] != v {
			n++
		}
	}
	for k := range rb {
		if _, ok := ra[k]; !ok {
			n++
		}
	}
	return n
}

// TestAggCollisions: under fingerprint collisions the switch side is what
// it was — Traffic and Stats equal, digit for digit, those recorded in
// testdata/agg_collisions.golden with the fingerprint-keyed master that
// preceded the id-keyed one — and the master can only move a Result toward
// ExecDirect: each run's Result differs from ExecDirect's in no more keys
// than the recorded run's did, HAVING's and JOIN's in none, and across the
// runs in fewer.
func TestAggCollisions(t *testing.T) {
	f, err := os.Open("testdata/agg_collisions.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	golden := map[string]collisionRun{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		label, rest, _ := strings.Cut(line, ": ")
		outcome, differs, _ := strings.Cut(rest, " differs=")
		n, err := strconv.Atoi(differs)
		if err != nil {
			t.Fatalf("golden line %q: %v", line, err)
		}
		golden[label] = collisionRun{label: label, outcome: outcome, differs: n}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	before, after := 0, 0
	runs := collisionRuns(t)
	if len(runs) != len(golden) {
		t.Fatalf("%d runs, %d recorded", len(runs), len(golden))
	}
	for _, r := range runs {
		g, ok := golden[r.label]
		switch {
		case !ok:
			t.Fatalf("%s: not recorded", r.label)
		case r.outcome != g.outcome:
			t.Fatalf("%s: the switch side moved:\n got %s\nwant %s", r.label, r.outcome, g.outcome)
		case r.differs > g.differs:
			t.Fatalf("%s: differs from ExecDirect in %d keys, the fingerprint-keyed master in %d", r.label, r.differs, g.differs)
		case (strings.HasPrefix(r.label, "having") || strings.HasPrefix(r.label, "join")) && r.differs != 0:
			t.Fatalf("%s: differs from ExecDirect in %d keys", r.label, r.differs)
		}
		before, after = before+g.differs, after+r.differs
	}
	if after >= before {
		t.Fatalf("keyed by id the runs differ from ExecDirect in %d keys, keyed by fingerprint in %d", after, before)
	}
	t.Logf("keys differing from ExecDirect over %d runs: %d keyed by fingerprint, %d keyed by id", len(runs), before, after)
}
