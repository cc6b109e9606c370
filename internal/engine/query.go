// Package engine implements the query execution substrate Cheetah plugs
// into: a Spark-SQL-like engine with columnar partitions, worker tasks
// and a master that completes queries — plus the Cheetah execution path
// where workers serialize entries, the switch prunes them, and the master
// finishes the query on the surviving subset (§3). A calibrated cost
// model (cost.go) converts measured entry counts into completion times
// with the paper's bottleneck structure.
package engine

import (
	"fmt"
	"slices"
	"strings"

	"cheetah/internal/boolexpr"
	"cheetah/internal/prune"
	"cheetah/internal/table"
)

// QueryKind enumerates the query shapes Cheetah offloads (§4).
type QueryKind uint8

const (
	// KindFilter is SELECT * WHERE <formula>.
	KindFilter QueryKind = iota
	// KindDistinct is SELECT DISTINCT cols.
	KindDistinct
	// KindTopN is SELECT TOP n ... ORDER BY col.
	KindTopN
	// KindGroupByMax is SELECT key, MAX(val) GROUP BY key.
	KindGroupByMax
	// KindGroupBySum is SELECT key, SUM(val) GROUP BY key.
	KindGroupBySum
	// KindHaving is SELECT key GROUP BY key HAVING SUM(val) > c.
	KindHaving
	// KindJoin is SELECT * FROM a JOIN b ON a.k = b.k.
	KindJoin
	// KindSkyline is SELECT ... SKYLINE OF cols.
	KindSkyline
)

// FilterPred is one WHERE predicate over a named column: either a numeric
// comparison the switch can evaluate, or a LIKE pattern it cannot (the
// CWorker precomputes those, §4.1).
type FilterPred struct {
	Col   string
	Op    prune.CmpOp
	Const int64
	// Like, when non-empty, makes this a string LIKE predicate with %
	// wildcards; Op/Const are ignored.
	Like string
}

// SwitchSupported reports whether the switch can evaluate the predicate.
func (p FilterPred) SwitchSupported() bool { return p.Like == "" }

// MatchLike implements SQL LIKE with the % (any sequence) and _ (exactly
// one byte) wildcards; no escapes. Matching is byte-wise, which covers
// the ASCII workloads the paper benchmarks.
func MatchLike(s, pattern string) bool {
	// Greedy match with single-level backtracking to the most recent %:
	// a mismatch after a % retries the suffix one byte further along.
	si, pi := 0, 0
	star, resume := -1, 0
	for si < len(s) {
		switch {
		// The wildcard test precedes the literal test: a '%' in the
		// pattern is always the any-sequence wildcard, even when the
		// data byte at this position happens to be a literal '%'.
		case pi < len(pattern) && pattern[pi] == '%':
			star = pi
			resume = si
			pi++
		case pi < len(pattern) && (pattern[pi] == '_' || pattern[pi] == s[si]):
			si++
			pi++
		case star >= 0:
			resume++
			si = resume
			pi = star + 1
		default:
			return false
		}
	}
	for pi < len(pattern) && pattern[pi] == '%' {
		pi++
	}
	return pi == len(pattern)
}

// Eval evaluates the predicate against row r of t.
func (p FilterPred) Eval(t *table.Table, col int, r int) bool {
	if p.Like != "" {
		return MatchLike(t.StringAt(col, r), p.Like)
	}
	return p.Op.Holds(t.Int64At(col, r), p.Const)
}

// Query is a declarative query spec consumed by both execution paths.
type Query struct {
	Kind  QueryKind
	Table *table.Table
	// Right is the probe-side table for KindJoin.
	Right *table.Table

	// Filter fields.
	Predicates []FilterPred
	Formula    boolexpr.Expr // leaves index Predicates
	CountOnly  bool          // SELECT COUNT(*): result is a single count row

	// Distinct fields.
	DistinctCols []string

	// TopN fields.
	OrderCol string
	N        int

	// GroupBy / Having fields.
	KeyCol    string
	AggCol    string
	Threshold int64

	// Join fields.
	LeftKey, RightKey string

	// Skyline fields.
	SkylineCols []string
}

// MixedJoinKeys returns why no switch can prune q when it is a valid JOIN
// whose key columns have different types, and nil for every other query.
// The switch's Bloom filters would see one side's Int64 fingerprints
// (HashUint64) and the other's String fingerprints (HashString64), which
// never meet, so every joinable row would be pruned. ExecDirect joins such
// keys through their rendered cells; the pruned paths refuse them.
func MixedJoinKeys(q *Query) error {
	if q.Kind != KindJoin {
		return nil
	}
	lt := q.Table.ColumnType(q.Table.Schema().MustIndex(q.LeftKey))
	rt := q.Right.ColumnType(q.Right.Schema().MustIndex(q.RightKey))
	if lt == rt {
		return nil
	}
	return fmt.Errorf("engine: a pruned join needs same-typed keys, %q is %s and %q is %s",
		q.LeftKey, lt, q.RightKey, rt)
}

// Result is a canonical query result: column names plus textual rows,
// sorted for order-insensitive comparison.
type Result struct {
	Columns []string
	Rows    [][]string
}

// Sort puts the rows into the canonical order, CompareRows': cell by
// cell, which makes results comparable. It is the one result sort: the
// ExecDirect oracle calls it, and so do the completions that have no
// dictionary to walk — FILTER, SKYLINE, multi-column DISTINCT. The keyed
// completions build their rows in its order and never call it; the stream
// mergers and subscription change sets keep rows in its order.
func (r *Result) Sort() { sortRows(r.Rows) }

// Equal reports whether two sorted results match exactly, headers and
// rows.
func (r *Result) Equal(o *Result) bool {
	if o == nil || !slices.Equal(r.Columns, o.Columns) || len(r.Rows) != len(o.Rows) {
		return false
	}
	for i := range r.Rows {
		if len(r.Rows[i]) != len(o.Rows[i]) {
			return false
		}
		for j := range r.Rows[i] {
			if r.Rows[i][j] != o.Rows[i][j] {
				return false
			}
		}
	}
	return true
}

// String renders the result compactly for examples and debugging.
func (r *Result) String() string {
	var b strings.Builder
	b.WriteString(strings.Join(r.Columns, " | "))
	b.WriteByte('\n')
	for i, row := range r.Rows {
		if i >= 20 {
			fmt.Fprintf(&b, "... (%d rows total)\n", len(r.Rows))
			break
		}
		b.WriteString(strings.Join(row, " | "))
		b.WriteByte('\n')
	}
	return b.String()
}
