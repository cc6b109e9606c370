package engine

import (
	"cmp"
	"fmt"
	"slices"

	"cheetah/internal/boolexpr"
	"cheetah/internal/prune"
	"cheetah/internal/switchsim"
	"cheetah/internal/table"
)

// The kind table declares each query kind once: its name, validation and
// result header, its switch programs (Table 2's configurations, sized by §5
// and per switch), the table its skip index bounds, its delta kind, and
// whether it is windowed or rides the §7.2 rack. Every dispatch on those
// facts is a lookup here. The oracle (direct.go) keeps its own, so that
// "≡ ExecDirect" stays a check, not a tautology, and so do the pass
// families (pass.go, agg.go, partial.go) and the stream's mergers.

// topNDelta is the failure probability randomized TOP N programs are sized
// for (Theorems 2 and 3), split δ/k over k switches.
const topNDelta = 1e-4

// kindSpec is one kind's entry in the table.
type kindSpec struct {
	name     string
	validate func(q *Query) error    // the kind's fields of q, against its tables
	columns  func(q *Query) []string // ResultColumns
	// programs lists the switch programs that can serve q on one of
	// shards switches, best first.
	programs func(q *Query, shards int, seed uint64) []Program
	// skipTable is the table whose skip index bounds q's scan (nil: no
	// sound block bound, skip.go); directSkip runs ExecDirect under it.
	skipTable  func(q *Query) *table.Table
	directSkip func(q *Query) (*Result, SkipStats, error)
	sumDeltas  bool   // a standing query's deltas run as GROUP BY SUM
	windowed   bool   // windowed subscriptions can fold its panes
	offRack    string // why it cannot ride the §7.2 rack, "" when it can
}

// Program is one switch program that can serve a query: the derivation
// note the planner reports as its Reason; Key, the comparable config Build
// builds from, its key in a session's free list — nil for FILTER's truth
// table (its config holds slices) and deterministic TOP N's few counters
// (its N arrives from the wire), cheaper to build than to list; and use.
type Program struct {
	Reason string
	Key    any
	Build  func() (prune.Pruner, error)
	use    programUse
}

// programUse says who may run a program. The planner picks among all but
// the engine's defaults; with no program pinned, the engine runs the first
// that is not the planner's alone.
type programUse uint8

const (
	useBoth programUse = iota
	usePlanner
	useDefault
)

// pooled is the Program that builds cfg with build, keyed by cfg.
func pooled[C any, P prune.Pruner](use programUse, build func(C) (P, error), cfg C, format string, args ...any) Program {
	return Program{Reason: fmt.Sprintf(format, args...), Key: cfg,
		Build: func() (prune.Pruner, error) { return build(cfg) }, use: use}
}

// kinds is the table, indexed by QueryKind.
var kinds = [...]kindSpec{
	KindFilter: {
		name: "filter",
		validate: func(q *Query) error {
			if len(q.Predicates) == 0 || q.Formula == nil {
				return fmt.Errorf("engine: filter query needs predicates and a formula")
			}
			for _, p := range q.Predicates {
				want, role := table.Int64, "comparison"
				if p.Like != "" {
					want, role = table.String, "LIKE"
				}
				if err := needTyped(q.Table, p.Col, want, role); err != nil {
					return err
				}
			}
			for _, v := range boolexpr.Vars(q.Formula) {
				if v < 0 || v >= len(q.Predicates) {
					return fmt.Errorf("engine: formula references predicate %d of %d", v, len(q.Predicates))
				}
			}
			return nil
		},
		columns: func(q *Query) []string {
			if q.CountOnly {
				return []string{"count"}
			}
			names := make([]string, q.Table.NumCols())
			for i, d := range q.Table.Schema() {
				names[i] = d.Name
			}
			return names
		},
		programs: func(q *Query, _ int, _ uint64) []Program {
			return []Program{{
				Reason: fmt.Sprintf("truth-table filter over %d predicates", len(q.Predicates)),
				Build:  func() (prune.Pruner, error) { return newFilter(q) },
			}}
		},
		skipTable:  func(q *Query) *table.Table { return q.Table },
		directSkip: execFilterSkip,
	},
	KindDistinct: {
		name: "distinct",
		validate: func(q *Query) error {
			if len(q.DistinctCols) == 0 {
				return fmt.Errorf("engine: distinct query needs columns")
			}
			for _, c := range q.DistinctCols {
				if err := needCol(q.Table, c); err != nil {
					return err
				}
			}
			return nil
		},
		columns: func(q *Query) []string { return slices.Clone(q.DistinctCols) },
		programs: func(_ *Query, _ int, seed uint64) []Program {
			cfg := prune.DefaultDistinctConfig(seed)
			return []Program{pooled(useBoth, prune.NewDistinct, cfg,
				"distinct cache d=%d w=%d %v over %d-bit fingerprints (Table 2)",
				cfg.Rows, cfg.Cols, cfg.Policy, cfg.FingerprintBits)}
		},
	},
	KindTopN: {
		name: "topn",
		validate: func(q *Query) error {
			if q.N <= 0 {
				return fmt.Errorf("engine: top-n needs N > 0")
			}
			return needTyped(q.Table, q.OrderCol, table.Int64, "ORDER BY")
		},
		columns:    func(q *Query) []string { return []string{q.OrderCol} },
		programs:   topNPrograms,
		skipTable:  func(q *Query) *table.Table { return q.Table },
		directSkip: execTopNSkip,
		windowed:   true,
	},
	KindGroupByMax: {
		name:     "groupby-max",
		validate: validateAgg,
		columns:  func(q *Query) []string { return []string{q.KeyCol, "max(" + q.AggCol + ")"} },
		programs: func(_ *Query, _ int, seed uint64) []Program {
			cfg := prune.DefaultGroupByConfig(seed)
			return []Program{pooled(useBoth, prune.NewGroupBy, cfg,
				"group-by rolling-max matrix d=%d w=%d (Table 2)", cfg.Rows, cfg.Cols)}
		},
		windowed: true,
	},
	KindGroupBySum: {
		name:     "groupby-sum",
		validate: validateAgg,
		columns:  func(q *Query) []string { return []string{q.KeyCol, "sum(" + q.AggCol + ")"} },
		programs: func(_ *Query, _ int, seed uint64) []Program {
			cfg := prune.DefaultGroupBySumConfig(seed)
			return []Program{pooled(useBoth, prune.NewGroupBySum, cfg,
				"in-switch sum aggregation d=%d w=%d (§6)", cfg.Rows, cfg.Cols)}
		},
		windowed: true,
		// The rack's switch forwards or drops the bytes it received
		// (transport.Switch.handleData). This program rewrites the packet
		// with the aggregate it evicted, which would never reach the
		// master, and would count a retransmitted value twice.
		offRack: "program rewrites packets; the §7.2 switch forwards them unmodified",
	},
	KindHaving: {
		name: "having",
		validate: func(q *Query) error {
			if err := validateAgg(q); err != nil || q.Threshold >= 0 {
				return err
			}
			return fmt.Errorf("engine: having threshold must be non-negative")
		},
		columns: func(q *Query) []string { return []string{q.KeyCol} },
		// Each switch's sketch is thresholded at ⌊T/k⌋: a key whose global
		// sum exceeds T has a local sum above that on some shard, and the
		// master's exact global re-check drops the rest.
		programs: func(q *Query, shards int, seed uint64) []Program {
			thr := q.Threshold / int64(shards)
			cfg := prune.DefaultHavingConfig(thr, seed)
			p := pooled(useBoth, prune.NewHaving, cfg, "count-min sketch %d×%d, threshold %d, partial second pass (Table 2)",
				cfg.Rows, cfg.CountersPerRow, q.Threshold)
			if shards > 1 {
				p.Reason = fmt.Sprintf("count-min sketch %d×%d, per-switch threshold ⌊%d/%d⌋=%d with exact global re-check",
					cfg.Rows, cfg.CountersPerRow, q.Threshold, shards, thr)
			}
			return []Program{p}
		},
		// Keys cross the threshold only in aggregate, so a standing HAVING
		// keeps full per-key sums and applies the threshold to them.
		sumDeltas: true,
		windowed:  true,
	},
	KindJoin: {
		name: "join",
		validate: func(q *Query) error {
			if q.Right == nil {
				return fmt.Errorf("engine: join needs a right table")
			}
			if err := needCol(q.Table, q.LeftKey); err != nil || q.Right.Schema().Index(q.RightKey) >= 0 {
				return err
			}
			return fmt.Errorf("engine: unknown right column %q", q.RightKey)
		},
		columns:    func(q *Query) []string { return []string{q.LeftKey, "pairs"} },
		programs:   joinPrograms,
		skipTable:  func(q *Query) *table.Table { return q.Right },
		directSkip: execJoinSkip,
	},
	KindSkyline: {
		name: "skyline",
		validate: func(q *Query) error {
			if len(q.SkylineCols) < 2 {
				return fmt.Errorf("engine: skyline needs at least two dimensions")
			}
			for _, c := range q.SkylineCols {
				if err := needTyped(q.Table, c, table.Int64, "skyline"); err != nil {
					return err
				}
			}
			return nil
		},
		columns: func(q *Query) []string { return slices.Clone(q.SkylineCols) },
		programs: func(q *Query, _ int, _ uint64) []Program {
			cfg := prune.DefaultSkylineConfig(len(q.SkylineCols))
			return []Program{pooled(useBoth, prune.NewSkyline, cfg,
				"skyline %s heuristic, w=%d stored points, D=%d (§4.4)", cfg.Heuristic, cfg.Points, cfg.Dims)}
		},
	},
}

// topNPrograms lists, best first, the randomized matrix at the jointly
// optimized (d, w) — the planner's alone — then Table 2's d = 4096 matrix
// with Theorem 2's column count, sound only while d ≥ N·e/ln(1/δ), then
// the deterministic thresholds. Each switch keeps the full N, for the
// master's global re-check, at δ/k: a global top-N value lives in exactly
// one shard, so the union bound over k programs keeps the fabric's miss
// probability at δ.
func topNPrograms(q *Query, shards int, seed uint64) []Program {
	perSwitch := topNDelta / float64(shards)
	var ps []Program
	if d, w, err := prune.OptimalTopNRows(q.N, perSwitch); err == nil {
		cfg := prune.RandTopNConfig{N: q.N, Rows: d, Cols: w, Seed: seed}
		ps = append(ps, pooled(usePlanner, prune.NewRandTopN, cfg, "randomized top-n d=%d w=%d via OptimalTopNRows(N=%d, δ=%g)",
			cfg.Rows, cfg.Cols, q.N, perSwitch))
	}
	if w, err := prune.TopNColumnsFor(4096, q.N, perSwitch); err == nil {
		cfg := prune.RandTopNConfig{N: q.N, Rows: 4096, Cols: w, Seed: seed}
		ps = append(ps, pooled(useBoth, prune.NewRandTopN, cfg, "randomized top-n d=%d w=%d via TopNColumnsFor(N=%d, δ=%g)",
			cfg.Rows, cfg.Cols, q.N, perSwitch))
	}
	det := prune.DefaultDetTopNConfig(q.N)
	return append(ps, Program{
		Reason: fmt.Sprintf("deterministic top-n w=%d exponential thresholds (Table 2)", det.Thresholds),
		Build:  func() (prune.Pruner, error) { return prune.NewDetTopN(det) },
	})
}

// joinPrograms sizes JOIN's Bloom filters. The planner sizes them to the
// keys one switch holds — hash sharding splits the key space across
// switches — and prefers §4.3's asymmetric program when the left (build)
// side is much smaller: it streams once unpruned while its filter trains,
// only its keys enter the filter, and only the big side is pruned. The
// pruner fixes the left table as the build side, so a small right table
// stays symmetric. The engine's default is Table 2's 4 MB filters.
func joinPrograms(q *Query, shards int, seed uint64) []Program {
	left, right := q.Table.NumRows(), q.Right.NumRows()
	cfg := prune.JoinConfig{Hashes: 3, Seed: seed, Asymmetric: left*8 <= right}
	keys := max(left, right)
	if cfg.Asymmetric {
		keys = left
	}
	keys = (keys + shards - 1) / shards
	cfg.FilterBits = prune.JoinFilterBitsFor(keys)
	m := switchsim.FormatBits(2 * cfg.FilterBits)
	p := pooled(usePlanner, prune.NewJoin, cfg, "two-pass bloom join M=%s H=%d sized for %d keys per switch (Table 2)",
		m, cfg.Hashes, keys)
	if cfg.Asymmetric {
		p.Reason = fmt.Sprintf("asymmetric bloom join M=%s H=%d per switch (small left side %d≪%d, §4.3)",
			m, cfg.Hashes, left, right)
	}
	return []Program{p, pooled(useDefault, prune.NewJoin, prune.DefaultJoinConfig(seed),
		"two-pass bloom join, Table 2's 4 MB filters")}
}

// spec returns k's entry, nil for a kind outside the table — a hostile
// byte off the wire, say.
func (k QueryKind) spec() *kindSpec {
	if int(k) < len(kinds) {
		return &kinds[k]
	}
	return nil
}

// String renders the kind.
func (k QueryKind) String() string {
	if s := k.spec(); s != nil {
		return s.name
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// DeltaKind is the kind a standing query of kind k runs its deltas as:
// HAVING's run as GROUP BY SUM, every other kind's as itself.
func (k QueryKind) DeltaKind() QueryKind {
	if s := k.spec(); s != nil && s.sumDeltas {
		return KindGroupBySum
	}
	return k
}

// Windowed reports whether a subscription of kind k may be windowed: the
// aggregate kinds (TOP N, GROUP BY MAX / SUM, HAVING), whose panes fold.
func (k QueryKind) Windowed() bool { return kinds[k].windowed }

// OffRack says why a query of kind k cannot ride the §7.2 rack, "" when
// it can: every program that answers by forwarding or dropping rides it.
func (k QueryKind) OffRack() string { return kinds[k].offRack }

// Validate checks the spec against its table schemas.
func (q *Query) Validate() error {
	if q.Table == nil {
		return fmt.Errorf("engine: query needs a table")
	}
	if s := q.Kind.spec(); s != nil {
		return s.validate(q)
	}
	return fmt.Errorf("engine: unknown query kind %d", q.Kind)
}

// needCol checks that t has the column col. needTyped also checks its
// type: the encode path reads Int64 columns with Int64At (a String column
// would panic there) and LIKE patterns only apply to String columns.
func needCol(t *table.Table, col string) error {
	if t.Schema().Index(col) < 0 {
		return fmt.Errorf("engine: unknown column %q", col)
	}
	return nil
}

func needTyped(t *table.Table, col string, want table.Type, role string) error {
	if err := needCol(t, col); err != nil {
		return err
	}
	if got := t.Schema()[t.Schema().Index(col)].Type; got != want {
		return fmt.Errorf("engine: %s column %q is %s, need %s", role, col, got, want)
	}
	return nil
}

// validateAgg checks a keyed aggregate: any key column, an Int64 value.
func validateAgg(q *Query) error {
	return cmp.Or(needCol(q.Table, q.KeyCol), needTyped(q.Table, q.AggCol, table.Int64, "aggregate"))
}

// ResultColumns returns the header of q's result. Every pruned completion
// and standing merger heads its result with it; the direct executor states
// its own headers, as the oracle they are checked against.
func ResultColumns(q *Query) []string { return kinds[q.Kind].columns(q) }

// SkipTable returns the table whose block skip index bounds the validated
// query q's scan, nil for the kinds that need every row's exact value.
func SkipTable(q *Query) *table.Table {
	if f := kinds[q.Kind].skipTable; f != nil {
		return f(q)
	}
	return nil
}

// Programs lists the switch programs the planner may pick for the
// validated query q on one switch of a shards-wide fabric, best first.
func Programs(q *Query, shards int, seed uint64) []Program {
	return slices.DeleteFunc(kinds[q.Kind].programs(q, shards, seed),
		func(p Program) bool { return p.use == useDefault })
}

// DefaultPruner builds a kind's default single-switch program: the one
// ExecCheetah runs, and the tests' scalar reference (scalar_ref_test.go)
// too, unless CheetahOptions.Pruner pins another.
func DefaultPruner(q *Query, seed uint64) (prune.Pruner, error) {
	return defaultShardPruner(q, 1, seed)
}

// defaultShardPruner builds the default program of one of shards switches
// (1 for the single-switch execution): the first of the kind's programs
// that is not the planner's alone.
func defaultShardPruner(q *Query, shards int, seed uint64) (prune.Pruner, error) {
	if s := q.Kind.spec(); s != nil {
		for _, p := range s.programs(q, shards, seed) {
			if p.use != usePlanner {
				return p.Build()
			}
		}
	}
	return nil, fmt.Errorf("engine: no default pruner for %v", q.Kind)
}

// newFilter compiles q's formula into the switch's truth-table filter.
// Supported predicates run on the switch; LIKE predicates are precomputed
// by the CWorker and shipped as bits (§4.1), so the full formula is
// evaluable in the dataplane.
func newFilter(q *Query) (*prune.Filter, error) {
	preds := make([]prune.Predicate, len(q.Predicates))
	for i, p := range q.Predicates {
		if p.SwitchSupported() {
			preds[i] = prune.Predicate{ValIdx: i, Op: p.Op, Const: p.Const}
		} else {
			preds[i] = prune.Predicate{ValIdx: i, Precomputed: true}
		}
	}
	return prune.NewFilter(prune.FilterConfig{Predicates: preds, Formula: q.Formula})
}
