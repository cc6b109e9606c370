package plan

import (
	"fmt"
	"strings"
	"sync"

	"cheetah/internal/engine"
	"cheetah/internal/prune"
	"cheetah/internal/switchsim"
)

// Mode is the execution path a plan selected.
type Mode uint8

const (
	// ModeDirect runs the query exactly on one node — the fallback when
	// no pruning program fits the switch (or none exists for the kind).
	ModeDirect Mode = iota
	// ModeCheetah runs the in-process batched pruned path.
	ModeCheetah
	// ModeCluster runs the same pruned path with each switch's batches
	// sent over the simulated lossy network with the §7.2 reliability
	// protocol (one cluster.Rack per switch).
	ModeCluster
)

// String renders the mode.
func (m Mode) String() string {
	switch m {
	case ModeCheetah:
		return "cheetah"
	case ModeCluster:
		return "cluster"
	default:
		return "direct"
	}
}

// Plan is the planner's decision for one query: the execution mode, the
// chosen pruning program (for pruned modes), its Table 2 resource
// profile, and a human-readable Reason explaining the choice — including
// why a query fell back to direct execution when the switch cannot host
// it.
type Plan struct {
	Query   *engine.Query
	Mode    Mode
	Model   switchsim.Model
	Workers int
	Seed    uint64
	// Switches is the fabric width the plan was sized for: the planner
	// derives one program per switch (Profile is the per-switch demand),
	// and pruned execution scatters the query across that many pipelines.
	Switches int

	// PrunerName, Guarantee and Profile describe the admitted program;
	// they are zero-valued for ModeDirect.
	PrunerName string
	Guarantee  prune.Guarantee
	Profile    switchsim.Profile
	// Skip reports that execution will consult the table's block skip
	// index (zone maps + Blooms) to avoid reading blocks that provably
	// hold no relevant row. Set for WHERE, TOP N and JOIN plans on
	// indexed tables unless the session disables skipping, in every
	// pruned mode: a skipped block is never encoded, so it is never sent
	// into the rack either. Skipping is exact: results are bit-identical
	// with it on or off.
	Skip bool
	// Reason explains the planning outcome: the parameter derivation for
	// admitted programs, the admission failure chain for fallbacks.
	Reason string

	factory func() (prune.Pruner, error)
	// key is the program's config, its key in the session's free list
	// (nil: not pooled), and free that list.
	key  any
	free *programs
	// probe is the instance admission checked, taken from the free list
	// or built; its state is untouched, so the first execution consumes
	// it instead of paying the construction cost (join Bloom filters are
	// megabytes) twice.
	mu    sync.Mutex
	probe prune.Pruner
}

// NewPruner returns an instance of the planned pruning program with
// clean switch state: the admission probe on the first call, a Reset
// program from the session's free list, else a build, thereafter. Each
// execution gets its own instance, so one plan can run many times (and
// concurrently).
func (p *Plan) NewPruner() (prune.Pruner, error) {
	p.mu.Lock()
	if pr := p.probe; pr != nil {
		p.probe = nil
		p.mu.Unlock()
		return pr, nil
	}
	p.mu.Unlock()
	if pr := p.free.take(p.key); pr != nil {
		return pr, nil
	}
	if p.factory == nil {
		return nil, fmt.Errorf("plan: %v plan has no pruning program", p.Mode)
	}
	return p.factory()
}

// NewShardPruners returns one program instance per fabric switch, each
// with clean state — the per-switch sizing already derived by the
// planner (per-shard Bloom filters, per-shard HAVING thresholds). Each
// instance comes from NewPruner, so the first call consumes the
// planner's state-untouched admission probe, and the others are Reset
// programs from the session's free list, else builds.
func (p *Plan) NewShardPruners() ([]prune.Pruner, error) {
	n := p.Switches
	if n <= 0 {
		n = 1
	}
	out := make([]prune.Pruner, n)
	for i := range out {
		pr, err := p.NewPruner()
		if err != nil {
			return nil, err
		}
		out[i] = pr
	}
	return out, nil
}

// String renders the plan as a one-line summary.
func (p *Plan) String() string {
	if p.Mode == ModeDirect {
		return fmt.Sprintf("plan[%s: direct — %s]", p.Query.Kind, p.Reason)
	}
	return fmt.Sprintf("plan[%s: %s via %s (%s) — %s]",
		p.Query.Kind, p.Mode, p.PrunerName, p.Guarantee, p.Reason)
}

// candidate is one pruning program the planner may pick: a constructor,
// the parameter-derivation note that lands in Plan.Reason, and key, the
// comparable config the constructor builds from — the program's key in
// the session's free list. FILTER and deterministic TOP N leave key nil:
// their programs are a truth table and a few counters, cheaper to build
// than to list (FILTER's config holds predicate slices besides), and
// deterministic TOP N's N arrives from the wire.
type candidate struct {
	desc string
	key  any
	make func() (prune.Pruner, error)
}

// Plan inspects the query and the session's switch model, picks the
// pruning algorithm, derives its parameters from the §5 formulas and
// Table 2 defaults (sized per switch when the session runs a fabric),
// and performs pipeline admission. Queries no program can serve — a JOIN
// whose key columns differ in type (engine.MixedJoinKeys), or a query that
// exceeds the model's resources in every derivable configuration — plan
// as ModeDirect with an explanatory Reason; an invalid query is an error,
// not a fallback.
func (s *Session) Plan(q *engine.Query) (*Plan, error) {
	return s.planFor(q, s.opts.Switches)
}

// planFor plans q for a fabric of the given width. The serving layer
// plans at width 1 — a served query runs whole on its placed switch —
// while Exec plans at the session's width for scatter/gather.
func (s *Session) planFor(q *engine.Query, switches int) (*Plan, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if switches <= 0 {
		switches = 1
	}
	p := &Plan{
		Query:    q,
		Model:    s.opts.Model,
		Workers:  s.opts.Workers,
		Seed:     s.opts.Seed,
		Switches: switches,
	}
	if err := engine.MixedJoinKeys(q); err != nil {
		p.Reason = "no switch can prune it: " + strings.TrimPrefix(err.Error(), "engine: ")
		planSkip(p)
		return p, nil
	}
	var rejections []string
	for _, c := range s.candidates(q, switches) {
		pruner := s.free.take(c.key)
		if pruner == nil {
			var err error
			if pruner, err = c.make(); err != nil {
				rejections = append(rejections, fmt.Sprintf("%s: %v", c.desc, err))
				continue
			}
		}
		prof := pruner.Profile()
		if err := s.opts.Model.Admits(prof); err != nil {
			rejections = append(rejections, fmt.Sprintf("%s: %v", c.desc, err))
			continue
		}
		p.Mode = ModeCheetah
		p.PrunerName = pruner.Name()
		p.Guarantee = pruner.Guarantee()
		p.Profile = prof
		p.Reason = c.desc
		p.factory = c.make
		p.key, p.free = c.key, &s.free
		p.probe = pruner
		break
	}
	if p.Mode == ModeDirect {
		p.Reason = fmt.Sprintf("no pruning program fits %s: %s",
			s.opts.Model.Name, strings.Join(rejections, "; "))
		planSkip(p)
		return p, nil
	}
	if switches > 1 {
		p.Reason += fmt.Sprintf("; ×%d switches (one program per switch, two-level merge)", switches)
	}
	if s.opts.UseCluster {
		if why := offRack(q.Kind); why == "" {
			p.Mode = ModeCluster
		} else {
			p.Reason += "; " + why + ", running in-process"
		}
	}
	planSkip(p)
	return p, nil
}

// planSkip decides whether the plan consults the block skip index. Only
// WHERE, TOP N and JOIN derive block-level bounds (the other kinds need
// every row's exact value). A JOIN additionally wants an index on the
// probe (right) table — the session only indexed its own table at Open,
// so build one here on first use, at the default block size unless the
// caller built it first.
func planSkip(p *Plan) {
	q := p.Query
	switch q.Kind {
	case engine.KindFilter, engine.KindTopN:
		if q.Table.SkipIndex() == nil && q.Table.RootOffset() == 0 {
			// Session.Plan accepts hand-built queries over tables other
			// than the session's; index them on first use too.
			_ = q.Table.BuildSkipIndex(0)
		}
		p.Skip = q.Table.SkipIndex() != nil
	case engine.KindJoin:
		if q.Right.SkipIndex() == nil && q.Right.RootOffset() == 0 {
			_ = q.Right.BuildSkipIndex(0)
		}
		p.Skip = q.Right.SkipIndex() != nil
	}
}

// offRack says why a kind cannot ride the cluster transport, "" when it
// can. The rack's switch forwards or drops the very bytes it received
// (transport.Switch.handleData), fresh or retransmitted, so every program
// that answers by forwarding or dropping rides it, over as many streams as
// its pass takes. GROUP BY SUM's program answers by rewriting the packet
// with the aggregate it evicted: the evicted sum would never reach the
// master, and a retransmitted value the switch had already absorbed would
// be counted twice.
func offRack(k engine.QueryKind) string {
	if k == engine.KindGroupBySum {
		return "program rewrites packets; the §7.2 switch forwards them unmodified"
	}
	return ""
}

// candidates lists the programs that could serve the query, best first,
// sized for one switch of a `switches`-wide fabric. Orderings encode
// the paper's preferences: randomized TOP N at the jointly optimized
// (d, w) before the fixed-d legacy shape before the deterministic
// thresholds; the asymmetric join optimization when one side is much
// smaller (§4.3). Per-switch sizing: join Bloom filters shrink to the
// per-shard key cardinality, and HAVING's sketch threshold tightens to
// ⌊c/switches⌋ so the master's exact global re-check still sees every
// key whose aggregate crosses c only across shards. TOP N keeps the
// full N per switch — each shard must surface its local top N for the
// global re-check.
func (s *Session) candidates(q *engine.Query, switches int) []candidate {
	seed := s.opts.Seed
	if switches <= 0 {
		switches = 1
	}
	switch q.Kind {
	case engine.KindFilter:
		n := len(q.Predicates)
		return []candidate{{
			desc: fmt.Sprintf("truth-table filter over %d predicates", n),
			make: func() (prune.Pruner, error) { return engine.DefaultPruner(q, seed) },
		}}
	case engine.KindDistinct:
		cfg := prune.DefaultDistinctConfig(seed)
		return []candidate{{
			desc: fmt.Sprintf("distinct cache d=%d w=%d %v over %d-bit fingerprints (Table 2)",
				cfg.Rows, cfg.Cols, cfg.Policy, cfg.FingerprintBits),
			key:  cfg,
			make: func() (prune.Pruner, error) { return prune.NewDistinct(cfg) },
		}}
	case engine.KindTopN:
		// A global top-N value lives in exactly one shard, so each of the
		// k independent per-switch programs gets δ/k — the union bound
		// keeps the fabric-wide miss probability within the session's δ.
		perSwitch := delta / float64(switches)
		var cands []candidate
		if cfg, err := prune.PlannedRandTopNConfig(q.N, perSwitch, seed); err == nil {
			cands = append(cands, candidate{
				desc: fmt.Sprintf("randomized top-n d=%d w=%d via OptimalTopNRows(N=%d, δ=%g)",
					cfg.Rows, cfg.Cols, q.N, perSwitch),
				key:  cfg,
				make: func() (prune.Pruner, error) { return prune.NewRandTopN(cfg) },
			})
		}
		// The fixed-d legacy shape is only sound while Theorem 2's
		// premise d ≥ N·e/ln(1/δ) holds; past that the deterministic
		// thresholds are the principled fallback.
		if w, err := prune.TopNColumnsFor(4096, q.N, perSwitch); err == nil {
			legacy := prune.RandTopNConfig{N: q.N, Rows: 4096, Cols: w, Seed: seed}
			cands = append(cands, candidate{
				desc: fmt.Sprintf("randomized top-n d=%d w=%d via TopNColumnsFor(N=%d, δ=%g)",
					legacy.Rows, legacy.Cols, q.N, perSwitch),
				key:  legacy,
				make: func() (prune.Pruner, error) { return prune.NewRandTopN(legacy) },
			})
		}
		det := prune.DefaultDetTopNConfig(q.N)
		cands = append(cands, candidate{
			desc: fmt.Sprintf("deterministic top-n w=%d exponential thresholds (Table 2)", det.Thresholds),
			make: func() (prune.Pruner, error) { return prune.NewDetTopN(det) },
		})
		return cands
	case engine.KindGroupByMax:
		cfg := prune.DefaultGroupByConfig(seed)
		return []candidate{{
			desc: fmt.Sprintf("group-by rolling-max matrix d=%d w=%d (Table 2)", cfg.Rows, cfg.Cols),
			key:  cfg,
			make: func() (prune.Pruner, error) { return prune.NewGroupBy(cfg) },
		}}
	case engine.KindGroupBySum:
		cfg := prune.DefaultGroupBySumConfig(seed)
		return []candidate{{
			desc: fmt.Sprintf("in-switch sum aggregation d=%d w=%d (§6)", cfg.Rows, cfg.Cols),
			key:  cfg,
			make: func() (prune.Pruner, error) { return prune.NewGroupBySum(cfg) },
		}}
	case engine.KindHaving:
		thr := q.Threshold / int64(switches)
		cfg := prune.DefaultHavingConfig(thr, seed)
		desc := fmt.Sprintf("count-min sketch %d×%d, threshold %d, partial second pass (Table 2)",
			cfg.Rows, cfg.CountersPerRow, q.Threshold)
		if switches > 1 {
			desc = fmt.Sprintf("count-min sketch %d×%d, per-switch threshold ⌊%d/%d⌋=%d with exact global re-check",
				cfg.Rows, cfg.CountersPerRow, q.Threshold, switches, thr)
		}
		return []candidate{{
			desc: desc,
			key:  cfg,
			make: func() (prune.Pruner, error) { return prune.NewHaving(cfg) },
		}}
	case engine.KindJoin:
		left, right := q.Table.NumRows(), q.Right.NumRows()
		// Hash sharding splits the key space across switches, so each
		// switch's filter only has to hold its shard's keys.
		perShard := func(rows int) int { return (rows + switches - 1) / switches }
		// §4.3's small-table optimization: when the left (build) side is
		// much smaller, stream it once unpruned while its filter trains
		// and prune only the big side. The pruner fixes the left table
		// as the build side, so a small *right* table stays symmetric.
		if left*8 <= right {
			// Only the small build side's keys enter the filter.
			asym := prune.JoinConfig{
				FilterBits: prune.JoinFilterBitsFor(perShard(left)), Hashes: 3,
				Seed: seed, Asymmetric: true,
			}
			return []candidate{{
				desc: fmt.Sprintf("asymmetric bloom join M=%s H=%d per switch (small left side %d≪%d, §4.3)",
					switchsim.FormatBits(2*asym.FilterBits), asym.Hashes, left, right),
				key:  asym,
				make: func() (prune.Pruner, error) { return prune.NewJoin(asym) },
			}}
		}
		keys := perShard(max(left, right))
		cfg := prune.JoinConfig{FilterBits: prune.JoinFilterBitsFor(keys), Hashes: 3, Seed: seed}
		return []candidate{{
			desc: fmt.Sprintf("two-pass bloom join M=%s H=%d sized for %d keys per switch (Table 2)",
				switchsim.FormatBits(2*cfg.FilterBits), cfg.Hashes, keys),
			key:  cfg,
			make: func() (prune.Pruner, error) { return prune.NewJoin(cfg) },
		}}
	case engine.KindSkyline:
		cfg := prune.DefaultSkylineConfig(len(q.SkylineCols))
		return []candidate{{
			desc: fmt.Sprintf("skyline %s heuristic, w=%d stored points, D=%d (§4.4)",
				cfg.Heuristic, cfg.Points, cfg.Dims),
			key:  cfg,
			make: func() (prune.Pruner, error) { return prune.NewSkyline(cfg) },
		}}
	}
	return nil
}
