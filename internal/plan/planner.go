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

	// prog is the admitted program (engine.Program: its constructor and
	// its key in the session's free list), and free that list.
	prog engine.Program
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
	if pr := p.free.take(p.prog.Key); pr != nil {
		return pr, nil
	}
	if p.prog.Build == nil {
		return nil, fmt.Errorf("plan: %v plan has no pruning program", p.Mode)
	}
	return p.prog.Build()
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

// Plan inspects the query and the session's switch model and admits the
// first of the kind's programs (engine.Programs: Table 2's defaults, with
// parameters derived from the §5 formulas and sized per switch when the
// session runs a fabric) that fits the model's pipeline. Queries no program can serve — a JOIN
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
	for _, c := range engine.Programs(q, switches, s.opts.Seed) {
		pruner := s.free.take(c.Key)
		if pruner == nil {
			var err error
			if pruner, err = c.Build(); err != nil {
				rejections = append(rejections, fmt.Sprintf("%s: %v", c.Reason, err))
				continue
			}
		}
		prof := pruner.Profile()
		if err := s.opts.Model.Admits(prof); err != nil {
			rejections = append(rejections, fmt.Sprintf("%s: %v", c.Reason, err))
			continue
		}
		p.Mode = ModeCheetah
		p.PrunerName = pruner.Name()
		p.Guarantee = pruner.Guarantee()
		p.Profile = prof
		p.Reason = c.Reason
		p.prog, p.free = c, &s.free
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
		if why := q.Kind.OffRack(); why == "" {
			p.Mode = ModeCluster
		} else {
			p.Reason += "; " + why + ", running in-process"
		}
	}
	planSkip(p)
	return p, nil
}

// planSkip decides whether the plan consults the block skip index of the
// table that bounds the query's scan (engine.SkipTable). The session
// indexed only its own table at Open, so any other — a JOIN's right
// table, a hand-built query's table — gets an index here on first use, at
// the default block size unless the caller built one first.
func planSkip(p *Plan) {
	t := engine.SkipTable(p.Query)
	if t == nil {
		return
	}
	if t.SkipIndex() == nil && t.RootOffset() == 0 {
		_ = t.BuildSkipIndex(0)
	}
	p.Skip = t.SkipIndex() != nil
}
