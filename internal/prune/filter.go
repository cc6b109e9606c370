package prune

import (
	"fmt"

	"cheetah/internal/boolexpr"
	"cheetah/internal/cacheline"
	"cheetah/internal/switchsim"
)

// CmpOp is a comparison operator the switch ALUs support (§4.1).
type CmpOp uint8

const (
	// OpGT is >.
	OpGT CmpOp = iota
	// OpGE is >=.
	OpGE
	// OpLT is <.
	OpLT
	// OpLE is <=.
	OpLE
	// OpEQ is ==.
	OpEQ
	// OpNE is !=.
	OpNE
)

// String renders the operator.
func (o CmpOp) String() string {
	switch o {
	case OpGT:
		return ">"
	case OpGE:
		return ">="
	case OpLT:
		return "<"
	case OpLE:
		return "<="
	case OpEQ:
		return "=="
	case OpNE:
		return "!="
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Holds reports whether v ⟨o⟩ c; an unknown operator holds for nothing.
func (o CmpOp) Holds(v, c int64) bool {
	switch o {
	case OpGT:
		return v > c
	case OpGE:
		return v >= c
	case OpLT:
		return v < c
	case OpLE:
		return v <= c
	case OpEQ:
		return v == c
	case OpNE:
		return v != c
	}
	return false
}

// Predicate is one basic predicate of a WHERE clause, in one of two
// forms:
//
//   - a switch-evaluable comparison ValIdx-th value ⟨Op⟩ Const, or
//   - a worker-precomputed bit (Precomputed=true): the CWorker evaluates
//     an unsupported predicate (e.g. name LIKE 'e%s') host-side and ships
//     the boolean as value ValIdx (§4.1: "the CWorker can compute
//     (name LIKE e%s) and add the result as one of the values in the
//     sent packet").
type Predicate struct {
	ValIdx      int
	Op          CmpOp
	Const       int64
	Precomputed bool
}

// Eval evaluates the predicate against an entry's header values.
func (p Predicate) Eval(vals []uint64) bool {
	if p.Precomputed {
		return vals[p.ValIdx] != 0
	}
	return p.Op.Holds(int64(vals[p.ValIdx]), p.Const)
}

// FilterConfig configures the filtering pruner.
type FilterConfig struct {
	// Predicates are the basic predicates; boolexpr.Leaf{i} in Formula
	// refers to Predicates[i].
	Predicates []Predicate
	// Formula is the monotone WHERE formula over the predicates. The
	// caller has already decomposed away unsupported predicates
	// (boolexpr.Decompose) or arranged for them to arrive precomputed.
	Formula boolexpr.Expr
}

// Filter prunes entries failing the switch-evaluable part of a WHERE
// clause: every predicate is one ALU comparison producing a metadata bit,
// and the bit-vector indexes a truth table that yields the prune/forward
// verdict (§4.1).
type Filter struct {
	cfg FilterConfig
	tt  *boolexpr.TruthTable
	tally
}

// NewFilter builds the pruner, compiling the formula to its truth table.
func NewFilter(cfg FilterConfig) (*Filter, error) {
	if len(cfg.Predicates) == 0 {
		return nil, fmt.Errorf("prune: filter needs at least one predicate")
	}
	if cfg.Formula == nil {
		return nil, fmt.Errorf("prune: filter needs a formula")
	}
	for i, pr := range cfg.Predicates {
		if pr.ValIdx < 0 {
			return nil, fmt.Errorf("prune: predicate %d has negative value index", i)
		}
	}
	vars := make([]int, len(cfg.Predicates))
	for i := range vars {
		vars[i] = i
	}
	tt, err := boolexpr.Compile(cfg.Formula, vars)
	if err != nil {
		return nil, err
	}
	p := cacheline.New[Filter]()
	*p = Filter{cfg: cfg, tt: tt}
	p.cfg.Predicates = append(cacheline.Make[Predicate](len(cfg.Predicates))[:0], cfg.Predicates...)
	return p, nil
}

// Name implements Pruner.
func (p *Filter) Name() string { return "filter" }

// Guarantee implements Pruner.
func (p *Filter) Guarantee() Guarantee { return Deterministic }

// Profile implements switchsim.Program: one ALU per predicate (A.2.2:
// "filtering a single condition requires just 1 ALU"), one 32-bit
// register per runtime-configurable constant, and the truth table (one
// SRAM word per entry) in a final stage.
func (p *Filter) Profile() switchsim.Profile {
	n := len(p.cfg.Predicates)
	return switchsim.Profile{
		Name:         p.Name(),
		Stages:       1 + ceilDiv(n, DefaultALUsPerStage),
		ALUs:         n + 1,
		SRAMBits:     n*32 + p.tt.Entries(),
		MetadataBits: 64 + n,
	}
}

// Process implements switchsim.Program: evaluate predicate bits, look up
// the truth table, prune on false.
func (p *Filter) Process(vals []uint64) switchsim.Decision {
	p.stats.Processed++
	var idx uint32
	for i, pr := range p.cfg.Predicates {
		if pr.Eval(vals) {
			idx |= 1 << uint(i)
		}
	}
	if !p.tt.Lookup(idx) {
		p.stats.Pruned++
		return switchsim.Prune
	}
	return switchsim.Forward
}

// Reset implements switchsim.Program. Filtering is stateless, so only
// the statistics clear.
func (p *Filter) Reset() { p.stats = Stats{} }
