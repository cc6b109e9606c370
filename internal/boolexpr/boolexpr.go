// Package boolexpr implements the predicate-formula algebra behind
// Cheetah's filtering pruner (§4.1). A WHERE clause is a monotone boolean
// formula over basic predicates; predicates the switch cannot evaluate
// (string LIKE, unsupported arithmetic) are replaced by tautologies and
// the formula is reduced, yielding a weaker formula that the switch *can*
// evaluate and that never rejects an entry the original formula accepts.
//
// The reduced formula is compiled to a truth table indexed by the
// bit-vector of basic-predicate outcomes, exactly as the switch looks up
// a prune/forward decision from per-predicate ALU results.
package boolexpr

import (
	"fmt"
	"strings"

	"cheetah/internal/cacheline"
)

// Expr is a boolean formula over numbered predicate variables.
type Expr interface {
	// Eval evaluates the formula given a truth assignment for the
	// predicate variables.
	Eval(assign func(v int) bool) bool
	// String renders the formula.
	String() string
}

// Leaf references basic predicate number V.
type Leaf struct{ V int }

// Const is a boolean constant.
type Const bool

// And is a conjunction of sub-formulas.
type And []Expr

// Or is a disjunction of sub-formulas.
type Or []Expr

// Eval implements Expr.
func (l Leaf) Eval(assign func(int) bool) bool { return assign(l.V) }

// Eval implements Expr.
func (c Const) Eval(func(int) bool) bool { return bool(c) }

// Eval implements Expr.
func (a And) Eval(assign func(int) bool) bool {
	for _, e := range a {
		if !e.Eval(assign) {
			return false
		}
	}
	return true
}

// Eval implements Expr.
func (o Or) Eval(assign func(int) bool) bool {
	for _, e := range o {
		if e.Eval(assign) {
			return true
		}
	}
	return false
}

// String implements Expr.
func (l Leaf) String() string { return fmt.Sprintf("p%d", l.V) }

// String implements Expr.
func (c Const) String() string {
	if c {
		return "T"
	}
	return "F"
}

// String implements Expr.
func (a And) String() string { return joinExprs([]Expr(a), " AND ") }

// String implements Expr.
func (o Or) String() string { return joinExprs([]Expr(o), " OR ") }

func joinExprs(es []Expr, sep string) string {
	if len(es) == 0 {
		return "()"
	}
	parts := make([]string, len(es))
	for i, e := range es {
		parts[i] = e.String()
	}
	return "(" + strings.Join(parts, sep) + ")"
}

// Vars returns the sorted set of predicate variables appearing in e.
func Vars(e Expr) []int {
	set := map[int]bool{}
	collectVars(e, set)
	out := make([]int, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	// Insertion sort: variable sets are tiny.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func collectVars(e Expr, set map[int]bool) {
	switch x := e.(type) {
	case Leaf:
		set[x.V] = true
	case And:
		for _, k := range x {
			collectVars(k, set)
		}
	case Or:
		for _, k := range x {
			collectVars(k, set)
		}
	}
}

// Simplify performs constant folding and flattening:
// AND(T,x) → x, OR(F,x) → x, AND(F,…) → F, OR(T,…) → T, unary nodes
// collapse, and nested same-kind nodes are flattened.
func Simplify(e Expr) Expr {
	switch x := e.(type) {
	case Leaf, Const:
		return e
	case And:
		kids := make([]Expr, 0, len(x))
		for _, k := range x {
			s := Simplify(k)
			switch sk := s.(type) {
			case Const:
				if !bool(sk) {
					return Const(false)
				}
				// drop T
			case And:
				kids = append(kids, sk...)
			default:
				kids = append(kids, s)
			}
		}
		switch len(kids) {
		case 0:
			return Const(true)
		case 1:
			return kids[0]
		}
		return And(kids)
	case Or:
		kids := make([]Expr, 0, len(x))
		for _, k := range x {
			s := Simplify(k)
			switch sk := s.(type) {
			case Const:
				if bool(sk) {
					return Const(true)
				}
				// drop F
			case Or:
				kids = append(kids, sk...)
			default:
				kids = append(kids, s)
			}
		}
		switch len(kids) {
		case 0:
			return Const(false)
		case 1:
			return kids[0]
		}
		return Or(kids)
	default:
		return e
	}
}

// Decompose implements the paper's query decomposition: every predicate
// variable for which supported returns false is replaced by the tautology
// (T ∨ F) ≡ T, and the result is reduced. For the monotone formulas this
// package represents (AND/OR over positive predicates), the returned
// formula is implied by the original: any entry satisfying the original
// satisfies the decomposition, so pruning with it is always safe. The
// residual predicates (the unsupported ones) must still be checked by the
// master.
func Decompose(e Expr, supported func(v int) bool) (switchExpr Expr, residualVars []int) {
	repl := replaceUnsupported(e, supported)
	sw := Simplify(repl)
	var residual []int
	for _, v := range Vars(e) {
		if !supported(v) {
			residual = append(residual, v)
		}
	}
	return sw, residual
}

func replaceUnsupported(e Expr, supported func(int) bool) Expr {
	switch x := e.(type) {
	case Leaf:
		if supported(x.V) {
			return x
		}
		return Const(true)
	case Const:
		return x
	case And:
		out := make(And, len(x))
		for i, k := range x {
			out[i] = replaceUnsupported(k, supported)
		}
		return out
	case Or:
		out := make(Or, len(x))
		for i, k := range x {
			out[i] = replaceUnsupported(k, supported)
		}
		return out
	default:
		return e
	}
}

// MaxTruthTableVars bounds the truth-table width: the switch encodes the
// predicate outcomes as a metadata bit-vector and a 2^n-entry table is
// installed via the control plane; the prototype uses at most 16
// predicates per query.
const MaxTruthTableVars = 16

// TruthTable is the compiled prune/forward lookup: bit i of the index is
// the outcome of the i-th listed predicate.
type TruthTable struct {
	vars  []int
	table []uint64 // bitset of 2^len(vars) outcomes
}

// Compile builds the truth table of e over the given variable ordering.
// Every variable of e must appear in vars (extra vars are allowed and
// become don't-cares).
func Compile(e Expr, vars []int) (*TruthTable, error) {
	if len(vars) > MaxTruthTableVars {
		return nil, fmt.Errorf("boolexpr: %d variables exceed truth-table limit %d", len(vars), MaxTruthTableVars)
	}
	pos := map[int]int{}
	for i, v := range vars {
		if _, dup := pos[v]; dup {
			return nil, fmt.Errorf("boolexpr: duplicate variable p%d", v)
		}
		pos[v] = i
	}
	for _, v := range Vars(e) {
		if _, ok := pos[v]; !ok {
			return nil, fmt.Errorf("boolexpr: formula variable p%d missing from ordering", v)
		}
	}
	n := len(vars)
	size := 1 << n
	// The table is a filter program's register, read on every entry: it
	// must not share a line with what another shard's program writes.
	tt := cacheline.New[TruthTable]()
	*tt = TruthTable{
		vars:  append(cacheline.Make[int](n)[:0], vars...),
		table: cacheline.Make[uint64]((size + 63) / 64),
	}
	for idx := 0; idx < size; idx++ {
		ok := e.Eval(func(v int) bool {
			return idx&(1<<pos[v]) != 0
		})
		if ok {
			tt.table[idx>>6] |= 1 << (idx & 63)
		}
	}
	return tt, nil
}

// NumVars returns the truth table's width.
func (t *TruthTable) NumVars() int { return len(t.vars) }

// Vars returns the variable ordering (bit i of a lookup index is the
// outcome of predicate Vars()[i]).
func (t *TruthTable) Vars() []int { return t.vars }

// Lookup returns the formula outcome for the predicate bit-vector idx.
func (t *TruthTable) Lookup(idx uint32) bool {
	return t.table[idx>>6]&(1<<(idx&63)) != 0
}

// Entries returns the number of table entries (2^NumVars), the quantity
// that counts against switch SRAM.
func (t *TruthTable) Entries() int { return 1 << len(t.vars) }
