package rql

import (
	"fmt"
	"strconv"
	"strings"

	"sqpeer/internal/pattern"
	"sqpeer/internal/rdf"
)

// EvalPathPattern evaluates a single semantic path pattern over a base:
// the pairs related through the pattern's property (with subproperty
// closure from the schema), filtered by end-point class restrictions when
// the pattern narrows the property's declared end-points. This is the
// scan operator of the distributed executor — a peer receiving Q1@P2
// evaluates exactly this.
func EvalPathPattern(base *rdf.Base, schema *rdf.Schema, pat pattern.PathPattern) *ResultSet {
	rs := NewResultSet(pat.SubjectVar, pat.ObjectVar)
	pairs := base.Pairs(pat.Property, schema)
	def, _ := schema.PropertyByName(pat.Property)

	var domainFilter, rangeFilter map[rdf.Term]bool
	if def != nil && pat.Domain != def.Domain && pat.Domain != "" {
		domainFilter = instanceSet(base, schema, pat.Domain)
	}
	if def != nil && pat.Range != def.Range && pat.Range != "" {
		rangeFilter = instanceSet(base, schema, pat.Range)
	}
	for _, pr := range pairs {
		if domainFilter != nil && !domainFilter[pr.X] {
			continue
		}
		if rangeFilter != nil && !pr.Y.IsLiteral() && !rangeFilter[pr.Y] {
			continue
		}
		rs.Add(Row{pat.SubjectVar: pr.X, pat.ObjectVar: pr.Y})
	}
	return rs
}

// EvalPathPatternBatch is EvalPathPattern's columnar twin: the same
// pairs, the same end-point filters, appended straight into a batch — no
// per-row map materialization. This is the scan leaf of the batch data
// plane; the row version above remains the leaf of the centralized
// evaluator (Eval) and of LocalSources that offer no batch scan.
//
// The scan runs in the base's id space: the base merges the property's
// sorted POS ranges into the two columns as base ids and the end-point
// filters test id sets. The batch keeps those ids, and its Dict is the
// base's capacity-capped term snapshot: no term is hashed or copied, and
// the batch joins other scans of the same base as it is (the base's
// dictionary is append-only, so its ids stay valid while the base
// changes).
func EvalPathPatternBatch(base *rdf.Base, schema *rdf.Schema, pat pattern.PathPattern) *Batch {
	b := NewBatch(pat.SubjectVar, pat.ObjectVar)
	def, _ := schema.PropertyByName(pat.Property)

	var domain, rng rdf.IDSet
	if def != nil && pat.Domain != def.Domain && pat.Domain != "" {
		domain = base.InstanceIDs(pat.Domain, schema)
	}
	if def != nil && pat.Range != def.Range && pat.Range != "" {
		rng = base.InstanceIDs(pat.Range, schema)
	}
	xs, ys, terms := base.PairIDs(pat.Property, schema)
	if domain != nil || rng != nil {
		n := 0
		for i, x := range xs {
			y := ys[i]
			if domain != nil && !domain.Has(x) {
				continue
			}
			if rng != nil && !terms[y].IsLiteral() && !rng.Has(y) {
				continue
			}
			xs[n], ys[n] = x, y
			n++
		}
		xs, ys = xs[:n], ys[:n]
	}
	b.Cols[0], b.Cols[1], b.rows = xs, ys, len(xs)
	b.space, b.Dict = base, terms
	return b
}

func instanceSet(base *rdf.Base, schema *rdf.Schema, class rdf.IRI) map[rdf.Term]bool {
	set := map[rdf.Term]bool{}
	for _, t := range base.InstancesOf(class, schema) {
		set[t] = true
	}
	return set
}

// Eval evaluates a compiled query entirely against one local base: scan
// each path pattern, join following the query pattern's join tree, apply
// WHERE filters, project. Peers use it to answer subqueries; the
// integration tests use it as the ground truth a distributed execution
// must reproduce.
func Eval(c *Compiled, base *rdf.Base) (*ResultSet, error) {
	tree, err := c.Pattern.JoinTree()
	if err != nil {
		return nil, fmt.Errorf("rql: eval: %w", err)
	}
	var acc *ResultSet
	tree.Walk(func(id string, _ int) {
		scan := EvalPathPattern(base, c.Schema, tree.Pattern(id))
		if acc == nil {
			acc = scan
		} else {
			acc = acc.Join(scan)
		}
	})
	filtered, err := ApplyFilters(acc, c.Query.Where)
	if err != nil {
		return nil, err
	}
	return filtered.Project(c.Pattern.Projections).Limit(c.Query.Limit), nil
}

// Answer finishes the query's answer on the batch a distributed
// execution returned: WHERE filters first, over every variable the plan
// bound, then projection onto the SELECT list (in order, deduplicating),
// then LIMIT, and one conversion to the row-map form at the end — the
// order Eval applies on row maps. A nil batch is the empty answer.
func (c *Compiled) Answer(b *Batch) (*ResultSet, error) {
	if b == nil {
		b = NewBatch()
	}
	filtered, err := b.Filter(c.Query.Where)
	if err != nil {
		return nil, err
	}
	return filtered.Project(c.Pattern.Projections).Limit(c.Query.Limit).ResultSet(), nil
}

// ApplyFilters applies WHERE conditions to a result set, returning the
// surviving rows. Unbound variables in a condition make the row fail.
func ApplyFilters(rs *ResultSet, conds []Condition) (*ResultSet, error) {
	if len(conds) == 0 {
		return rs, nil
	}
	out := NewResultSet(rs.Vars...)
	for _, r := range rs.Rows {
		keep, err := evalConditions(r, conds)
		if err != nil {
			return nil, err
		}
		if keep {
			out.Add(r)
		}
	}
	return out, nil
}

// Filter is ApplyFilters on the columnar form: the rows of b that satisfy
// every condition, over b's variables and dictionary. The conditions are
// evaluated by the same code, reading bindings from the columns.
func (b *Batch) Filter(conds []Condition) (*Batch, error) {
	if len(conds) == 0 {
		return b, nil
	}
	out := NewBatch(b.Vars...)
	out.adoptDict(b)
	row := &batchRow{b: b}
	ids := make([]int32, len(b.Vars))
	for r := 0; r < b.rows; r++ {
		row.r = r
		keep, err := evalConditions(row, conds)
		if err != nil {
			return nil, err
		}
		if keep {
			for c := range b.Cols {
				ids[c] = b.Cols[c][r]
			}
			out.appendIDs(ids)
		}
	}
	return out, nil
}

// binding is one row seen by the condition evaluator: a Row map, or a
// row of a Batch.
type binding interface {
	lookup(v string) (rdf.Term, bool)
}

func (r Row) lookup(v string) (rdf.Term, bool) {
	t, ok := r[v]
	return t, ok
}

// batchRow is row r of a batch.
type batchRow struct {
	b *Batch
	r int
}

func (br *batchRow) lookup(v string) (rdf.Term, bool) {
	for c, name := range br.b.Vars {
		if name == v {
			if id := br.b.Cols[c][br.r]; id >= 0 {
				return br.b.Dict[id], true
			}
			return rdf.Term{}, false
		}
	}
	return rdf.Term{}, false
}

// evalConditions reports whether the row satisfies every condition.
func evalConditions(r binding, conds []Condition) (bool, error) {
	for _, c := range conds {
		ok, err := evalCondition(r, c)
		if err != nil || !ok {
			return false, err
		}
	}
	return true, nil
}

func evalCondition(r binding, c Condition) (bool, error) {
	left, ok := resolveOperand(r, c.Left)
	if !ok {
		return false, nil
	}
	right, ok := resolveOperand(r, c.Right)
	if !ok {
		return false, nil
	}
	switch c.Op {
	case OpEq:
		return termsEqual(left, right), nil
	case OpNeq:
		return !termsEqual(left, right), nil
	case OpLike:
		return matchLike(termText(left), termText(right)), nil
	case OpLt, OpLe, OpGt, OpGe:
		cmp, err := compareTerms(left, right)
		if err != nil {
			return false, err
		}
		switch c.Op {
		case OpLt:
			return cmp < 0, nil
		case OpLe:
			return cmp <= 0, nil
		case OpGt:
			return cmp > 0, nil
		default:
			return cmp >= 0, nil
		}
	default:
		return false, fmt.Errorf("rql: unsupported operator %s", c.Op)
	}
}

func resolveOperand(r binding, o Operand) (rdf.Term, bool) {
	if o.IsVar() {
		return r.lookup(o.Var)
	}
	return o.Lit, true
}

// termsEqual compares terms by value: two literals are equal when their
// lexical forms match (a plain "5" equals a typed "5"^^xsd:integer, which
// keeps user-facing filters forgiving); other kinds require exact match.
func termsEqual(a, b rdf.Term) bool {
	if a.IsLiteral() && b.IsLiteral() {
		return a.Value == b.Value
	}
	return a == b
}

func termText(t rdf.Term) string { return t.Value }

// compareTerms orders two terms: numerically when both parse as integers,
// lexicographically otherwise.
func compareTerms(a, b rdf.Term) (int, error) {
	av, aerr := strconv.Atoi(a.Value)
	bv, berr := strconv.Atoi(b.Value)
	if aerr == nil && berr == nil {
		switch {
		case av < bv:
			return -1, nil
		case av > bv:
			return 1, nil
		default:
			return 0, nil
		}
	}
	return strings.Compare(a.Value, b.Value), nil
}

// matchLike implements RQL's like with '*' wildcards: the pattern is a
// sequence of segments that must appear in order, anchored at both ends
// unless '*' borders them.
func matchLike(text, pat string) bool {
	segs := strings.Split(pat, "*")
	if len(segs) == 1 {
		return text == pat
	}
	pos := 0
	for i, seg := range segs {
		if seg == "" {
			continue
		}
		idx := strings.Index(text[pos:], seg)
		if idx < 0 {
			return false
		}
		if i == 0 && idx != 0 {
			return false // anchored start
		}
		pos += idx + len(seg)
	}
	if last := segs[len(segs)-1]; last != "" && !strings.HasSuffix(text, last) {
		return false // anchored end
	}
	return true
}
