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
// pairs, the same end-point filters, appended straight into a batch with
// interned term ids — no per-row map materialization. This is the scan
// leaf of the batch data plane; the row version above remains the leaf
// of the centralized evaluator (Eval) and of LocalSources that offer no
// batch scan.
func EvalPathPatternBatch(base *rdf.Base, schema *rdf.Schema, pat pattern.PathPattern) *Batch {
	return EvalPathPatternBatchInto(nil, base, schema, pat)
}

// EvalPathPatternBatchInto is EvalPathPatternBatch interning into an
// execution's shared dictionary (nil store for a self-contained batch).
// The pairs stream straight from the triple indexes into the columns, so
// the scan materializes nothing per row but the two id appends.
func EvalPathPatternBatchInto(store *TermStore, base *rdf.Base, schema *rdf.Schema, pat pattern.PathPattern) *Batch {
	var b *Batch
	if store != nil {
		b = store.NewBatch(pat.SubjectVar, pat.ObjectVar)
	} else {
		b = NewBatch(pat.SubjectVar, pat.ObjectVar)
	}
	def, _ := schema.PropertyByName(pat.Property)

	var domainFilter, rangeFilter map[rdf.Term]bool
	if def != nil && pat.Domain != def.Domain && pat.Domain != "" {
		domainFilter = instanceSet(base, schema, pat.Domain)
	}
	if def != nil && pat.Range != def.Range && pat.Range != "" {
		rangeFilter = instanceSet(base, schema, pat.Range)
	}
	// The triple indexes group a property's pairs by subject, so runs of
	// consecutive pairs share pr.X; memoizing the previous subject's id
	// saves a dictionary probe per pair in the run.
	var lastX rdf.Term
	lastID := int32(-1)
	base.PairsFunc(pat.Property, schema, func(pr rdf.Pair) {
		if domainFilter != nil && !domainFilter[pr.X] {
			return
		}
		if rangeFilter != nil && !pr.Y.IsLiteral() && !rangeFilter[pr.Y] {
			return
		}
		if lastID < 0 || pr.X != lastX {
			lastX, lastID = pr.X, b.Intern(pr.X)
		}
		b.Cols[0] = append(b.Cols[0], lastID)
		b.Cols[1] = append(b.Cols[1], b.Intern(pr.Y))
		b.rows++
	})
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

// ApplyFilters applies WHERE conditions to a result set, returning the
// surviving rows. Unbound variables in a condition make the row fail.
func ApplyFilters(rs *ResultSet, conds []Condition) (*ResultSet, error) {
	if len(conds) == 0 {
		return rs, nil
	}
	out := NewResultSet(rs.Vars...)
	for _, r := range rs.Rows {
		keep := true
		for _, c := range conds {
			ok, err := evalCondition(r, c)
			if err != nil {
				return nil, err
			}
			if !ok {
				keep = false
				break
			}
		}
		if keep {
			out.Add(r)
		}
	}
	return out, nil
}

func evalCondition(r Row, c Condition) (bool, error) {
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

func resolveOperand(r Row, o Operand) (rdf.Term, bool) {
	if o.IsVar() {
		t, ok := r[o.Var]
		return t, ok
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
