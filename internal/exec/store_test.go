package exec

import (
	"slices"
	"strconv"
	"strings"
	"testing"

	"sqpeer/internal/channel"
	"sqpeer/internal/gen"
	"sqpeer/internal/network"
	"sqpeer/internal/optimizer"
	"sqpeer/internal/pattern"
	"sqpeer/internal/plan"
	"sqpeer/internal/rdf"
	"sqpeer/internal/rql"
)

// baseSource is a BatchSource over one base, as a peer's local source is.
type baseSource struct {
	base   *rdf.Base
	schema *rdf.Schema
}

func (s baseSource) EvalScan(patterns []pattern.PathPattern) *rql.ResultSet {
	return s.EvalScanBatch(patterns, nil).ResultSet()
}

func (s baseSource) EvalScanBatch(patterns []pattern.PathPattern, store *rql.TermStore) *rql.Batch {
	acc := rql.NewBatch()
	for i, pp := range patterns {
		b := rql.EvalPathPatternBatch(s.base, s.schema, pp)
		if i == 0 {
			acc = b
		} else {
			acc = acc.Join(b)
		}
	}
	if store != nil {
		acc.Rebase(store)
	}
	return acc
}

// An execution whose plan reads only its own base answers in the base's
// ids and constructs no TermStore, at a serving peer as at a root, and
// both answer the same rows.
func TestServingExecutionMakesNoTermStore(t *testing.T) {
	base := rdf.NewBase()
	res := func(i int) rdf.IRI { return rdf.IRI("http://d#r" + strconv.Itoa(i)) }
	for i := 0; i < 5; i++ {
		base.Add(rdf.Statement(res(3*i), gen.N1("prop1"), res(3*i+1)))
		base.Add(rdf.Statement(res(3*i+1), gen.N1("prop2"), res(3*i+2)))
	}
	q := gen.PaperQuery()
	root := plan.NewUnion(
		plan.NewJoin(plan.NewScan(q.Patterns[0], "S"), plan.NewScan(q.Patterns[1], "S")),
		plan.NewJoin(plan.NewScan(q.Patterns[1], "S"), plan.NewScan(q.Patterns[0], "S")),
	)
	src := baseSource{base: base, schema: gen.PaperSchema()}
	answers := map[bool]string{}
	for _, serving := range []bool{true, false} {
		e := &Engine{Self: "S", Local: src, Options: Options{Policy: optimizer.DataShipping}}
		if serving {
			e.serving = &Engine{Self: "S"}
		}
		ex := newExecution(e)
		rows, err := ex.run(root, nil)
		if err != nil {
			t.Fatalf("serving %v: %v", serving, err)
		}
		if e.mirror.Load() != nil || (e.serving != nil && e.serving.mirror.Load() != nil) {
			t.Errorf("serving %v: execution made a TermStore", serving)
		}
		if rows.Len() != 5 {
			t.Errorf("serving %v: %d rows, want 5", serving, rows.Len())
		}
		answers[serving] = strings.Join(rows.ResultSet().Sorted(), "\n")
	}
	if answers[true] != answers[false] {
		t.Errorf("serving answer:\n%s\nroot answer:\n%s", answers[true], answers[false])
	}
}

// A root that holds part of the data scans it in its base's ids and
// joins the scans with remote frames on its store. The plan is the
// Figure-2 join distributed over every (Q1 site, Q2 site) pair, so each
// remote scan repeats under three union branches and the racing branches
// share its single-flight cache entry; the branches that pair it with a
// root scan rebase copies, never the shared batch. Run under -race.
func TestRootJoinsBaseIDScansWithCachedFrames(t *testing.T) {
	schema := gen.PaperSchema()
	bases := gen.PaperBases(3)
	net := network.New()
	merged := rdf.NewBase()
	var root *Engine
	for _, id := range []pattern.PeerID{"P1", "P2", "P3", "P4"} {
		e := NewEngine(id, net, channel.NewManager(id, net), baseSource{base: bases[id], schema: schema})
		if id == "P1" {
			root = e
		}
		for _, tr := range bases[id].Triples() {
			merged.Add(tr)
		}
	}
	root.Options = Options{Policy: optimizer.DataShipping, Parallelism: 4}
	ex := newExecution(root)
	defer ex.closeAll()

	// Fill the cache with the four remote scans and keep a copy of each.
	q := gen.PaperQuery()
	remote := plan.NewUnion(
		plan.NewScan(q.Patterns[0], "P2"), plan.NewScan(q.Patterns[0], "P4"),
		plan.NewScan(q.Patterns[1], "P3"), plan.NewScan(q.Patterns[1], "P4"),
	)
	if _, err := ex.run(remote, nil); err != nil {
		t.Fatalf("run remote scans: %v", err)
	}
	if len(ex.cache) != 4 {
		t.Fatalf("%d cached dispatches, want the 4 remote scans", len(ex.cache))
	}
	kept := map[string]*rql.Batch{}
	for key, ent := range ex.cache {
		b := ent.rows
		c := &rql.Batch{Vars: b.Vars, Dict: b.Dict, Cols: make([][]int32, len(b.Cols))}
		for i, col := range b.Cols {
			c.Cols[i] = slices.Clone(col)
		}
		kept[key] = c
	}

	var branches []plan.Node
	for _, s1 := range []pattern.PeerID{"P1", "P2", "P4"} {
		for _, s2 := range []pattern.PeerID{"P1", "P3", "P4"} {
			branches = append(branches, plan.NewJoin(plan.NewScan(q.Patterns[0], s1), plan.NewScan(q.Patterns[1], s2)))
		}
	}
	rows, err := ex.run(plan.NewUnion(branches...), nil)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	c, err := rql.ParseAndAnalyze(gen.PaperRQL, schema)
	if err != nil {
		t.Fatalf("ParseAndAnalyze: %v", err)
	}
	want, err := rql.Eval(c, merged)
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	got := rows.Project(c.Pattern.Projections).ResultSet()
	if g, w := strings.Join(got.Sorted(), "\n"), strings.Join(want.Sorted(), "\n"); g != w || want.Len() == 0 {
		t.Fatalf("answer:\n%s\nwant:\n%s", g, w)
	}
	for key, ent := range ex.cache {
		b, k := ent.rows, kept[key]
		if k == nil {
			t.Errorf("dispatch %q was not cached by the first run", key)
			continue
		}
		if len(b.Dict) != len(k.Dict) || &b.Dict[0] != &k.Dict[0] || !slices.EqualFunc(b.Cols, k.Cols, slices.Equal) {
			t.Errorf("cached batch of %q changed", key)
		}
	}
}
