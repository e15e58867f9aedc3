package exec

import (
	"strconv"
	"strings"
	"testing"

	"sqpeer/internal/gen"
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
		b := rql.EvalPathPatternBatchInto(store, s.base, s.schema, pp)
		if i == 0 {
			acc = b
		} else {
			acc = acc.Join(b)
		}
	}
	return acc
}

// A serving execution whose subplan reads only its own base answers in
// the base's ids and constructs no TermStore; a root execution of the
// same plan interns into its store, and both answer the same rows.
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
		if made := ex.store != nil; made == serving {
			t.Errorf("serving %v: execution made a TermStore: %v", serving, made)
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
