package rql_test

import (
	"strconv"
	"testing"

	"sqpeer/internal/gen"
	"sqpeer/internal/pattern"
	"sqpeer/internal/rdf"
	"sqpeer/internal/rql"
)

// BenchmarkEvalPathPatternBatch times the batch scan leaf over a
// 10⁴-pair property: prop2 alone, and prop1, whose subproperty prop4
// contributes a quarter of the pairs, half of them duplicates of prop1
// pairs that the scan must drop. Each scans in the base's ids, as every
// executor scan does, and rebased onto a fresh store, as an operator
// does when it combines the scan with result frames.
func BenchmarkEvalPathPatternBatch(b *testing.B) {
	schema := gen.PaperSchema()
	base := rdf.NewBase()
	res := func(i int) rdf.IRI { return rdf.IRI("http://d#r" + strconv.Itoa(i)) }
	const pairs = 10_000
	for i := 0; i < pairs; i++ {
		base.Add(rdf.Statement(res(i), gen.N1("prop2"), res(i+1)))
		base.Add(rdf.Statement(res(i), gen.N1("prop1"), res(i+1)))
		if i%4 == 0 {
			o := i + 1
			if i%8 == 0 {
				o = i + 2
			}
			base.Add(rdf.Statement(res(i), gen.N1("prop4"), res(o)))
		}
	}
	for _, c := range []struct {
		name string
		pat  pattern.PathPattern
	}{
		{"property", gen.PaperQuery().Patterns[1]},      // {Y;C2}prop2{Z;C3}
		{"subproperties", gen.PaperQuery().Patterns[0]}, // {X;C1}prop1{Y;C2} ∪ prop4
	} {
		for _, st := range []struct {
			name  string
			store func() *rql.TermStore
		}{
			{"store", rql.NewTermStore},
			{"base-ids", func() *rql.TermStore { return nil }},
		} {
			b.Run(c.name+"/"+st.name, func(b *testing.B) {
				b.ReportAllocs()
				rows := 0
				for i := 0; i < b.N; i++ {
					b := rql.EvalPathPatternBatch(base, schema, c.pat)
					if s := st.store(); s != nil {
						b.Rebase(s)
					}
					rows = b.Len()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
			})
		}
	}
}
