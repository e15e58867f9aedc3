package rql

import (
	"strconv"
	"testing"

	"sqpeer/internal/rdf"
)

// kernelTerm is resource i of the kernel fixtures.
func kernelTerm(i int) rdf.Term {
	return rdf.NewIRI(rdf.IRI("http://k#r" + strconv.Itoa(i)))
}

// kernelRows builds a relation over vars whose row i binds vars[c] to
// kernelTerm(cell(i, c)), leaving it unbound where cell is negative, and
// rebases it onto st.
func kernelRows(st *TermStore, vars []string, n int, cell func(i, c int) int) *Batch {
	rs := NewResultSet(vars...)
	for i := 0; i < n; i++ {
		row := Row{}
		for c, v := range vars {
			if id := cell(i, c); id >= 0 {
				row[v] = kernelTerm(id)
			}
		}
		rs.Add(row)
	}
	return BatchOf(rs).Rebase(st)
}

// kernelInputs are the relations the kernel benchmark and allocation
// gate run on, all on one store, at n rows each:
//   - parts: 32 horizontal fragments of an (X, Y) relation holding n rows
//     together, each repeating half of its predecessor's rows and leaving
//     Y unbound in every seventh row;
//   - left (X, Y) and right (Y, Z): a one-to-one join on Y.
type kernelInputs struct {
	parts       []*Batch
	left, right *Batch
}

func newKernelInputs(n int) kernelInputs {
	st := NewTermStore()
	in := kernelInputs{}
	per := n / 32
	for p := 0; p < 32; p++ {
		in.parts = append(in.parts, kernelRows(st, []string{"X", "Y"}, per, func(i, c int) int {
			k := p*per/2 + i
			if c == 1 && k%7 == 0 {
				return -1
			}
			return 2*k + c
		}))
	}
	in.left = kernelRows(st, []string{"X", "Y"}, n, func(i, c int) int { return c*n + i })
	in.right = kernelRows(st, []string{"Y", "Z"}, n, func(i, c int) int { return (c+1)*n + i })
	return in
}

// BenchmarkBatchKernels times the root's batch operators at the sizes
// the allocation gate checks: a 32-way UnionAll, a one-to-one Join, and
// a Project of the join that drops the join variable.
func BenchmarkBatchKernels(b *testing.B) {
	for _, n := range []int{64, 4096} {
		in := newKernelInputs(n)
		joined := in.left.Join(in.right)
		xz := []string{"X", "Z"}
		b.Run("UnionAll32/"+strconv.Itoa(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				kernelSink = UnionAll(in.parts...)
			}
		})
		b.Run("Join/"+strconv.Itoa(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				kernelSink = in.left.Join(in.right)
			}
		})
		b.Run("Project/"+strconv.Itoa(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				kernelSink = joined.Project(xz)
			}
		})
	}
}

// kernelSink keeps the benchmarked results alive.
var kernelSink *Batch
