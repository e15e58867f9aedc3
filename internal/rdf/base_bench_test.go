package rdf

import (
	"fmt"
	"testing"
)

// BenchmarkBaseAdd loads n fresh triples into one empty base per
// iteration. ns/triple at n = 10⁵ against n = 10³ shows how the insert
// buffer's merges scale: the logarithmic method keeps the per-triple
// cost within a small factor, where merging every full buffer into one
// run would grow it linearly with n.
func BenchmarkBaseAdd(b *testing.B) {
	for _, n := range []int{1_000, 100_000} {
		ts := make([]Triple, n)
		for i := range ts {
			ts[i] = Statement(res(i), n1(fmt.Sprintf("prop%d", i%4+1)), res(i+1))
		}
		b.Run(fmt.Sprint("triples=", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				base := NewBase()
				if base.AddAll(ts) != n {
					b.Fatal("lost a triple")
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/triple")
		})
	}
}
