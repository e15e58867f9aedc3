package rql

import (
	"strings"
	"testing"
)

// TestBatchKernelAllocs gates the operators' allocations: a call
// allocates the same number of times at 64 rows as at 4 096, so nothing
// is allocated per row, per hash or per collision. The inputs are sized
// so no table outgrows its operator's estimate.
func TestBatchKernelAllocs(t *testing.T) {
	xz := []string{"X", "Z"}
	allocs := func(n int) map[string]float64 {
		in := newKernelInputs(n)
		joined := in.left.Join(in.right)
		return map[string]float64{
			"UnionAll32": testing.AllocsPerRun(5, func() { kernelSink = UnionAll(in.parts...) }),
			"Join":       testing.AllocsPerRun(5, func() { kernelSink = in.left.Join(in.right) }),
			"Project":    testing.AllocsPerRun(5, func() { kernelSink = joined.Project(xz) }),
		}
	}
	small, large := allocs(64), allocs(4096)
	for op, n := range small {
		if large[op] != n {
			t.Errorf("%s allocates %.0f times at 64 rows and %.0f at 4096", op, n, large[op])
		}
	}
}

// kernelRelation is a relation with its row form, for the differential
// checks at scale.
type kernelRelation struct {
	b  *Batch
	rs *ResultSet
}

func relationOf(b *Batch) kernelRelation { return kernelRelation{b, b.ResultSet()} }

// checkKernel requires got to render exactly want's rows in order.
func checkKernel(t *testing.T, what string, got *Batch, want *ResultSet) {
	t.Helper()
	if !sameRelation(got, want) {
		t.Fatalf("%s: %d rows differ from the ResultSet operator's %d", what, got.Len(), want.Len())
	}
}

// TestBatchKernelsAtScale checks the operators against the ResultSet
// operators, row for row and in order, on relations of thousands of rows
// with heavy duplication and unbound cells: a 32-way union, a join whose
// output is twice its probe side (so the output dedup's table, sized for
// the probe side, grows mid-join), and projections that drop a variable
// or keep them all.
func TestBatchKernelsAtScale(t *testing.T) {
	const n = 8192
	in := newKernelInputs(n)
	var want *ResultSet
	for _, p := range in.parts {
		if want == nil {
			want = p.ResultSet()
		} else {
			want = want.Union(p.ResultSet())
		}
	}
	union := UnionAll(in.parts...)
	checkKernel(t, "UnionAll of 32 fragments", union, want)
	if union.Len() >= n*3/4 {
		t.Fatalf("fragments overlap too little: %d of %d rows distinct", union.Len(), n)
	}
	if Concat(union) != union {
		t.Fatal("Concat of one batch copied it")
	}

	// Every row of left appears twice and every Y value in eight of its
	// distinct rows; Y takes 512 values, each four times in right, and
	// both leave Y unbound now and then, which joins unbound to unbound.
	st := NewTermStore()
	left := relationOf(kernelRows(st, []string{"X", "Y"}, n, func(i, c int) int {
		k := i / 2
		if c == 0 {
			return k
		}
		if k%97 == 0 {
			return -1
		}
		return n + k%512
	}))
	right := relationOf(kernelRows(st, []string{"Y", "Z"}, n/4, func(j, c int) int {
		if c == 1 {
			return 2*n + j
		}
		if j%89 == 0 {
			return -1
		}
		return n + j%512
	}))
	join := left.b.Join(right.b)
	wantJoin := left.rs.Join(right.rs)
	checkKernel(t, "Join", join, wantJoin)
	if join.Len() <= left.b.Len() {
		t.Fatalf("join gives %d rows, want more than its %d-row probe side", join.Len(), left.b.Len())
	}

	for _, vars := range [][]string{{"X", "Z"}, {"Z", "Y", "X"}, {"Z", "Q", "X", "Y"}, {"Y"}} {
		what := "Project(" + strings.Join(vars, ",") + ")"
		checkKernel(t, what, join.Project(vars), wantJoin.Project(vars))
		checkKernel(t, what+" of a relation repeating rows", left.b.Project(vars), left.rs.Project(vars))
	}
}
