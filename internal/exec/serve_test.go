package exec_test

import (
	"strconv"
	"testing"

	"sqpeer/internal/channel"
	"sqpeer/internal/gen"
	"sqpeer/internal/network"
	"sqpeer/internal/peer"
	"sqpeer/internal/plan"
	"sqpeer/internal/rdf"
)

// serveScanAllocs has a root R ship one single-scan subplan, prop1 at S,
// to a site S whose base holds `pairs` prop1 pairs over 2·pairs distinct
// resources, and returns the allocations per served subplan. The whole
// answer fits one frame; R's collector only counts rows, so what is
// measured is S's work plus the fixed cost of the two messages.
func serveScanAllocs(t *testing.T, pairs int) float64 {
	t.Helper()
	schema := gen.PaperSchema()
	base := rdf.NewBase()
	res := func(i int) rdf.IRI { return rdf.IRI("http://d#r" + strconv.Itoa(i)) }
	for i := 0; i < pairs; i++ {
		base.Add(rdf.Statement(res(2*i), gen.N1("prop1"), res(2*i+1)))
	}
	net := network.New()
	root, err := peer.New(peer.Config{ID: "R", Kind: peer.SimplePeer, Schema: schema, Base: rdf.NewBase()}, net)
	if err != nil {
		t.Fatalf("peer.New(R): %v", err)
	}
	site, err := peer.New(peer.Config{ID: "S", Kind: peer.SimplePeer, Schema: schema, Base: base}, net)
	if err != nil {
		t.Fatalf("peer.New(S): %v", err)
	}
	site.Engine.BatchSize = pairs
	data, err := plan.Marshal(&plan.Plan{Root: plan.NewScan(gen.PaperQuery().Patterns[0], "S")})
	if err != nil {
		t.Fatalf("plan.Marshal: %v", err)
	}
	rows, packets := 0, 0
	allocs := testing.AllocsPerRun(50, func() {
		ch := root.Channels.Deploy("", func(pkt channel.Packet) { rows, packets = pkt.Rows, packets+1 })
		req := channel.AppendSubplan(nil, &channel.SubplanRequest{Channel: ch.Num, Plan: data})
		if err := net.Send("R", "S", "exec.subplan", req); err != nil {
			t.Fatalf("serve %d pairs: %v", pairs, err)
		}
		root.Channels.Close(ch)
	})
	if rows != pairs || packets != 51 {
		t.Fatalf("serve %d pairs: last frame %d rows over %d packets, want %d rows in one packet per run", pairs, rows, packets, pairs)
	}
	return allocs
}

// A serving peer answers in its base's ids: serving one scan allocates
// the same whether it touches 20 distinct terms or 400. A per-execution
// term dictionary (or a frame dictionary grown by appending) doubles its
// arrays as the scan's terms grow, and fails this.
func TestServeScanAllocsIndependentOfTerms(t *testing.T) {
	small, large := serveScanAllocs(t, 10), serveScanAllocs(t, 200)
	if large > small {
		t.Errorf("serving a scan of 400 distinct terms allocates %v times, of 20 terms %v times", large, small)
	}
}
