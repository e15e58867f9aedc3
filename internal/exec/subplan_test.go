package exec_test

import (
	"strings"
	"testing"

	"sqpeer/internal/faults"
	"sqpeer/internal/gen"
	"sqpeer/internal/network"
	"sqpeer/internal/optimizer"
	"sqpeer/internal/pattern"
	"sqpeer/internal/peer"
	"sqpeer/internal/plan"
)

// shippedJoin builds the Figure-2 peers with a 200 ms deadline
// everywhere, has P1 query-ship ⋈(Q1@P2, Q2@P3) to P2, and delays the
// first `delayed` of P2's nested exec.subplan legs to P3 by 300 ms (0 =
// none). P1 has no router, so a failure surfaces instead of replanning.
func shippedJoin(t *testing.T, delayed int) (map[pattern.PeerID]*peer.Peer, *plan.Plan) {
	t.Helper()
	peers, net := paperSystem(t, 3)
	for _, p := range peers {
		p.Engine.DeadlineMS = 200
		p.Channels.DeadlineMS = 200
	}
	p1 := peers["P1"]
	p1.Engine.Policy = optimizer.QueryShipping
	p1.Engine.Router = nil
	if delayed > 0 {
		net.SetInjector(faults.NewScript(&faults.ScriptRule{
			From: "P2", To: "P3", Kind: "exec.subplan", Count: delayed,
			Fault: network.Fault{ExtraDelayMS: 300},
		}))
	}
	q := gen.PaperQuery()
	j := plan.NewJoin(plan.NewScan(q.Patterns[0], "P2"), plan.NewScan(q.Patterns[1], "P3"))
	return peers, &plan.Plan{Root: j, Query: q}
}

// A peer serving a shipped join runs its nested dispatches under its own
// deadline: P2's leg to P3 outlasting 200 ms fails the query instead of
// being waited out.
func TestShippedJoinHonoursServingDeadline(t *testing.T) {
	peers, pl := shippedJoin(t, 1)
	rows, err := peers["P1"].Engine.Execute(pl)
	if err == nil {
		t.Fatalf("nested leg 100 ms past P2's deadline was waited out: %d rows", rows.Len())
	}
	if !strings.Contains(err.Error(), "deadline") {
		t.Fatalf("want a deadline failure, got %v", err)
	}
}

// The serving peer also retries its nested dispatches under its own
// MaxRetries: one slow leg is retried and the answer is complete.
func TestShippedJoinRetriesUnderServingPeer(t *testing.T) {
	peers, pl := shippedJoin(t, 1)
	peers["P2"].Engine.MaxRetries = 1
	rows, err := peers["P1"].Engine.Execute(pl)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if rows.Len() != 3 {
		t.Errorf("shipped join = %d rows, want 3", rows.Len())
	}
	if m := peers["P2"].Engine.Metrics(); m.Retries != 1 {
		t.Errorf("P2 Retries = %d, want 1", m.Retries)
	}
}

// A serving peer keeps the counters of its nested execution: P2 opened a
// channel to P3, shipped it Q2, and received its rows.
func TestServingPeerFoldsNestedMetrics(t *testing.T) {
	peers, pl := shippedJoin(t, 0)
	if _, err := peers["P1"].Engine.Execute(pl); err != nil {
		t.Fatalf("Execute: %v", err)
	}
	m := peers["P2"].Engine.Metrics()
	if m.ChannelsOpened != 1 || m.SubplansShipped != 1 || m.LocalScans != 1 {
		t.Errorf("P2 nested dispatch counters = %+v", m)
	}
	if m.RowsShipped == 0 || m.BytesShipped == 0 {
		t.Errorf("P2 lost the rows it received from P3: RowsShipped=%d BytesShipped=%d",
			m.RowsShipped, m.BytesShipped)
	}
}
