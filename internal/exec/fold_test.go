package exec_test

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"sqpeer/internal/channel"
	"sqpeer/internal/exec"
	"sqpeer/internal/faults"
	"sqpeer/internal/gen"
	"sqpeer/internal/network"
	"sqpeer/internal/rql"
)

// foldRun is one paper query executed at P1 and what the fold checks
// read from it.
type foldRun struct {
	rows *rql.ResultSet
	m    exec.Metrics
	// ledger renders P1's "complete" ledger entries, sorted; failed counts
	// its "failed" entries.
	ledger []string
	failed int
	// dupes is P1's PacketsDuplicate; kinds the per-kind message counts.
	dupes int
	kinds map[string]int
}

// runFold executes the paper query at P1 with retries on, a 200 ms
// deadline on every leg, P4 streaming p4Batch rows per frame (0: the
// default), and inj, if non-nil, on the network. withWatermark keeps the
// channel watermark in the ledger rendering.
func runFold(t *testing.T, inj network.Injector, p4Batch int, withWatermark bool) foldRun {
	t.Helper()
	peers, net := paperSystem(t, 3)
	p1 := peers["P1"]
	p1.Engine.MaxRetries = 2
	p1.Engine.DeadlineMS = 200
	for _, p := range peers {
		p.Channels.DeadlineMS = 200
	}
	peers["P4"].Engine.BatchSize = p4Batch
	pr, err := p1.PlanQuery(gen.PaperQuery())
	if err != nil {
		t.Fatalf("PlanQuery: %v", err)
	}
	net.ResetCounters()
	if inj != nil {
		net.SetInjector(inj)
	}
	rows, err := p1.Engine.Execute(pr.Optimized)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	run := foldRun{rows: rows, m: p1.Engine.Metrics(), dupes: p1.Channels.Stats().PacketsDuplicate,
		kinds: net.Counters().PerKind}
	for _, le := range p1.Engine.Ledger() {
		switch le.Outcome {
		case "complete":
			line := fmt.Sprintf("%s %s rows=%d", le.Site, le.Subplan, le.Rows)
			if withWatermark {
				line += fmt.Sprintf(" watermark=%d", le.Watermark)
			}
			run.ledger = append(run.ledger, line)
		case "failed":
			run.failed++
		}
	}
	sort.Strings(run.ledger)
	return run
}

// sameBooks fails t unless got answered and booked its rows exactly as
// the fault-free run want did.
func sameBooks(t *testing.T, got, want foldRun) {
	t.Helper()
	if !sameRows(got.rows, want.rows) {
		t.Errorf("answer diverged from the fault-free run:\n got %v\nwant %v", got.rows.Sorted(), want.rows.Sorted())
	}
	if got.m.RowsShipped != want.m.RowsShipped {
		t.Errorf("RowsShipped = %d, fault-free %d", got.m.RowsShipped, want.m.RowsShipped)
	}
	if fmt.Sprint(got.ledger) != fmt.Sprint(want.ledger) {
		t.Errorf("ledger books rows differently from the fault-free run:\n got %v\nwant %v", got.ledger, want.ledger)
	}
	if got.failed != 0 {
		t.Errorf("%d dispatches failed for good; the retry should have recovered them", got.failed)
	}
}

// TestDuplicatedSubplanBooksRowsOnce: a duplicated exec.subplan delivery
// runs the subplan twice at its destination. The replay's packets are
// numbered from the same sequence base as the original's, so the root
// drops them, and every row is delivered exactly once: RowsShipped and
// every site's ledger entry match the fault-free run.
func TestDuplicatedSubplanBooksRowsOnce(t *testing.T) {
	clean := runFold(t, nil, 0, true)
	script := faults.NewScript(&faults.ScriptRule{Kind: "exec.subplan", Count: 1,
		Fault: network.Fault{Duplicate: true}})
	dup := runFold(t, script, 0, true)
	if script.Matched(0) == 0 {
		t.Fatal("no exec.subplan was duplicated; the test is vacuous")
	}
	sameBooks(t, dup, clean)
	if dup.dupes == 0 {
		t.Error("the replayed subplan's packets were not dropped as duplicates")
	}
	if dup.m.Retries != 0 {
		t.Errorf("Retries = %d; a duplicate must not turn into a retry", dup.m.Retries)
	}
}

// finalPacketIndex returns the 1-based index, among P4's chan.packet
// deliveries, of the first final packet in a fault-free run with P4
// streaming p4Batch rows per frame.
func finalPacketIndex(t *testing.T, p4Batch int) int {
	t.Helper()
	tap := &finalTap{}
	runFold(t, tap, p4Batch, false)
	if tap.first == 0 {
		t.Fatal("P4 sent no final packet")
	}
	if tap.first == 1 {
		t.Fatal("P4's first stream is a single frame: a lost final packet would leave no checkpoint")
	}
	return tap.first
}

// finalTap records the index of P4's first final packet.
type finalTap struct {
	mu       sync.Mutex
	n, first int
}

func (f *finalTap) Intercept(m network.Message) network.Fault {
	if m.From != "P4" || m.Kind != "chan.packet" {
		return network.Fault{}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.n++
	if p, err := channel.DecodePacket(m.Payload); err == nil && p.Final && f.first == 0 {
		f.first = f.n
	}
	return network.Fault{}
}

// TestFoldedProtocolFaults loses, delays past the deadline, or
// duplicates (a) the exec.subplan request that deploys P4's channel and
// (b) the final Results packet that ends P4's first stream, with retries
// on. In every case the answer and the row ledger equal the fault-free
// run's, no error reaches a sender where the transport did nothing
// wrong (a duplicate never becomes a retry), and when rows reached the
// root before the loss, the retry resumes from that checkpoint and the
// destination's resume ack arrives.
func TestFoldedProtocolFaults(t *testing.T) {
	const p4Batch = 1 // P4 streams one row per frame: its streams have a checkpoint
	clean := runFold(t, nil, p4Batch, false)
	final := finalPacketIndex(t, p4Batch)
	drop := network.Fault{Drop: true}
	late := network.Fault{ExtraDelayMS: 1000} // past the 200 ms deadline
	dup := network.Fault{Duplicate: true}
	subplan := func(f network.Fault) *faults.ScriptRule {
		return &faults.ScriptRule{To: "P4", Kind: "exec.subplan", Count: 1, Fault: f}
	}
	finalPkt := func(f network.Fault) *faults.ScriptRule {
		return &faults.ScriptRule{From: "P4", Kind: "chan.packet", After: final - 1, Count: 1, Fault: f}
	}
	cases := []struct {
		name    string
		rule    *faults.ScriptRule
		retries int
		resumed bool
	}{
		{"subplan-drop", subplan(drop), 1, false},
		{"subplan-late", subplan(late), 1, false},
		{"subplan-duplicate", subplan(dup), 0, false},
		{"final-drop", finalPkt(drop), 1, true},
		{"final-late", finalPkt(late), 1, true},
		{"final-duplicate", finalPkt(dup), 0, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			script := faults.NewScript(c.rule)
			run := runFold(t, script, p4Batch, false)
			if script.Matched(0) <= c.rule.After {
				t.Fatal("the rule faulted nothing; the case is vacuous")
			}
			sameBooks(t, run, clean)
			if run.m.Retries != c.retries {
				t.Errorf("Retries = %d, want %d", run.m.Retries, c.retries)
			}
			if c.resumed {
				if run.m.Resumes != 1 || run.m.RowsRetained == 0 {
					t.Errorf("retry did not resume from the checkpoint: Resumes %d, RowsRetained %d",
						run.m.Resumes, run.m.RowsRetained)
				}
				if run.m.PlanChanges == 0 {
					t.Error("the destination's resume ack never arrived")
				}
			} else if run.m.Resumes != 0 {
				t.Errorf("Resumes = %d with no checkpoint to resume from", run.m.Resumes)
			}
			if c.rule.Fault.Duplicate && run.dupes == 0 {
				t.Error("the duplicated delivery's packets were not dropped as duplicates")
			}
		})
	}
}

// TestTwoMessagesPerSite pins the folded protocol's message count on the
// paper system: every dispatched subplan costs one exec.subplan request
// and — its site answering in a single frame — one chan.packet, and no
// chan.open or chan.close message exists.
func TestTwoMessagesPerSite(t *testing.T) {
	run := runFold(t, nil, 0, false)
	shipped := run.m.SubplansShipped
	if shipped == 0 {
		t.Fatal("no subplan shipped")
	}
	if got := run.kinds["exec.subplan"]; got != shipped {
		t.Errorf("exec.subplan messages = %d, want %d (one per subplan)", got, shipped)
	}
	if got := run.kinds["chan.packet"]; got != shipped {
		t.Errorf("chan.packet messages = %d, want %d (one final packet per single-frame subplan)", got, shipped)
	}
	for _, kind := range []string{"chan.open", "chan.open.reply", "chan.close"} {
		if got := run.kinds[kind]; got != 0 {
			t.Errorf("%s messages = %d, want 0", kind, got)
		}
	}
}
