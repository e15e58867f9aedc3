package exec_test

import (
	"testing"

	"sqpeer/internal/admission"
	"sqpeer/internal/channel"
	"sqpeer/internal/exec"
	"sqpeer/internal/faults"
	"sqpeer/internal/gen"
	"sqpeer/internal/network"
	"sqpeer/internal/plan"
	"sqpeer/internal/rql"
)

// TestCheckpointCountsOnlyKeptRows has P4 answer its first subplan in
// one-row frames where the second frame does not decode, and lose the
// final frame to a transient drop. The root keeps the first frame only,
// so the retry must resume after one row: a checkpoint that also counted
// the bad frame, or the good frame after it, would skip a row the root
// never held, and the answer would come back complete without it. The
// query either fails or answers exactly the ground truth.
func TestCheckpointCountsOnlyKeptRows(t *testing.T) {
	peers, net := paperSystem(t, 4)
	p1, p4 := peers["P1"], peers["P4"]
	p1.Engine.MaxRetries = 1
	p1.Engine.Router = nil
	q := gen.PaperQuery()
	first := rql.EvalPathPatternBatch(p4.Base, gen.PaperSchema(), q.Patterns[0]).Len()
	if first < 4 {
		t.Fatalf("P4 answers Q1 with %d rows; the script needs a good, a bad and a good frame before the final one", first)
	}
	// P4's first subplan is Q1@P4 (the raw plan's first input, run
	// sequentially): its final, first-th packet is dropped.
	script := faults.NewScript(&faults.ScriptRule{
		From: "P4", Kind: "chan.packet", After: first - 1, Count: 1, Fault: network.Fault{Drop: true},
	})
	net.SetInjector(script)
	srv := &exec.Engine{Self: "P4", Local: p4.Engine.Local}
	calls, resumed := 0, -1
	net.Handle("P4", "exec.subplan", func(msg network.Message) ([]byte, error) {
		req, err := channel.DecodeSubplan(msg.Payload)
		if err != nil {
			return nil, err
		}
		sub, err := plan.Unmarshal(req.Plan)
		if err != nil {
			return nil, err
		}
		rows, _, err := srv.ExecuteBatch(sub, nil, admission.QoS{})
		if err != nil {
			return nil, err
		}
		calls++
		in := p4.Channels.Accept(msg.From, req.Channel, req.SeqBase, req.Tenant)
		start := req.ResumeFrom
		if start > 0 {
			resumed = start
			pc := channel.PlanChangeInfo{Reason: "resume-honored", Offset: start}
			if err := in.Send(channel.Packet{Type: channel.PlanChange, Payload: channel.AppendPlanChange(nil, pc)}); err != nil {
				return nil, err
			}
		}
		sl := rql.NewSlicer(rows)
		for i := start; i < rows.Len(); i++ {
			frame, err := rql.NewFrame(sl.Slice(i, i+1))
			if err != nil {
				return nil, err
			}
			pkt := channel.Packet{Type: channel.Results, Rows: 1, Frame: frame, Final: i == rows.Len()-1}
			if calls == 1 && i == 1 {
				pkt.Frame, pkt.Payload = nil, []byte("not a frame")
			}
			if err := in.Send(pkt); err != nil {
				return nil, err
			}
		}
		return []byte("ok"), nil
	})
	pr, err := p1.PlanQuery(q)
	if err != nil {
		t.Fatalf("PlanQuery: %v", err)
	}
	rows, err := p1.Engine.Execute(pr.Raw)
	if script.Matched(0) < first {
		t.Fatal("P4's final packet was never dropped; the test is vacuous")
	}
	if err != nil {
		t.Logf("query failed, which is allowed: %v", err)
		return
	}
	if want := groundTruth(t, peers, gen.PaperRQL); !sameRows(rows, want) {
		t.Fatalf("answer (retry resumed from row %d) diverged from the ground truth:\n got %v\nwant %v",
			resumed, rows.Sorted(), want.Sorted())
	}
	if resumed != 1 {
		t.Errorf("retry resumed from row %d; the root kept one row", resumed)
	}
}
