package exec_test

import (
	"strings"
	"testing"

	"sqpeer/internal/channel"
	"sqpeer/internal/faults"
	"sqpeer/internal/gen"
	"sqpeer/internal/network"
)

// TestBatchStreamSurvivesReorderDuplication feeds the columnar data
// plane through the PR 4 adversarial wire: every chan.packet delivery is
// duplicated and half get delay spikes, while multi-frame batch streams
// (BatchSize=2 forces several frames per peer) carry the answer. The
// channel-layer dedup must suppress every replayed frame, so the answer
// matches ground truth exactly and no row is double-collected.
func TestBatchStreamSurvivesReorderDuplication(t *testing.T) {
	const seed = 20240805
	peers, net := paperSystem(t, 3)
	p1 := peers["P1"]
	p1.Engine.Parallelism = 1
	p1.Engine.BatchSize = 2
	inj := faults.NewInjector(seed, faults.Rates{Duplicate: 1, DelaySpike: 0.5, SpikeMS: 300})
	net.SetInjector(inj)

	pr, err := p1.PlanQuery(gen.PaperQuery())
	if err != nil {
		t.Fatalf("PlanQuery: %v", err)
	}
	rows, err := p1.Engine.Execute(pr.Optimized)
	if err != nil {
		t.Fatalf("Execute under duplication: %v", err)
	}
	want := groundTruth(t, peers, gen.PaperRQL)
	if !sameRows(rows, want) {
		t.Fatalf("batched answer diverged under duplication:\n got %v\nwant %v",
			rows.Sorted(), want.Sorted())
	}
	if inj.Stats().Duplicated == 0 {
		t.Fatal("injector duplicated nothing; the test is vacuous")
	}
	if dup := p1.Channels.Stats().PacketsDuplicate; dup == 0 {
		t.Error("expected the channel layer to have suppressed duplicated batch frames")
	}
}

// TestBatchResumeAtBatchBoundary kills one mid-stream batch frame and
// checks the retry resumes at the frame boundary: the checkpoint the
// root carries is the contiguous rows of the frames that made it
// (a multiple of BatchSize), the destination honors it, and the ledger
// reconciles exactly-once delivery of every row.
func TestBatchResumeAtBatchBoundary(t *testing.T) {
	const batchSize = 2
	peers, net := paperSystem(t, 4)
	p1 := peers["P1"]
	p1.Engine.Parallelism = 1
	p1.Engine.MaxRetries = 2
	// The serving peer's BatchSize sets its frames. Drop P4's second
	// chan.packet: the first batch frame (batchSize rows) reaches the
	// root, the second dies on the wire.
	peers["P4"].Engine.BatchSize = batchSize
	net.SetInjector(faults.NewScript(&faults.ScriptRule{
		From: "P4", Kind: "chan.packet", After: 1, Count: 1,
		Fault: network.Fault{Drop: true},
	}))

	pr, err := p1.PlanQuery(gen.PaperQuery())
	if err != nil {
		t.Fatalf("PlanQuery: %v", err)
	}
	rows, err := p1.Engine.Execute(pr.Optimized)
	if err != nil {
		t.Fatalf("Execute with one dropped frame: %v", err)
	}
	want := groundTruth(t, peers, gen.PaperRQL)
	if !sameRows(rows, want) {
		t.Fatalf("resumed batch answer diverged:\n got %v\nwant %v", rows.Sorted(), want.Sorted())
	}
	m := p1.Engine.Metrics()
	if m.Resumes == 0 {
		t.Fatalf("expected the retry to resume from the frame checkpoint, got %+v", m)
	}
	if m.RowsRetained == 0 || m.RowsRetained%batchSize != 0 {
		t.Errorf("retained prefix %d rows; want a positive multiple of the %d-row frame size",
			m.RowsRetained, batchSize)
	}
	// The ledger must account every P4 row exactly once across the
	// resumed dispatch: one "complete" entry whose row count equals the
	// full subplan answer (prefix + resumed remainder), flagged Resumed.
	resumed := false
	for _, ent := range p1.Engine.Ledger() {
		if ent.Outcome == "complete" && ent.Resumed {
			resumed = true
			if ent.Rows == 0 {
				t.Error("resumed ledger entry accounts zero rows")
			}
		}
	}
	if !resumed {
		t.Error("ledger records no resumed completion")
	}
}

// TestMultiFrameBatchAnswerMatchesGroundTruth runs the paper query with
// two-row frames on every peer, so each destination's answer crosses the
// wire as several batch frames, and checks the reassembled answer against
// the centralized evaluation.
func TestMultiFrameBatchAnswerMatchesGroundTruth(t *testing.T) {
	peers, _ := paperSystem(t, 3)
	p1 := peers["P1"]
	for _, p := range peers {
		p.Engine.BatchSize = 2
	}
	pr, err := p1.PlanQuery(gen.PaperQuery())
	if err != nil {
		t.Fatalf("PlanQuery: %v", err)
	}
	rows, err := p1.Engine.Execute(pr.Optimized)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	want := groundTruth(t, peers, gen.PaperRQL)
	if !sameRows(rows, want) {
		t.Fatalf("multi-frame answer diverged:\n got %v\nwant %v", rows.Sorted(), want.Sorted())
	}
	if m := p1.Engine.Metrics(); m.RowsShipped <= 2*m.SubplansShipped {
		t.Errorf("expected multi-frame streams: %d rows over %d subplans", m.RowsShipped, m.SubplansShipped)
	}
}

// TestNonBatchResultsPacketFails has a destination answer with a Results
// packet that is not a batch frame (a JSON body). The root must fail the
// query with a decode error rather than return a silently smaller answer.
func TestNonBatchResultsPacketFails(t *testing.T) {
	// badRows is the row count the bad packet claims: larger than the
	// whole paper answer, so the shipped-rows counter proves it was booked.
	const badRows = 1000
	peers, net := paperSystem(t, 3)
	p1 := peers["P1"]
	p1.Engine.Parallelism = 1
	p1.Engine.Router = nil
	p4 := peers["P4"]
	net.Handle("P4", "exec.subplan", func(msg network.Message) ([]byte, error) {
		req, err := channel.DecodeSubplan(msg.Payload)
		if err != nil {
			return nil, err
		}
		in := p4.Channels.Accept(msg.From, req.Channel, req.SeqBase, req.Tenant)
		body := []byte(`{"vars":["X"],"rows":[]}`)
		return []byte("ok"), in.Send(channel.Packet{Type: channel.Results, Final: true, Rows: badRows, Payload: body})
	})
	pr, err := p1.PlanQuery(gen.PaperQuery())
	if err != nil {
		t.Fatalf("PlanQuery: %v", err)
	}
	rows, err := p1.Engine.Execute(pr.Optimized)
	if err == nil {
		t.Fatalf("Execute accepted a non-batch Results packet, answered %d rows", rows.Len())
	}
	if !strings.Contains(err.Error(), "bad results packet") {
		t.Fatalf("Execute error %q does not name the bad results packet", err)
	}
	if m := p1.Engine.Metrics(); m.RowsShipped < badRows {
		t.Errorf("RowsShipped = %d; the undecodable packet's %d rows must still count as shipped",
			m.RowsShipped, badRows)
	}
}

// TestOneFramePerRowStream streams every serving peer's answer one row
// per frame, each frame encoded into its packet body as it is sent, and
// checks the answer still arrives complete and exactly once.
func TestOneFramePerRowStream(t *testing.T) {
	peers, _ := paperSystem(t, 8)
	p1 := peers["P1"]
	p1.Engine.Parallelism = 1
	for _, p := range peers {
		p.Engine.BatchSize = 1 // one frame per row
	}
	pr, err := p1.PlanQuery(gen.PaperQuery())
	if err != nil {
		t.Fatalf("PlanQuery: %v", err)
	}
	rows, err := p1.Engine.Execute(pr.Optimized)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	want := groundTruth(t, peers, gen.PaperRQL)
	if !sameRows(rows, want) {
		t.Fatalf("one-frame-per-row stream diverged:\n got %v\nwant %v", rows.Sorted(), want.Sorted())
	}
	if m := p1.Engine.Metrics(); m.Retries != 0 || m.Replans != 0 {
		t.Errorf("fault-free one-frame-per-row run should not retry or replan: %+v", m)
	}
}
