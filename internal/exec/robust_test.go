package exec_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"sqpeer/internal/exec"
	"sqpeer/internal/faults"
	"sqpeer/internal/gen"
	"sqpeer/internal/network"
	"sqpeer/internal/optimizer"
	"sqpeer/internal/pattern"
	"sqpeer/internal/peer"
	"sqpeer/internal/routing"
)

// scriptInjector drops the next N deliveries of given message kinds —
// a hand-steered fault source for exercising exact retry paths.
type scriptInjector struct {
	mu    sync.Mutex
	drops map[string]int
}

func (si *scriptInjector) Intercept(m network.Message) network.Fault {
	si.mu.Lock()
	defer si.mu.Unlock()
	if si.drops[m.Kind] > 0 {
		si.drops[m.Kind]--
		return network.Fault{Drop: true}
	}
	return network.Fault{}
}

// A dropped subplan dispatch is transient: with retries configured the
// engine re-dispatches (over a fresh channel) instead of replanning, and
// the answer is identical to the fault-free run.
func TestRetryRecoversDroppedDispatch(t *testing.T) {
	peers, net := paperSystem(t, 3)
	p1 := peers["P1"]
	p1.Engine.MaxRetries = 2
	net.SetInjector(&scriptInjector{drops: map[string]int{"exec.subplan": 1}})

	pr, err := p1.PlanQuery(gen.PaperQuery())
	if err != nil {
		t.Fatalf("PlanQuery: %v", err)
	}
	rows, err := p1.Engine.Execute(pr.Optimized)
	if err != nil {
		t.Fatalf("Execute with one dropped dispatch: %v", err)
	}
	want := groundTruth(t, peers, gen.PaperRQL)
	if !sameRows(rows, want) {
		t.Fatalf("retried answer diverged:\n got %v\nwant %v", rows.Sorted(), want.Sorted())
	}
	m := p1.Engine.Metrics()
	if m.Retries == 0 {
		t.Error("expected at least one retry")
	}
	if m.BackoffMS <= 0 {
		t.Error("retry should charge backoff to the logical clock")
	}
	if m.Replans != 0 {
		t.Errorf("transient drop must not replan, got %d replans", m.Replans)
	}
}

// Without retries (the historical default) the same drop goes straight
// to the recovery path — now a surgical subtree migration, with replan
// as the fallback.
func TestNoRetriesByDefault(t *testing.T) {
	peers, net := paperSystem(t, 3)
	p1 := peers["P1"]
	net.SetInjector(&scriptInjector{drops: map[string]int{"exec.subplan": 1}})

	pr, err := p1.PlanQuery(gen.PaperQuery())
	if err != nil {
		t.Fatalf("PlanQuery: %v", err)
	}
	if _, err := p1.Engine.Execute(pr.Optimized); err != nil {
		t.Fatalf("Execute should recover via replanning: %v", err)
	}
	m := p1.Engine.Metrics()
	if m.Retries != 0 {
		t.Errorf("MaxRetries=0 must not retry, got %d", m.Retries)
	}
	if m.Replans == 0 && m.Migrations == 0 {
		t.Error("expected the drop to trigger a migration or replan")
	}
}

// A gray-failed peer (responding, but slower than the deadline) must
// surface as a peer failure and be recovered around instead of hanging.
func TestDeadlineUnwedgesGrayPeer(t *testing.T) {
	peers, net := paperSystem(t, 3)
	p1 := peers["P1"]
	p1.Engine.DeadlineMS = 100
	p1.Channels.DeadlineMS = 100
	p1.Engine.MaxRetries = 1
	inj := faults.NewInjector(1, faults.Rates{})
	inj.SetGray("P4", 500)
	net.SetInjector(inj)

	pr, err := p1.PlanQuery(gen.PaperQuery())
	if err != nil {
		t.Fatalf("PlanQuery: %v", err)
	}
	rows, err := p1.Engine.Execute(pr.Optimized)
	if err != nil {
		t.Fatalf("Execute around gray peer: %v", err)
	}
	if rows.Len() == 0 {
		t.Fatal("expected rows from the remaining peers")
	}
	if _, ok := p1.Registry.Get("P4"); ok {
		t.Error("gray P4 should have been dropped from routing (no health tracker)")
	}
	if m := p1.Engine.Metrics(); (m.Replans == 0 && m.Migrations == 0) || m.Retries == 0 {
		t.Errorf("expected retry then migration or replan, got %+v", m)
	}
}

// With a health tracker the replan path quarantines instead of
// forgetting: the advertisement survives, routing excludes the peer, and
// after the cool-down the peer is routable again.
func TestFailureQuarantinesWithHealthTracker(t *testing.T) {
	peers, net := paperSystem(t, 3)
	p1 := peers["P1"]
	h := routing.NewHealth(p1.Registry)
	p1.Engine.Health = h
	net.Fail("P4")

	pr, err := p1.PlanQuery(gen.PaperQuery())
	if err != nil {
		t.Fatalf("PlanQuery: %v", err)
	}
	if _, err := p1.Engine.Execute(pr.Optimized); err != nil {
		t.Fatalf("Execute around failed peer: %v", err)
	}
	if _, ok := p1.Registry.Get("P4"); !ok {
		t.Fatal("quarantine must keep the advertisement registered")
	}
	if !p1.Registry.IsQuarantined("P4") {
		t.Fatal("failed P4 should be quarantined")
	}
	ann := p1.Router.Route(gen.PaperQuery())
	if strings.Contains(fmt.Sprint(ann.PeersFor("Q1")), "P4") {
		t.Error("routing must exclude the quarantined peer")
	}

	// Cool-down (default 2 ticks) lifts the quarantine into probation.
	net.Recover("P4")
	h.Tick()
	lifted := h.Tick()
	if fmt.Sprint(lifted) != "[P4]" {
		t.Fatalf("expected P4 reinstated after cool-down, got %v", lifted)
	}
	ann = p1.Router.Route(gen.PaperQuery())
	if !strings.Contains(fmt.Sprint(ann.PeersFor("Q1")), "P4") {
		t.Error("reinstated peer should route again")
	}
}

// Graceful degradation: when every peer covering one pattern is gone,
// AllowPartial yields the answerable half with a completeness annotation
// instead of an error.
func TestPartialAnswerWhenPatternUnanswerable(t *testing.T) {
	peers, net := paperSystem(t, 3)
	// P0 is a client-like root with an empty base: it contributes nothing
	// itself, so patterns really can become unanswerable.
	p0, err := peer.New(peer.Config{
		ID: "P0", Kind: peer.ClientPeer, Schema: gen.PaperSchema(),
		Options:    exec.Options{MaxRetries: 1, AllowPartial: true},
		Quarantine: true,
	}, net)
	if err != nil {
		t.Fatalf("peer.New(P0): %v", err)
	}
	for _, p := range peers {
		p0.Learn(p.Advertisement())
	}
	// Q2 (prop2) is covered by P1, P3, P4; kill all three. Q1 (prop1)
	// stays answerable via P2.
	for _, id := range []pattern.PeerID{"P1", "P3", "P4"} {
		net.Fail(id)
	}
	res, err := p0.AskAnnotated(gen.PaperRQL)
	if err != nil {
		t.Fatalf("AskAnnotated: %v", err)
	}
	if res.Completeness.Complete {
		t.Fatal("answer with Q2 unanswerable must be marked incomplete")
	}
	found := false
	for _, u := range res.Completeness.Unanswered {
		if u.PatternID == "Q2" {
			found = true
			if u.Reason == "" {
				t.Error("unanswered pattern should carry a reason")
			}
		}
	}
	if !found {
		t.Fatalf("Q2 should be listed unanswered, got %+v", res.Completeness.Unanswered)
	}
	// The join over the remaining pattern degenerates to Q1's rows at P2,
	// projected to (X, Y): still useful, explicitly partial.
	if res.Rows.Len() == 0 {
		t.Error("partial answer should still carry Q1's rows")
	}
	if m := p0.Engine.Metrics(); m.PartialAnswers != 1 {
		t.Errorf("PartialAnswers = %d, want 1", m.PartialAnswers)
	}
	// Without AllowPartial the same situation is an error (holes cannot
	// be filled), preserving the strict contract.
	p0.Engine.ResetMetrics()
	p0.Engine.AllowPartial = false
	for _, p := range peers {
		p0.Learn(p.Advertisement()) // re-learn; quarantine still applies
	}
	if _, err := p0.Ask(gen.PaperRQL); err == nil {
		t.Fatal("strict mode must fail when a pattern is unanswerable")
	}
}

// The throughput monitor is the paper's replan trigger: peers streaming
// below the floor are treated like failed peers — quarantined/forgotten
// and replanned around — without any delivery error occurring.
func TestThroughputMonitorTriggersReplan(t *testing.T) {
	peers, _ := paperSystem(t, 3)
	p1 := peers["P1"]
	// Floor far above what any remote streams: every remote is "slow".
	p1.Engine.Throughput = optimizer.NewThroughputMonitor(1000)

	pr, err := p1.PlanQuery(gen.PaperQuery())
	if err != nil {
		t.Fatalf("PlanQuery: %v", err)
	}
	rows, err := p1.Engine.Execute(pr.Optimized)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	m := p1.Engine.Metrics()
	if m.Replans == 0 {
		t.Fatal("flagged channels should have triggered a replan")
	}
	// After replanning around every remote, P1 answers from its own base.
	for _, id := range []pattern.PeerID{"P2", "P3", "P4"} {
		if _, ok := p1.Registry.Get(id); ok {
			t.Errorf("slow peer %s should have been dropped from routing", id)
		}
	}
	if rows.Len() == 0 {
		t.Error("local-only answer should still have rows")
	}
}
