package exec_test

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"

	"sqpeer/internal/channel"
	"sqpeer/internal/exec"
	"sqpeer/internal/gen"
	"sqpeer/internal/network"
	"sqpeer/internal/obs"
	"sqpeer/internal/optimizer"
	"sqpeer/internal/pattern"
	"sqpeer/internal/peer"
	"sqpeer/internal/plan"
)

// tracedPaperSystem is paperSystem with a tracer on P1 only and one
// shared registry: remote peers must appear in P1's trace purely through
// channel propagation.
func tracedPaperSystem(t testing.TB, pairs int) (map[pattern.PeerID]*peer.Peer, *network.Network, *obs.Tracer, *obs.Registry) {
	t.Helper()
	schema := gen.PaperSchema()
	bases := gen.PaperBases(pairs)
	net := network.New()
	tracer := obs.NewTracer()
	reg := obs.NewRegistry()
	peers := map[pattern.PeerID]*peer.Peer{}
	for _, id := range []pattern.PeerID{"P1", "P2", "P3", "P4"} {
		cfg := peer.Config{ID: id, Kind: peer.SimplePeer, Schema: schema, Base: bases[id], Obs: reg}
		if id == "P1" {
			cfg.Tracer = tracer
		}
		p, err := peer.New(cfg, net)
		if err != nil {
			t.Fatalf("peer.New(%s): %v", id, err)
		}
		peers[id] = p
	}
	for _, a := range peers {
		for _, b := range peers {
			if a != b {
				a.Learn(b.Advertisement())
			}
		}
	}
	return peers, net, tracer, reg
}

func tracedAskJSONL(t *testing.T) []byte {
	t.Helper()
	peers, _, tracer, _ := tracedPaperSystem(t, 3)
	p1 := peers["P1"]
	if _, err := p1.Ask(gen.PaperRQL); err != nil {
		t.Fatalf("traced ask: %v", err)
	}
	return tracer.JSONL()
}

// Two fresh same-scenario runs must export byte-identical span listings:
// the trace is a function of the plan and the simulated network alone.
func TestTraceDeterministicAcrossRuns(t *testing.T) {
	a, b := tracedAskJSONL(t), tracedAskJSONL(t)
	if len(a) == 0 {
		t.Fatal("empty trace export")
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("same-scenario traces differ:\nrun1:\n%s\nrun2:\n%s", a, b)
	}
}

// Only P1 owns a tracer, yet the spans of every peer that executed a
// subplan must appear in P1's trace, grafted under the dispatch that
// shipped the work — and the grafted tree must keep attribution exact.
func TestCrossPeerSpanPropagation(t *testing.T) {
	peers, _, tracer, _ := tracedPaperSystem(t, 3)
	p1 := peers["P1"]
	if _, err := p1.Ask(gen.PaperRQL); err != nil {
		t.Fatalf("traced ask: %v", err)
	}
	traces := tracer.Traces()
	if len(traces) != 1 {
		t.Fatalf("want 1 trace, got %d", len(traces))
	}
	remotePeers := map[string]bool{}
	for _, es := range traces[0].Layout() {
		if es.Kind == obs.KindRemote && es.Peer != "P1" {
			remotePeers[es.Peer] = true
		}
	}
	for _, want := range []string{"P2", "P3", "P4"} {
		if !remotePeers[want] {
			t.Errorf("no remote span from %s in P1's trace (got %v)", want, remotePeers)
		}
	}
	att := obs.Analyze(traces[0], 2)
	if att == nil {
		t.Fatal("no attribution")
	}
	if err := att.Check(); err != nil {
		t.Fatalf("attribution invariants: %v", err)
	}
	if len(att.Leaves) == 0 {
		t.Fatal("no dispatch leaves attributed")
	}
}

// A dropped dispatch surfaces in the trace as a retry span whose self
// time (backoff + re-transfer) lands in the retry/backoff phase.
func TestTraceRetrySpans(t *testing.T) {
	peers, net, tracer, _ := tracedPaperSystem(t, 3)
	p1 := peers["P1"]
	p1.Engine.MaxRetries = 2
	net.SetInjector(&scriptInjector{drops: map[string]int{"exec.subplan": 1}})
	if _, err := p1.Ask(gen.PaperRQL); err != nil {
		t.Fatalf("traced ask with retry: %v", err)
	}
	tr := tracer.Traces()[0]
	sawRetry := false
	for _, es := range tr.Layout() {
		if es.Kind == obs.KindRetry {
			sawRetry = true
			if es.SelfMS <= 0 {
				t.Errorf("retry span %s has no self charge", es.ID)
			}
		}
	}
	if !sawRetry {
		t.Fatal("no retry span recorded for the dropped dispatch")
	}
	att := obs.Analyze(tr, 1)
	if att.Phases[obs.PhaseRetry] <= 0 {
		t.Fatalf("retry/backoff phase empty: %v", att.Phases)
	}
	if err := att.Check(); err != nil {
		t.Fatalf("attribution invariants with retries: %v", err)
	}
}

// The shared registry must end the run holding every layer's counters,
// including the stats-packet arrival counters of the StatsSink path.
func TestRegistryUnifiesLayers(t *testing.T) {
	peers, _, _, reg := tracedPaperSystem(t, 3)
	p1 := peers["P1"]
	if _, err := p1.Ask(gen.PaperRQL); err != nil {
		t.Fatalf("ask: %v", err)
	}
	got := map[string]float64{}
	for _, m := range reg.Snapshot() {
		got[m.Name] += m.Value
	}
	for _, name := range []string{
		"exec_subplans_shipped_total",
		"exec_rows_shipped_total",
		"exec_stats_packets_received_total",
		"exec_stats_packets_applied_total",
		"channel_packets_sent_total",
		"channel_packets_accepted_total",
	} {
		if got[name] <= 0 {
			t.Errorf("registry missing activity on %s (snapshot: %v)", name, got)
		}
	}
}

// packetTap decodes every chan.packet the network delivers.
type packetTap struct {
	mu      sync.Mutex
	packets []channel.Packet
}

func (pt *packetTap) Intercept(m network.Message) network.Fault {
	if m.Kind == "chan.packet" {
		if p, err := channel.DecodePacket(m.Payload); err == nil {
			pt.mu.Lock()
			pt.packets = append(pt.packets, p)
			pt.mu.Unlock()
		}
	}
	return network.Fault{}
}

// A subplan that fails at the serving peer still brings that peer's span
// subtree home: the peer answers with one Failure packet marked final,
// whose Spans trailer carries the record, and the root grafts it under
// the dispatch that shipped the work.
func TestFailedSubplanGraftsRemoteSpans(t *testing.T) {
	peers, net, tracer, _ := tracedPaperSystem(t, 2)
	p1 := peers["P1"]
	p1.Engine.Router = nil // surface the failure instead of replanning
	p1.Engine.Cost = nil   // query shipping sends the join to its first remote scan peer, P2
	p1.Engine.Policy = optimizer.QueryShipping
	tap := &packetTap{}
	net.SetInjector(tap)
	net.Fail("P3") // P2's nested leg to P3 fails
	q := gen.PaperQuery()
	j := plan.NewJoin(plan.NewScan(q.Patterns[0], "P2"), plan.NewScan(q.Patterns[1], "P3"))
	_, err := p1.Engine.Execute(&plan.Plan{Root: j, Query: q})
	var pf *exec.PeerFailure
	if !errors.As(err, &pf) || pf.Peer != "P2" {
		t.Fatalf("want a PeerFailure of P2, got %v", err)
	}
	if len(tap.packets) != 1 {
		t.Fatalf("P2 sent %d packets, want one", len(tap.packets))
	}
	if p := tap.packets[0]; p.Type != channel.Failure || !p.Final || len(p.Spans) == 0 {
		t.Fatalf("P2's packet = type %d, final %v, %d span bytes; want a final Failure with spans",
			p.Type, p.Final, len(p.Spans))
	}
	var remote, nested *obs.ExportSpan
	layout := tracer.Traces()[0].Layout()
	for i, es := range layout {
		switch {
		case es.Kind == obs.KindRemote && es.Peer == "P2":
			remote = &layout[i]
		case es.Kind == obs.KindDispatch && es.Peer == "P3":
			nested = &layout[i]
		}
	}
	if remote == nil || !strings.Contains(remote.ID, "/dispatch@P2/") {
		t.Fatalf("P2's remote span is not grafted under P1's dispatch@P2: %+v", remote)
	}
	if nested == nil || !strings.HasPrefix(nested.ID, remote.ID+"/") {
		t.Fatalf("P2's failed dispatch to P3 is missing from the grafted subtree: %+v", nested)
	}
}
