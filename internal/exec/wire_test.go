package exec_test

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"testing"

	"sqpeer/internal/gen"
	"sqpeer/internal/network"
	"sqpeer/internal/obs"
	"sqpeer/internal/pattern"
	"sqpeer/internal/peer"
	"sqpeer/internal/rdf"
	"sqpeer/internal/rql"
)

// wideSystem builds a root C with an empty base and 12 sites holding a
// horizontal split of 30 two-property chains: sites 0–5 hold three
// chains and sites 6–11 two, so with one-row frames the sites send
// different numbers of packets.
func wideSystem(t *testing.T) (*peer.Peer, *network.Network, string) {
	t.Helper()
	syn := gen.NewSynthetic(2, false)
	net := network.New()
	peers := []*peer.Peer{}
	bases := syn.Bases(12, 30, gen.Horizontal)
	bases["C"] = rdf.NewBase()
	ids := make([]pattern.PeerID, 0, len(bases))
	for id := range bases {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		cfg := peer.Config{ID: id, Kind: peer.SimplePeer, Schema: syn.Schema, Base: bases[id]}
		p, err := peer.New(cfg, net)
		if err != nil {
			t.Fatalf("peer.New(%s): %v", id, err)
		}
		p.Engine.BatchSize = 1
		peers = append(peers, p)
	}
	var root *peer.Peer
	for _, a := range peers {
		if a.ID == "C" {
			root = a
		}
		for _, b := range peers {
			if a != b {
				a.Learn(b.Advertisement())
			}
		}
	}
	return root, net, syn.RQL(1, 2)
}

// TestWireBytesIndependentOfDispatchOrder runs one 12-site query at
// parallelism 1 and 4, repeatedly, on one system. Concurrent dispatch
// numbers the sites' channels in a different order each time, and every
// run draws later channel numbers than the one before; neither may change
// what crosses the wire.
func TestWireBytesIndependentOfDispatchOrder(t *testing.T) {
	root, net, query := wideSystem(t)
	var want network.Counters
	for i, par := range []int{1, 4, 4, 4, 1} {
		root.Engine.Parallelism = par
		net.ResetCounters()
		rows, err := root.Ask(query)
		if err != nil {
			t.Fatalf("run %d (parallelism %d): %v", i, par, err)
		}
		if rows.Len() != 30 {
			t.Fatalf("run %d: %d rows, want 30", i, rows.Len())
		}
		got := net.Counters()
		if i == 0 {
			want = got
			if got.PerKind["exec.subplan"] < 12 {
				t.Fatalf("query shipped %d subplans, want one per site", got.PerKind["exec.subplan"])
			}
			continue
		}
		if got.Bytes != want.Bytes || got.Messages != want.Messages {
			t.Errorf("run %d (parallelism %d): %d messages / %d bytes, first run %d / %d",
				i, par, got.Messages, got.Bytes, want.Messages, want.Bytes)
		}
	}
}

// TestSimulatedTimeExactUnderParallelDispatch runs one seeded 12-site
// fanout at parallelism 8, on two systems built alike, several times
// each. Concurrent dispatch accounts the sites' deliveries in a
// different order every run; the simulated time must still read the same
// bits, so runs and sweeps can compare it exactly.
func TestSimulatedTimeExactUnderParallelDispatch(t *testing.T) {
	var want float64
	for sys := 0; sys < 2; sys++ {
		root, net, query := wideSystem(t)
		root.Engine.Parallelism = 8
		for run := 0; run < 3; run++ {
			net.ResetCounters()
			if _, err := root.Ask(query); err != nil {
				t.Fatalf("system %d run %d: %v", sys, run, err)
			}
			got := net.Counters().SimulatedMS
			if sys == 0 && run == 0 {
				want = got
			} else if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("system %d run %d: SimulatedMS %v, first run %v", sys, run, got, want)
			}
		}
	}
}

// TestOverCapAnswerFailsAtSender ships an answer whose strings exceed
// what one frame may carry: the site must end its stream with a Failure
// that names the cause, not send a frame the root rejects as malformed.
// The objects are prefixes of one string, so the test holds one copy.
func TestOverCapAnswerFailsAtSender(t *testing.T) {
	syn := gen.NewSynthetic(1, false)
	net := network.New()
	long := "http://example.org/big#" + strings.Repeat("x", 1<<20)
	site := rdf.NewBase()
	for j := 0; j < 65; j++ {
		obj := rdf.IRI(long[:len(long)-j])
		site.Add(rdf.Statement(rdf.IRI(fmt.Sprintf("http://example.org/s#%d", j)), syn.Prop(1), obj))
		site.Add(rdf.Typing(obj, syn.Class(1)))
	}
	var root *peer.Peer
	peers := []*peer.Peer{}
	for id, base := range map[pattern.PeerID]*rdf.Base{"C": rdf.NewBase(), "P": site} {
		p, err := peer.New(peer.Config{ID: id, Kind: peer.SimplePeer, Schema: syn.Schema, Base: base}, net)
		if err != nil {
			t.Fatalf("peer.New(%s): %v", id, err)
		}
		if id == "C" {
			root = p
		}
		peers = append(peers, p)
	}
	for _, a := range peers {
		for _, b := range peers {
			if a != b {
				a.Learn(b.Advertisement())
			}
		}
	}
	_, err := root.Ask("SELECT V0, V1 FROM {V0}syn:p1{V1} USING NAMESPACE syn = &" + gen.SynNS + "&")
	if err == nil || !strings.Contains(err.Error(), rql.ErrFrameTooLarge.Error()) {
		t.Fatalf("over-cap answer: got %v, want a remote failure naming %q", err, rql.ErrFrameTooLarge)
	}
	if strings.Contains(err.Error(), "bad results packet") {
		t.Fatalf("over-cap answer reached the root as a malformed frame: %v", err)
	}
}

// legTap records the accounted transfer time of every exec.subplan and
// chan.packet leg the network delivers.
type legTap struct {
	net  *network.Network
	mu   sync.Mutex
	ms   float64
	legs int
}

func (lt *legTap) Intercept(m network.Message) network.Fault {
	if m.Kind == "exec.subplan" || m.Kind == "chan.packet" {
		ms := lt.net.LinkBetween(m.From, m.To).TransferMS(m.Size())
		lt.mu.Lock()
		lt.ms += ms
		lt.legs++
		lt.mu.Unlock()
	}
	return network.Fault{}
}

// streamMS sums the self charge of every stream and retry span under s,
// grafted remote subtrees included.
func streamMS(s *obs.Span) float64 {
	total := 0.0
	if k := s.Kind(); k == obs.KindStream || k == obs.KindRetry {
		total += s.SelfMS()
	}
	for _, c := range s.Children() {
		total += streamMS(c)
	}
	return total
}

// TestStreamSpansChargeWhatTheNetworkCharged checks that a traced,
// fault-free query's stream spans charge exactly the transfer time the
// network accounted for its subplan requests and result packets: each
// leg is priced at its message's accounted size, not an estimate.
func TestStreamSpansChargeWhatTheNetworkCharged(t *testing.T) {
	peers, net, tracer, _ := tracedPaperSystem(t, 3)
	tap := &legTap{net: net}
	net.SetInjector(tap)
	p1 := peers["P1"]
	p1.Engine.BatchSize = 2 // several result packets per site
	if _, err := p1.Ask(gen.PaperRQL); err != nil {
		t.Fatalf("traced ask: %v", err)
	}
	traces := tracer.Traces()
	if len(traces) != 1 {
		t.Fatalf("want 1 trace, got %d", len(traces))
	}
	charged := streamMS(traces[0].Root())
	if tap.legs < 6 || charged == 0 {
		t.Fatalf("vacuous: %d legs, %.3f ms charged", tap.legs, charged)
	}
	if math.Abs(charged-tap.ms) > 1e-9*tap.ms {
		t.Errorf("stream spans charged %s ms; the network accounted %s ms over %d legs",
			fmt.Sprint(charged), fmt.Sprint(tap.ms), tap.legs)
	}
}
