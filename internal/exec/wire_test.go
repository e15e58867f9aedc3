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
	root, _, net := wideSites(t, syn)
	return root, net, syn.RQL(1, 2)
}

// wideSites is wideSystem over syn, also returning every peer by id.
func wideSites(t *testing.T, syn *gen.Synthetic) (*peer.Peer, map[pattern.PeerID]*peer.Peer, *network.Network) {
	t.Helper()
	net := network.New()
	peers := map[pattern.PeerID]*peer.Peer{}
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
		peers[id] = p
	}
	for _, a := range ids {
		for _, b := range ids {
			if a != b {
				peers[a].Learn(peers[b].Advertisement())
			}
		}
	}
	return peers["C"], peers, net
}

// TestWireBytesIndependentOfDispatchOrder runs one 12-site query at
// parallelism 1 and 4, repeatedly, on one system, then once more on a
// second system built alike. Concurrent dispatch numbers the sites'
// channels in a different order each time, and every run draws later
// channel numbers than the one before; neither may change what crosses
// the wire. The first run on a system ships self-contained frames and
// the sites' statistics and dictionary stamps; the second ships the
// sites' dictionary entries, which the root then mirrors, so every later
// run ships the same, smaller traffic. The second system's first two
// runs ship what the first system's did.
func TestWireBytesIndependentOfDispatchOrder(t *testing.T) {
	root, net, query := wideSystem(t)
	run := func(root *peer.Peer, net *network.Network, par int) network.Counters {
		t.Helper()
		root.Engine.Parallelism = par
		net.ResetCounters()
		rows, err := root.Ask(query)
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if rows.Len() != 30 {
			t.Fatalf("parallelism %d: %d rows, want 30", par, rows.Len())
		}
		return net.Counters()
	}
	cold := run(root, net, 1)
	if cold.PerKind["exec.subplan"] < 12 {
		t.Fatalf("query shipped %d subplans, want one per site", cold.PerKind["exec.subplan"])
	}
	fill := run(root, net, 4)
	var warm network.Counters
	for i, par := range []int{4, 4, 1} {
		got := run(root, net, par)
		if i == 0 {
			warm = got
			if got.Messages != cold.Messages || got.Bytes >= cold.Bytes {
				t.Errorf("warm run: %d messages / %d bytes, cold run %d / %d; want as many messages and fewer bytes",
					got.Messages, got.Bytes, cold.Messages, cold.Bytes)
			}
			continue
		}
		if got.Bytes != warm.Bytes || got.Messages != warm.Messages {
			t.Errorf("warm run %d (parallelism %d): %d messages / %d bytes, first warm run %d / %d",
				i, par, got.Messages, got.Bytes, warm.Messages, warm.Bytes)
		}
	}
	root2, net2, _ := wideSystem(t)
	for i, want := range []network.Counters{cold, fill} {
		if got := run(root2, net2, 4-3*i); got.Bytes != want.Bytes || got.Messages != want.Messages {
			t.Errorf("second system's run %d (parallelism %d): %d messages / %d bytes, first system's %d / %d",
				i, 4-3*i, got.Messages, got.Bytes, want.Messages, want.Bytes)
		}
	}
}

// TestSimulatedTimeExactUnderParallelDispatch runs one seeded 12-site
// fanout at parallelism 8, on two systems built alike, several times
// each. Concurrent dispatch accounts the sites' deliveries in a
// different order every run; the simulated time must still read the same
// bits, so runs and sweeps can compare it exactly. A system's first run
// ships self-contained frames and its second the dictionary entries the
// root then mirrors, so each run compares with the same run on the first
// system, and the warm runs of a system with each other.
func TestSimulatedTimeExactUnderParallelDispatch(t *testing.T) {
	const runs = 4
	var want [runs]float64
	for sys := 0; sys < 2; sys++ {
		root, net, query := wideSystem(t)
		root.Engine.Parallelism = 8
		for run := 0; run < runs; run++ {
			net.ResetCounters()
			if _, err := root.Ask(query); err != nil {
				t.Fatalf("system %d run %d: %v", sys, run, err)
			}
			got := net.Counters().SimulatedMS
			switch {
			case sys == 0:
				want[run] = got
				if run > 2 && math.Float64bits(got) != math.Float64bits(want[2]) {
					t.Fatalf("system 0 run %d: SimulatedMS %v, run 2 %v", run, got, want[2])
				}
			case math.Float64bits(got) != math.Float64bits(want[run]):
				t.Fatalf("system %d run %d: SimulatedMS %v, system 0 run %d %v", sys, run, got, run, want[run])
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

// TestWireTrafficIsAFunctionOfTheScript builds two 12-site systems one
// after the other, with thousands of other bases made in between, and
// replays one script on each at parallelism 4: queries over the sites,
// with a base update between them that adds terms to one site's
// dictionary and moves its statistics. What a root mirrors of each site
// makes the bytes depend on everything the root heard before, so each
// step must move the same messages and bytes on both systems: the
// dictionary stamps a request names are fixed-width, and nothing a root
// mirrors outlives its engine.
func TestWireTrafficIsAFunctionOfTheScript(t *testing.T) {
	syn := gen.NewSynthetic(2, false)
	steps := []string{syn.RQL(1, 2), syn.RQL(1, 1), "update", syn.RQL(2, 1), syn.RQL(1, 2), syn.RQL(1, 2)}
	replay := func() []string {
		root, peers, net := wideSites(t, syn)
		root.Engine.Parallelism = 4
		var out []string
		for i, step := range steps {
			net.ResetCounters()
			if step == "update" {
				site := peers["SP-003"]
				site.Base.Add(rdf.Statement(gen.SynIRI("r_new_0"), gen.SynIRI("p1"), gen.SynIRI("r_new_1")))
				site.Base.Add(rdf.Statement(gen.SynIRI("r_new_1"), gen.SynIRI("p2"), gen.SynIRI("r_new_2")))
				continue
			}
			rows, err := root.Ask(step)
			if err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
			c := net.Counters()
			out = append(out, fmt.Sprintf("step %d: %d rows, %d messages, %d bytes", i, rows.Len(), c.Messages, c.Bytes))
		}
		return out
	}
	first := replay()
	for i := 0; i < 20000; i++ {
		rdf.NewBase()
	}
	second := replay()
	if strings.Join(first, "\n") != strings.Join(second, "\n") {
		t.Fatalf("first system:\n%s\nsecond system:\n%s", strings.Join(first, "\n"), strings.Join(second, "\n"))
	}
	if first[0] == first[len(first)-1] {
		t.Errorf("the warm query moved what the cold one did: %s", first[0])
	}
}
