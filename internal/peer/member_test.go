package peer_test

import (
	"testing"

	"sqpeer/internal/channel"
	"sqpeer/internal/exec"
	"sqpeer/internal/gen"
	"sqpeer/internal/membership"
	"sqpeer/internal/network"
	"sqpeer/internal/pattern"
	"sqpeer/internal/peer"
)

// Membership-wired peers build their routing views from anti-entropy
// alone: no PushAdvertisement, no shared registry — the detector's
// ApplyAdv callback Learns whatever the sync pass pulled, confirm-dead
// quarantines (pinned when the breaker is on), and a higher-incarnation
// rejoin reinstates.
func TestMembershipFeedsRoutingView(t *testing.T) {
	net := network.New()
	bases := gen.PaperBases(3)
	mopts := func() *membership.Options {
		return &membership.Options{Seed: 42}
	}
	peers := map[pattern.PeerID]*peer.Peer{}
	for _, id := range []pattern.PeerID{"P1", "P2", "P3"} {
		p, err := peer.New(peer.Config{
			ID: id, Kind: peer.SimplePeer, Schema: gen.PaperSchema(), Base: bases[id],
			Options:    exec.Options{DeadlineMS: 200, MaxRetries: 2, AllowPartial: true},
			Quarantine: true, Membership: mopts(),
		}, net)
		if err != nil {
			t.Fatalf("New(%s): %v", id, err)
		}
		peers[id] = p
	}
	for _, id := range []pattern.PeerID{"P2", "P3"} {
		if err := peers[id].Membership.Join("P1"); err != nil {
			t.Fatalf("join %s: %v", id, err)
		}
	}
	tickAll := func(n int) {
		for i := 0; i < n; i++ {
			for _, id := range []pattern.PeerID{"P1", "P2", "P3"} {
				if !net.IsDown(id) {
					peers[id].Membership.Tick()
				}
				peers[id].Health.Tick()
			}
		}
	}
	tickAll(6)
	for id, p := range peers {
		for _, other := range []pattern.PeerID{"P1", "P2", "P3"} {
			if _, ok := p.Registry.Get(other); !ok {
				t.Fatalf("%s never learned %s via anti-entropy", id, other)
			}
		}
	}
	full, err := peers["P1"].Ask(gen.PaperRQL)
	if err != nil {
		t.Fatalf("Ask over membership-built view: %v", err)
	}
	if full.Len() == 0 {
		t.Fatal("membership-built view produced no rows")
	}

	// Crash P2 (a prop1 provider, so its rows are visible in the
	// projection): confirm-dead must condemn it out of P1's routing view.
	net.Fail("P2")
	tickAll(10)
	if !peers["P1"].Registry.IsQuarantined("P2") {
		t.Fatal("confirmed-dead P2 not quarantined at P1")
	}
	if !peers["P1"].Health.Condemned("P2") {
		t.Fatal("confirm-dead must pin the breaker, not start a cool-down")
	}
	reduced, err := peers["P1"].Ask(gen.PaperRQL)
	if err != nil {
		t.Fatalf("Ask with P2 condemned: %v", err)
	}
	if reduced.Len() >= full.Len() {
		t.Fatalf("rows with P2 condemned = %d, want < %d", reduced.Len(), full.Len())
	}

	// Restart + rejoin: the higher incarnation revives P2 everywhere.
	net.Recover("P2")
	peers["P2"].Membership.Rejoin()
	tickAll(10)
	if peers["P1"].Registry.IsQuarantined("P2") || peers["P1"].Health.Condemned("P2") {
		t.Fatal("rejoined P2 still condemned at P1")
	}
	restored, err := peers["P1"].Ask(gen.PaperRQL)
	if err != nil {
		t.Fatalf("Ask after rejoin: %v", err)
	}
	if restored.Len() != full.Len() {
		t.Fatalf("rows after rejoin = %d, want %d", restored.Len(), full.Len())
	}
}

// A client peer (empty active-schema) must never enter other peers'
// routing registries through the membership plane, mirroring the
// self-registration rule.
func TestMembershipSkipsNonSharingPeers(t *testing.T) {
	net := network.New()
	client, err := peer.New(peer.Config{
		ID: "C0", Kind: peer.ClientPeer, Schema: gen.PaperSchema(),
		Membership: &membership.Options{Seed: 1},
	}, net)
	if err != nil {
		t.Fatalf("New(C0): %v", err)
	}
	srv, err := peer.New(peer.Config{
		ID: "P1", Kind: peer.SimplePeer, Schema: gen.PaperSchema(),
		Base: gen.PaperBases(1)["P1"], Membership: &membership.Options{Seed: 1},
	}, net)
	if err != nil {
		t.Fatalf("New(P1): %v", err)
	}
	if err := client.Membership.Join("P1"); err != nil {
		t.Fatalf("join: %v", err)
	}
	for i := 0; i < 4; i++ {
		client.Membership.Tick()
		srv.Membership.Tick()
	}
	if _, ok := client.Registry.Get("P1"); !ok {
		t.Fatal("client did not learn the sharing peer")
	}
	if _, ok := srv.Registry.Get("C0"); ok {
		t.Fatal("client peer leaked into a routing registry via membership")
	}
	if st, ok := srv.Membership.StatusOf("C0"); !ok || st != membership.StatusAlive {
		t.Fatalf("sharing peer should still track the client's liveness: %v %v", st, ok)
	}
}

// Gossip piggybacked on channel traffic spreads liveness without any
// detector tick on the receiving side.
func TestGossipRidesChannelTraffic(t *testing.T) {
	net := network.New()
	bases := gen.PaperBases(2)
	mk := func(id pattern.PeerID) *peer.Peer {
		p, err := peer.New(peer.Config{
			ID: id, Kind: peer.SimplePeer, Schema: gen.PaperSchema(), Base: bases["P1"],
			Options:    exec.Options{DeadlineMS: 200},
			Membership: &membership.Options{Seed: 2},
		}, net)
		if err != nil {
			t.Fatalf("New(%s): %v", id, err)
		}
		return p
	}
	root, dest := mk("P1"), mk("P2")
	// Seed a death verdict at the destination; it must reach the root on
	// the result packets of an ordinary exchange.
	dest.Membership.Merge([]membership.Entry{{Peer: "ghost", Status: membership.StatusDead, Incarnation: 5}})
	ch := root.Channels.Deploy("P2", "", 0, nil)
	in := dest.Channels.Accept(ch.Root, ch.Num, ch.Watermark(), "")
	if err := in.Send(channel.Packet{Type: channel.Results, Final: true, Rows: 1, Payload: []byte(`{}`)}); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if st, ok := root.Membership.StatusOf("ghost"); !ok || st != membership.StatusDead {
		t.Fatalf("gossip did not ride the packet: %v %v", st, ok)
	}
	if g := dest.Channels.Stats().GossipPiggybacked; g == 0 {
		t.Fatal("no piggyback accounted")
	}
}
