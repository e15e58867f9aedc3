package peer_test

import (
	"errors"
	"testing"

	"sqpeer/internal/exec"
	"sqpeer/internal/gen"
	"sqpeer/internal/network"
	"sqpeer/internal/peer"
	"sqpeer/internal/stats"
)

// TestAdvertisementDeadline: the engine's DeadlineMS also bounds the
// control-plane advertisement RPCs, so pushing to a peer behind a
// gray-failed link fails fast with a transient deadline error; zero
// keeps them unbounded.
func TestAdvertisementDeadline(t *testing.T) {
	net := network.New()
	bases := gen.PaperBases(2)
	p1 := newPeer(t, net, "P1", bases["P1"], peer.SimplePeer)
	p2 := newPeer(t, net, "P2", bases["P2"], peer.SimplePeer)
	_ = p1
	net.SetLink("P1", "P2", stats.Link{LatencyMS: 500, BandwidthKBps: 1000})

	p2.Engine.DeadlineMS = 10
	err := p2.PushAdvertisement("P1")
	if err == nil {
		t.Fatal("push over a 500ms link beat a 10ms deadline")
	}
	var de *network.DeliveryError
	if !errors.As(err, &de) || de.Reason != network.ReasonDeadline {
		t.Fatalf("expected a deadline DeliveryError, got %v", err)
	}
	if !network.Transient(err) {
		t.Fatalf("deadline miss should be transient: %v", err)
	}
	if err := p2.PullAdvertisement("P1"); err == nil {
		t.Fatal("pull over a 500ms link beat a 10ms deadline")
	}

	// Zero restores the unbounded behavior.
	p2.Engine.DeadlineMS = 0
	if err := p2.PushAdvertisement("P1"); err != nil {
		t.Fatalf("unbounded push failed: %v", err)
	}
	if err := p2.PullAdvertisement("P1"); err != nil {
		t.Fatalf("unbounded pull failed: %v", err)
	}
}

// TestConfigDeadlineMirrorsToPeer pins the wiring: Config.DeadlineMS
// reaches the engine, which also bounds the peer's control-plane RPCs,
// and the channel manager's opens.
func TestConfigDeadlineMirrorsToPeer(t *testing.T) {
	net := network.New()
	p, err := peer.New(peer.Config{
		ID: "P1", Kind: peer.SimplePeer, Schema: gen.PaperSchema(),
		Base: gen.PaperBases(1)["P1"], Options: exec.Options{DeadlineMS: 42},
	}, net)
	if err != nil {
		t.Fatal(err)
	}
	if p.Engine.DeadlineMS != 42 {
		t.Errorf("Engine.DeadlineMS = %v, want 42", p.Engine.DeadlineMS)
	}
	if p.Channels.DeadlineMS != 42 {
		t.Errorf("Channels.DeadlineMS = %v, want 42", p.Channels.DeadlineMS)
	}
}
