package channel_test

import (
	"reflect"
	"sync"
	"testing"

	"sqpeer/internal/channel"
	"sqpeer/internal/network"
	"sqpeer/internal/pattern"
)

func managers(t testing.TB, net *network.Network, ids ...pattern.PeerID) map[pattern.PeerID]*channel.Manager {
	t.Helper()
	out := map[pattern.PeerID]*channel.Manager{}
	for _, id := range ids {
		out[id] = channel.NewManager(id, net)
	}
	return out
}

// accept is the destination's side of a request naming ch: what a
// subplan handler does on receipt.
func accept(m *channel.Manager, ch *channel.Channel) *channel.Inbound {
	return m.Accept(ch.Root, ch.Num, ch.Watermark(), ch.Tenant)
}

func TestOpenSendReceive(t *testing.T) {
	net := network.New()
	ms := managers(t, net, "P1", "P2")

	var mu sync.Mutex
	var got []channel.Packet
	ch := ms["P1"].Deploy("P2", "", 0, func(p channel.Packet) {
		mu.Lock()
		got = append(got, p)
		mu.Unlock()
	})
	if ch.Root != "P1" || ch.Dest != "P2" {
		t.Errorf("channel ends = %s → %s", ch.Root, ch.Dest)
	}
	in := accept(ms["P2"], ch)
	if err := in.Send(channel.Packet{Type: channel.Results, Rows: 3, Payload: []byte("rows")}); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if err := in.Send(channel.Packet{Type: channel.Results, Final: true, Stats: []byte("s"), Spans: []byte("t")}); err != nil {
		t.Fatalf("Send final: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 2 {
		t.Fatalf("received %d packets", len(got))
	}
	if got[0].Type != channel.Results || got[0].Rows != 3 || string(got[0].Payload) != "rows" || got[0].Final {
		t.Errorf("packet 0 = %+v", got[0])
	}
	if !got[1].Final || string(got[1].Stats) != "s" || string(got[1].Spans) != "t" {
		t.Errorf("final packet = %+v", got[1])
	}
	if got[0].Seq != 1 || got[1].Seq != 2 {
		t.Errorf("sequence numbers = %d, %d", got[0].Seq, got[1].Seq)
	}
	if ch.RowsReceived() != 3 {
		t.Errorf("RowsReceived = %d", ch.RowsReceived())
	}
}

// Deploying a channel sends nothing: the request that names it is the
// open. A second request on the channel continues its sequence numbers
// from the watermark it was shipped with.
func TestDeploySendsNothingAndSeqContinues(t *testing.T) {
	net := network.New()
	ms := managers(t, net, "P1", "P2")
	var seqs []int
	ch := ms["P1"].Deploy("P2", "gold", 2, func(p channel.Packet) { seqs = append(seqs, p.Seq) })
	if c := net.Counters(); c.Messages != 0 {
		t.Fatalf("Deploy sent %d messages, want 0", c.Messages)
	}
	for req := 0; req < 2; req++ {
		in := accept(ms["P2"], ch)
		for i := 0; i < 2; i++ {
			if err := in.Send(channel.Packet{Type: channel.Results, Final: i == 1}); err != nil {
				t.Fatalf("request %d send %d: %v", req, i, err)
			}
		}
	}
	if want := []int{1, 2, 3, 4}; !reflect.DeepEqual(seqs, want) {
		t.Errorf("sequence numbers = %v, want %v", seqs, want)
	}
	st := ms["P2"].Stats()
	if st.ChannelsAccepted != 2 || st.TenantAccepts["gold"] != 2 {
		t.Errorf("accepts = %d, per tenant %v; want 2 under gold", st.ChannelsAccepted, st.TenantAccepts)
	}
	if o := ms["P1"].Stats().ChannelsOpened; o != 1 {
		t.Errorf("ChannelsOpened = %d, want 1", o)
	}
}

func TestFailurePacketMarksChannel(t *testing.T) {
	net := network.New()
	ms := managers(t, net, "P1", "P2")
	ch := ms["P1"].Deploy("P2", "", 0, nil)
	if ch.Failed() {
		t.Error("fresh channel reported failed")
	}
	if err := accept(ms["P2"], ch).Send(channel.Packet{Type: channel.Failure, Payload: []byte("peer overloaded")}); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if !ch.Failed() {
		t.Error("Failure packet did not mark the channel")
	}
	ms["P1"].MarkFailed(ch)
	if !ch.Failed() {
		t.Error("MarkFailed did not mark the channel")
	}
}

func TestCloseChannel(t *testing.T) {
	net := network.New()
	ms := managers(t, net, "P1", "P2")
	called := 0
	ch := ms["P1"].Deploy("P2", "", 0, func(channel.Packet) { called++ })
	in := accept(ms["P2"], ch)
	if got := ms["P1"].OpenChannels(); len(got) != 1 || got[0] != ch.ID {
		t.Errorf("OpenChannels = %v", got)
	}
	ms["P1"].Close(ch)
	if !ch.Closed() {
		t.Error("channel not marked closed")
	}
	if got := ms["P1"].OpenChannels(); len(got) != 0 {
		t.Errorf("OpenChannels after close = %v", got)
	}
	// Retiring is local: nothing crosses the wire. A packet that still
	// arrives for the retired number is dropped as a duplicate, and the
	// sender sees no error (it would take one for a failed delivery).
	if c := net.Counters(); c.Messages != 0 {
		t.Errorf("Close sent %d messages, want 0", c.Messages)
	}
	if err := in.Send(channel.Packet{Type: channel.Results, Rows: 1, Final: true}); err != nil {
		t.Errorf("late packet for a retired channel returned %v to its sender", err)
	}
	if called != 0 {
		t.Error("late packet reached the retired channel's callback")
	}
	if d := ms["P1"].Stats().PacketsDuplicate; d != 1 {
		t.Errorf("PacketsDuplicate = %d, want 1", d)
	}
}

func TestOnOpenHook(t *testing.T) {
	net := network.New()
	ms := managers(t, net, "P1", "P2")
	var hookID string
	var hookRoot pattern.PeerID
	ms["P2"].OnOpen(func(id string, root pattern.PeerID) {
		hookID, hookRoot = id, root
	})
	ch := ms["P1"].Deploy("P2", "", 0, nil)
	if hookID != "" {
		t.Errorf("OnOpen fired on deploy with %q", hookID)
	}
	accept(ms["P2"], ch)
	if hookID != ch.ID || hookRoot != "P1" {
		t.Errorf("OnOpen got (%q, %s)", hookID, hookRoot)
	}
}

func TestChannelIDsUniquePerRoot(t *testing.T) {
	net := network.New()
	ms := managers(t, net, "P1", "P2", "P3")
	a := ms["P1"].Deploy("P2", "", 0, nil)
	b := ms["P1"].Deploy("P3", "", 0, nil)
	if a.ID == b.ID {
		t.Errorf("duplicate channel ids: %s", a.ID)
	}
	if _, ok := ms["P1"].Channel(a.ID); !ok {
		t.Error("Channel lookup failed")
	}
	if _, ok := ms["P1"].Channel("ghost"); ok {
		t.Error("ghost channel found")
	}
}

// A packet for a number the root never deployed (or already retired) is
// dropped and counted as a duplicate, never returned as an error: the
// sender would retry on an error.
func TestPacketForUnknownChannelIsDuplicate(t *testing.T) {
	net := network.New()
	ms := managers(t, net, "P1", "P2")
	pkt := channel.Packet{Channel: 99, Type: channel.Results, Seq: 1, Final: true}
	if err := net.Send("P2", "P1", "chan.packet", channel.AppendPacket(nil, &pkt)); err != nil {
		t.Errorf("packet for an unknown channel: %v", err)
	}
	if d := ms["P1"].Stats().PacketsDuplicate; d != 1 {
		t.Errorf("PacketsDuplicate = %d, want 1", d)
	}
}

func TestPacketTypeNames(t *testing.T) {
	names := map[channel.PacketType]string{
		channel.Results: "results", channel.PlanChange: "plan-change",
		channel.Failure: "failure", channel.TraceSpans: "trace-spans",
	}
	for typ, want := range names {
		if typ.String() != want {
			t.Errorf("%d.String() = %q, want %q", typ, typ.String(), want)
		}
	}
}

func TestPacketsCountedOnNetwork(t *testing.T) {
	net := network.New()
	ms := managers(t, net, "P1", "P2")
	ch := ms["P1"].Deploy("P2", "", 0, nil)
	net.ResetCounters()
	_ = accept(ms["P2"], ch).Send(channel.Packet{Type: channel.Results, Rows: 10, Payload: make([]byte, 500)})
	c := net.Counters()
	if c.PerKind["chan.packet"] != 1 {
		t.Errorf("PerKind = %v", c.PerKind)
	}
	if c.Bytes < 500 {
		t.Errorf("Bytes = %d, payload not accounted", c.Bytes)
	}
}

// Membership gossip rides upstream packets: the destination's
// GossipSource blob arrives at the root's OnGossip hook attributed to
// the sending peer, and packets without a pending blob carry nothing.
func TestGossipPiggybackOnPackets(t *testing.T) {
	net := network.New()
	ms := managers(t, net, "P1", "P2")

	var mu sync.Mutex
	pending := []byte(`[{"peer":"X","status":2,"incarnation":1}]`)
	ms["P2"].GossipSource = func() []byte {
		mu.Lock()
		defer mu.Unlock()
		b := pending
		pending = nil
		return b
	}
	type gossip struct {
		from pattern.PeerID
		blob string
	}
	var seen []gossip
	ms["P1"].OnGossip = func(from pattern.PeerID, blob []byte) {
		mu.Lock()
		defer mu.Unlock()
		seen = append(seen, gossip{from, string(blob)})
	}

	in := accept(ms["P2"], ms["P1"].Deploy("P2", "", 0, nil))
	if err := in.Send(channel.Packet{Type: channel.Results, Rows: 1, Payload: []byte("r")}); err != nil {
		t.Fatalf("send 1: %v", err)
	}
	if err := in.Send(channel.Packet{Type: channel.Results, Final: true}); err != nil {
		t.Fatalf("send 2: %v", err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 1 {
		t.Fatalf("OnGossip fired %d times, want 1 (second packet had no blob)", len(seen))
	}
	if seen[0].from != "P2" || seen[0].blob != `[{"peer":"X","status":2,"incarnation":1}]` {
		t.Fatalf("gossip = %+v", seen[0])
	}
	if g := ms["P2"].Stats().GossipPiggybacked; g != 1 {
		t.Fatalf("GossipPiggybacked = %d, want 1", g)
	}
}
