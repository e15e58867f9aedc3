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

// accept is the destination's side of an untagged request naming ch,
// which every test roots at P1: what a subplan handler does on receipt.
func accept(m *channel.Manager, ch *channel.Channel) *channel.Inbound {
	return m.Accept("P1", ch.Num, ch.Watermark(), "")
}

func TestOpenSendReceive(t *testing.T) {
	net := network.New()
	ms := managers(t, net, "P1", "P2")

	var mu sync.Mutex
	var got []channel.Packet
	ch := ms["P1"].Deploy("", func(p channel.Packet) {
		mu.Lock()
		got = append(got, p)
		mu.Unlock()
	})
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
	if wm := ch.Watermark(); wm != 2 {
		t.Errorf("Watermark = %d, want 2", wm)
	}
}

// Deploying a channel sends nothing: the request that names it is the
// open. A second request on the channel continues its sequence numbers
// from the watermark it was shipped with.
func TestDeploySendsNothingAndSeqContinues(t *testing.T) {
	net := network.New()
	ms := managers(t, net, "P1", "P2")
	var seqs []int
	ch := ms["P1"].Deploy("", func(p channel.Packet) { seqs = append(seqs, p.Seq) })
	if c := net.Counters(); c.Messages != 0 {
		t.Fatalf("Deploy sent %d messages, want 0", c.Messages)
	}
	for req := 0; req < 2; req++ {
		in := ms["P2"].Accept("P1", ch.Num, ch.Watermark(), "gold")
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

func TestCloseChannel(t *testing.T) {
	net := network.New()
	ms := managers(t, net, "P1", "P2")
	called := 0
	ch := ms["P1"].Deploy("", func(channel.Packet) { called++ })
	in := accept(ms["P2"], ch)
	ms["P1"].Close(ch)
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
	st := ms["P1"].Stats()
	if st.PacketsDuplicate != 1 || st.ChannelsClosed != 1 {
		t.Errorf("PacketsDuplicate = %d, ChannelsClosed = %d; want 1 each", st.PacketsDuplicate, st.ChannelsClosed)
	}
}

// Each deploy at one root takes a fresh number, so two channels from
// the same root never share a callback.
func TestChannelIDsUniquePerRoot(t *testing.T) {
	net := network.New()
	ms := managers(t, net, "P1", "P2", "P3")
	var got []uint32
	a := ms["P1"].Deploy("", func(p channel.Packet) { got = append(got, p.Channel) })
	b := ms["P1"].Deploy("", nil)
	if a.Num == b.Num {
		t.Fatalf("duplicate channel numbers: %d", a.Num)
	}
	if id := channel.ID("P1", a.Num); id != "P1#1" {
		t.Errorf("ID(P1, %d) = %q, want P1#1", a.Num, id)
	}
	if err := ms["P3"].Accept("P1", a.Num, 0, "").Send(channel.Packet{Type: channel.Results, Final: true}); err != nil {
		t.Fatalf("send on %d: %v", a.Num, err)
	}
	if err := ms["P2"].Accept("P1", b.Num, 0, "").Send(channel.Packet{Type: channel.Results, Final: true}); err != nil {
		t.Fatalf("send on %d: %v", b.Num, err)
	}
	if len(got) != 1 || got[0] != a.Num {
		t.Errorf("channel %d's callback saw packets of channels %v", a.Num, got)
	}
}

// A packet for a number the root never deployed is dropped and counted
// as a duplicate, never returned as an error: the sender would retry on
// an error.
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

func TestPacketsCountedOnNetwork(t *testing.T) {
	net := network.New()
	ms := managers(t, net, "P1", "P2")
	ch := ms["P1"].Deploy("", nil)
	net.ResetCounters()
	in := accept(ms["P2"], ch)
	_ = in.Send(channel.Packet{Type: channel.Results, Rows: 10, Payload: make([]byte, 500)})
	c := net.Counters()
	if c.PerKind["chan.packet"] != 1 {
		t.Errorf("PerKind = %v", c.PerKind)
	}
	if c.Bytes < 500 {
		t.Errorf("Bytes = %d, payload not accounted", c.Bytes)
	}
	// A Frame counts as payload at its encoded size.
	frame, enc := testFrame(t)
	if err := in.Send(channel.Packet{Type: channel.Results, Final: true, Rows: testBatch().Len(), Frame: frame}); err != nil {
		t.Fatalf("send frame: %v", err)
	}
	if got, want := ms["P2"].Stats().PayloadBytesSent, 500+len(enc); got != want {
		t.Errorf("PayloadBytesSent = %d, want %d", got, want)
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

	in := accept(ms["P2"], ms["P1"].Deploy("", nil))
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
