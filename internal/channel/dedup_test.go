package channel_test

import (
	"sync"
	"testing"

	"sqpeer/internal/channel"
	"sqpeer/internal/network"
)

// dupInjector duplicates every chan.packet delivery.
type dupInjector struct{}

func (dupInjector) Intercept(m network.Message) network.Fault {
	if m.Kind == "chan.packet" {
		return network.Fault{Duplicate: true}
	}
	return network.Fault{}
}

// Packets carry destination-assigned sequence numbers, so a duplicated
// delivery (at-least-once transport) reaches the root-side callback
// exactly once and row accounting stays exact.
func TestDuplicateDeliverySuppressed(t *testing.T) {
	net := network.New()
	ms := managers(t, net, "P1", "P2")
	net.SetInjector(dupInjector{})

	var mu sync.Mutex
	var got []channel.Packet
	ch := ms["P1"].Deploy("P2", "", 0, func(p channel.Packet) {
		mu.Lock()
		got = append(got, p)
		mu.Unlock()
	})
	in := accept(ms["P2"], ch)
	if err := in.Send(channel.Packet{Type: channel.Results, Rows: 3, Payload: []byte("rows")}); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if err := in.Send(channel.Packet{Type: channel.Results, Final: true}); err != nil {
		t.Fatalf("Send final: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 2 {
		t.Fatalf("callback saw %d packets, want 2 (duplicates suppressed)", len(got))
	}
	if got[0].Seq != 1 || got[1].Seq != 2 {
		t.Errorf("sequence numbers = %d, %d", got[0].Seq, got[1].Seq)
	}
	if ch.RowsReceived() != 3 {
		t.Errorf("RowsReceived = %d, want 3 (duplicate not double-counted)", ch.RowsReceived())
	}
}

// A partition in the middle of a channel's life burns sequence numbers
// (the destination stamps Seq before the wire, and the sends fail), so
// the post-heal stream resumes with a gap. The dedupe state must treat
// the gap as missing packets — duplicates of post-heal packets are still
// suppressed, row accounting stays exact, and the watermark holds at the
// last contiguous prefix rather than jumping the gap.
func TestHealedLinkDedupeSurvivesGap(t *testing.T) {
	net := network.New()
	ms := managers(t, net, "P1", "P2")

	var mu sync.Mutex
	var got []channel.Packet
	ch := ms["P1"].Deploy("P2", "", 0, func(p channel.Packet) {
		mu.Lock()
		got = append(got, p)
		mu.Unlock()
	})
	in := accept(ms["P2"], ch)
	if err := in.Send(channel.Packet{Type: channel.Results, Rows: 3, Payload: []byte("pre")}); err != nil {
		t.Fatalf("pre-partition send: %v", err)
	}

	net.Partition("P1", "P2")
	for i := 0; i < 2; i++ {
		if err := in.Send(channel.Packet{Type: channel.Results, Rows: 10, Payload: []byte("lost")}); err == nil {
			t.Fatal("send across a cut link must fail")
		}
	}

	net.Heal("P1", "P2")
	net.SetInjector(dupInjector{}) // at-least-once transport after the heal
	if err := in.Send(channel.Packet{Type: channel.Results, Rows: 4, Payload: []byte("post")}); err != nil {
		t.Fatalf("healed link must deliver again: %v", err)
	}
	if err := in.Send(channel.Packet{Type: channel.Results, Final: true}); err != nil {
		t.Fatalf("final packet after heal: %v", err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(got) != 3 {
		t.Fatalf("callback saw %d packets, want 3 (pre, post, final; duplicates suppressed)", len(got))
	}
	if got[1].Seq != 4 {
		t.Errorf("post-heal packet resumed at seq %d, want 4 (seqs 2-3 burned by the cut)", got[1].Seq)
	}
	if ch.RowsReceived() != 7 {
		t.Errorf("RowsReceived = %d, want 7 (lost sends and duplicates excluded)", ch.RowsReceived())
	}
	if ch.Watermark() != 1 {
		t.Errorf("Watermark = %d, want 1 (the gap's packets never arrived)", ch.Watermark())
	}
	if d := ms["P1"].Stats().PacketsDuplicate; d < 2 {
		t.Errorf("PacketsDuplicate = %d, want >=2 (post-heal replays suppressed)", d)
	}
}
