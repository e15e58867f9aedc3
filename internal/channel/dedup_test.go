package channel_test

import (
	"math/rand"
	"strings"
	"sync"
	"testing"

	"sqpeer/internal/channel"
	"sqpeer/internal/faults"
	"sqpeer/internal/network"
)

// recorder is a root-side callback that counts deliveries per sequence
// number and sums rows.
type recorder struct {
	mu   sync.Mutex
	seen map[int]int
	rows int
}

func (r *recorder) onPacket(p channel.Packet) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.seen == nil {
		r.seen = map[int]int{}
	}
	r.seen[p.Seq]++
	r.rows += p.Rows
}

func (r *recorder) count(seq int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seen[seq]
}

// stamp sends a hand-numbered packet on channel num from P2 to P1,
// bypassing Inbound.Send's sequencing.
func stamp(net *network.Network, num uint32, typ channel.PacketType, seq, rows int) error {
	pkt := channel.Packet{Channel: num, Type: typ, Seq: seq, Rows: rows}
	return net.Send("P2", "P1", "chan.packet", channel.AppendPacket(nil, &pkt))
}

// Packets carry destination-assigned sequence numbers, so on an
// at-least-once wire — every delivery duplicated, half of them delayed —
// an in-order stream reaches the root-side callback exactly once per
// packet, and a replay that arrives after the floor passed it is
// dropped and counted.
func TestDuplicateDeliverySuppressed(t *testing.T) {
	const (
		seed    = 20240805
		packets = 20
		rowsPer = 2
	)
	net := network.New()
	ms := managers(t, net, "P1", "P2")
	net.SetInjector(faults.NewInjector(seed, faults.Rates{Duplicate: 1, DelaySpike: 0.5, SpikeMS: 300}))

	rec := &recorder{}
	ch := ms["P1"].Deploy("", rec.onPacket)
	in := accept(ms["P2"], ch)
	for i := 0; i < packets; i++ {
		if err := in.Send(channel.Packet{Type: channel.Results, Rows: rowsPer, Final: i == packets-1}); err != nil {
			t.Fatalf("send %d: %v", i+1, err)
		}
	}
	for seq := 1; seq <= packets; seq++ {
		if n := rec.count(seq); n != 1 {
			t.Errorf("seq %d delivered %d times, want exactly once", seq, n)
		}
	}
	if rec.rows != packets*rowsPer {
		t.Errorf("callback counted %d rows, want %d", rec.rows, packets*rowsPer)
	}
	if wm := ch.Watermark(); wm != packets {
		t.Errorf("Watermark = %d, want %d", wm, packets)
	}
	st := ms["P1"].Stats()
	if st.PacketsAccepted != packets || st.PacketsDuplicate != packets {
		t.Errorf("accepted %d, duplicates %d; want %d each", st.PacketsAccepted, st.PacketsDuplicate, packets)
	}

	// A late replay at or below the floor is dropped, never an error.
	net.SetInjector(nil)
	if err := stamp(net, ch.Num, channel.Results, 5, rowsPer); err != nil {
		t.Fatalf("late replay returned %v to its sender", err)
	}
	if n := rec.count(5); n != 1 {
		t.Errorf("replay of seq 5 delivered %d times, want 1", n)
	}
	if d := ms["P1"].Stats().PacketsDuplicate; d != packets+1 {
		t.Errorf("PacketsDuplicate after the replay = %d, want %d", d, packets+1)
	}
	if wm := ch.Watermark(); wm != packets {
		t.Errorf("Watermark after the replay = %d, want %d", wm, packets)
	}
}

// TestReorderedAndDuplicatedPackets drives the root-side packet path with
// a seeded adversarial wire: hand-stamped packets are sent in a shuffled
// order while a faults.Injector duplicates every delivery and adds delay
// spikes. The root refuses every packet past floor+1, so the sender
// resends what was refused, round after round, until the stream is in.
// No row may be lost and none double-counted: each sequence number
// reaches the callback exactly once, and a replay that arrives after the
// floor passed it is dropped.
func TestReorderedAndDuplicatedPackets(t *testing.T) {
	const (
		seed    = 20240805
		packets = 20
		rowsPer = 2
	)
	net := network.New()
	ms := managers(t, net, "P1", "P2")
	// The spike only charges simulated latency; order is set by the shuffle.
	net.SetInjector(faults.NewInjector(seed, faults.Rates{Duplicate: 1, DelaySpike: 0.5, SpikeMS: 300}))

	rec := &recorder{}
	ch := ms["P1"].Deploy("", rec.onPacket)
	pending := rand.New(rand.NewSource(seed)).Perm(packets)
	refused := 0
	for round := 0; len(pending) > 0; round++ {
		if round > packets {
			t.Fatalf("%d packets still refused after %d rounds", len(pending), round)
		}
		var next []int
		for _, i := range pending {
			err := stamp(net, ch.Num, channel.Results, i+1, rowsPer)
			switch {
			case err == nil:
			case strings.Contains(err.Error(), "out of sequence"):
				refused++
				next = append(next, i)
			default:
				t.Fatalf("seq %d: %v", i+1, err)
			}
		}
		pending = next
	}
	if refused == 0 {
		t.Fatalf("the shuffled wire refused nothing; the test exercised no reordering")
	}

	for seq := 1; seq <= packets; seq++ {
		if n := rec.count(seq); n != 1 {
			t.Errorf("seq %d delivered %d times, want exactly once", seq, n)
		}
	}
	if rec.rows != packets*rowsPer {
		t.Errorf("callback counted %d rows, want %d", rec.rows, packets*rowsPer)
	}
	// Every gap has filled: the contiguous watermark reached the top.
	if wm := ch.Watermark(); wm != packets {
		t.Errorf("Watermark = %d, want %d", wm, packets)
	}
	if st := ms["P1"].Stats(); st.PacketsAccepted != packets {
		t.Errorf("accepted %d, want %d", st.PacketsAccepted, packets)
	}

	// A replay arriving after the floor passed it must still be dropped.
	if err := stamp(net, ch.Num, channel.Results, 5, rowsPer); err != nil {
		t.Fatalf("late replay returned %v to its sender", err)
	}
	if n := rec.count(5); n != 1 {
		t.Errorf("replay of seq 5 delivered %d times, want 1", n)
	}
	if rec.rows != packets*rowsPer {
		t.Errorf("rows after replay = %d, want %d", rec.rows, packets*rowsPer)
	}
}

// The root accepts only the packet numbered floor+1. One numbered past
// it is refused with an error to its sender: the callback never sees it,
// nothing is counted, and the watermark stays at the contiguous prefix.
// Once the gap fills in order, the same number is accepted.
func TestOutOfSequencePacketRefused(t *testing.T) {
	net := network.New()
	ms := managers(t, net, "P1", "P2")
	rec := &recorder{}
	ch := ms["P1"].Deploy("", rec.onPacket)

	if err := stamp(net, ch.Num, channel.Results, 1, 1); err != nil {
		t.Fatalf("seq 1: %v", err)
	}
	for _, seq := range []int{3, 4, 1 << 20} {
		if err := stamp(net, ch.Num, channel.Results, seq, 1); err == nil || !strings.Contains(err.Error(), "out of sequence") {
			t.Errorf("seq %d past watermark 1: err = %v, want the root's refusal", seq, err)
		}
		if n := rec.count(seq); n != 0 {
			t.Errorf("refused seq %d reached the callback %d times", seq, n)
		}
	}
	if wm := ch.Watermark(); wm != 1 {
		t.Errorf("Watermark after refusals = %d, want 1", wm)
	}
	if st := ms["P1"].Stats(); st.PacketsAccepted != 1 || st.PacketsDuplicate != 0 {
		t.Errorf("accepted %d, duplicates %d; want 1 and 0", st.PacketsAccepted, st.PacketsDuplicate)
	}
	for seq := 2; seq <= 3; seq++ {
		if err := stamp(net, ch.Num, channel.Results, seq, 1); err != nil {
			t.Fatalf("in-order seq %d: %v", seq, err)
		}
	}
	if wm := ch.Watermark(); wm != 3 || rec.count(3) != 1 || rec.rows != 3 {
		t.Errorf("after the gap filled: watermark %d, seq 3 seen %d times, %d rows; want 3, 1, 3",
			wm, rec.count(3), rec.rows)
	}
}

// A packet whose type is none of the three defined — 3 is the first
// undefined value, 0x7f the largest the type byte holds — is refused
// with an error before it touches the channel: it does not advance the floor, so the real packet with its
// sequence number is accepted afterwards rather than dropped as a
// duplicate. The decoder itself accepts any type byte.
func TestUndefinedPacketTypeRefused(t *testing.T) {
	net := network.New()
	ms := managers(t, net, "P1", "P2")
	rec := &recorder{}
	ch := ms["P1"].Deploy("", rec.onPacket)
	for _, typ := range []channel.PacketType{3, 0x7f} {
		body := channel.AppendPacket(nil, &channel.Packet{Channel: ch.Num, Type: typ, Seq: 1})
		if _, err := channel.DecodePacket(body); err != nil {
			t.Fatalf("type %d does not decode: %v", typ, err)
		}
		if err := net.Send("P2", "P1", "chan.packet", body); err == nil || !strings.Contains(err.Error(), "undefined type") {
			t.Errorf("type %d: err = %v, want the root's refusal", typ, err)
		}
	}
	if wm := ch.Watermark(); wm != 0 || rec.count(1) != 0 {
		t.Fatalf("undefined types moved the watermark to %d or reached the callback", wm)
	}
	if err := stamp(net, ch.Num, channel.Results, 1, 2); err != nil {
		t.Fatalf("real seq 1: %v", err)
	}
	if rec.count(1) != 1 || rec.rows != 2 {
		t.Errorf("real seq 1 seen %d times with %d rows, want once with 2", rec.count(1), rec.rows)
	}
	if st := ms["P1"].Stats(); st.PacketsAccepted != 1 || st.PacketsDuplicate != 0 {
		t.Errorf("accepted %d, duplicates %d; want 1 and 0", st.PacketsAccepted, st.PacketsDuplicate)
	}
}
