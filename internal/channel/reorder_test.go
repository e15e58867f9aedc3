package channel_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"sqpeer/internal/channel"
	"sqpeer/internal/faults"
	"sqpeer/internal/network"
)

// TestReorderedAndDuplicatedPackets drives the root-side packet path with
// a seeded adversarial wire: packets arrive in a shuffled order (the
// simulated network delivers synchronously, so reordering is produced by
// hand-stamping sequence numbers and sending them out of order) while a
// faults.Injector duplicates every delivery and adds delay spikes. No row
// may be lost (a late arrival is not a replay) and none double-counted
// (a replayed Seq is suppressed even when it arrives out of order).
func TestReorderedAndDuplicatedPackets(t *testing.T) {
	const (
		seed    = 20240805
		packets = 20
		rowsPer = 2
	)
	net := network.New()
	ms := managers(t, net, "P1", "P2")
	// Duplicate every chan.packet delivery; spike half of them. The spike
	// only charges simulated latency — order is controlled by the shuffle.
	inj := faults.NewInjector(seed, faults.Rates{Duplicate: 1, DelaySpike: 0.5, SpikeMS: 300})
	net.SetInjector(inj)

	var mu sync.Mutex
	seen := map[int]int{} // seq -> callback invocations
	rows := 0
	ch := ms["P1"].Deploy("P2", "", 0, func(p channel.Packet) {
		mu.Lock()
		seen[p.Seq]++
		rows += p.Rows
		mu.Unlock()
	})

	// Hand-stamp packets 1..packets and deliver them in a seeded shuffle,
	// bypassing Inbound.Send's sequencing — this IS the reordered wire.
	order := rand.New(rand.NewSource(seed)).Perm(packets)
	for _, i := range order {
		seq := i + 1
		pkt := channel.Packet{
			Channel: ch.Num, Type: channel.Results, Seq: seq,
			Rows: rowsPer, Payload: []byte(fmt.Sprintf("batch-%d", seq)),
		}
		if err := net.Send("P2", "P1", "chan.packet", channel.AppendPacket(nil, &pkt)); err != nil {
			t.Fatalf("send seq %d: %v", seq, err)
		}
	}

	mu.Lock()
	for seq := 1; seq <= packets; seq++ {
		if seen[seq] != 1 {
			t.Errorf("seq %d delivered %d times, want exactly once", seq, seen[seq])
		}
	}
	if rows != packets*rowsPer {
		t.Errorf("callback counted %d rows, want %d", rows, packets*rowsPer)
	}
	mu.Unlock()
	if got := ch.RowsReceived(); got != packets*rowsPer {
		t.Errorf("RowsReceived = %d, want %d (no loss, no double count)", got, packets*rowsPer)
	}
	// Every gap has filled: the contiguous watermark reached the top.
	if wm := ch.Watermark(); wm != packets {
		t.Errorf("Watermark = %d, want %d", wm, packets)
	}

	// A replay arriving after the floor passed it must still be dropped.
	late := channel.Packet{Channel: ch.Num, Type: channel.Results, Seq: 5, Rows: rowsPer}
	if err := net.Send("P2", "P1", "chan.packet", channel.AppendPacket(nil, &late)); err != nil {
		t.Fatalf("late replay send: %v", err)
	}
	mu.Lock()
	if seen[5] != 1 {
		t.Errorf("replay of seq 5 delivered %d times, want 1", seen[5])
	}
	mu.Unlock()
	if got := ch.RowsReceived(); got != packets*rowsPer {
		t.Errorf("RowsReceived after replay = %d, want %d", got, packets*rowsPer)
	}
}
