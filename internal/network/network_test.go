package network_test

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"sqpeer/internal/network"
	"sqpeer/internal/stats"
)

func echoNet(t testing.TB, nodes ...network.NodeID) *network.Network {
	t.Helper()
	n := network.New()
	for _, id := range nodes {
		n.AddNode(id)
		id := id
		n.Handle(id, "echo", func(m network.Message) ([]byte, error) {
			return append([]byte("from "+id+": "), m.Payload...), nil
		})
	}
	return n
}

func TestCallRoundTrip(t *testing.T) {
	n := echoNet(t, "A", "B")
	reply, err := n.Call("A", "B", "echo", []byte("hi"))
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if string(reply) != "from B: hi" {
		t.Errorf("reply = %q", reply)
	}
	c := n.Counters()
	if c.Messages != 2 {
		t.Errorf("Messages = %d, want 2 (request + reply)", c.Messages)
	}
	if c.PerKind["echo"] != 1 || c.PerKind["echo.reply"] != 1 {
		t.Errorf("PerKind = %v", c.PerKind)
	}
	if c.PerNodeReceived["B"] != 1 || c.PerNodeReceived["A"] != 1 {
		t.Errorf("PerNodeReceived = %v", c.PerNodeReceived)
	}
	if c.Bytes <= 0 || c.SimulatedMS <= 0 {
		t.Errorf("Bytes=%d SimulatedMS=%f", c.Bytes, c.SimulatedMS)
	}
}

func TestSendOneWay(t *testing.T) {
	n := echoNet(t, "A", "B")
	if err := n.Send("A", "B", "echo", []byte("x")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if c := n.Counters(); c.Messages != 1 {
		t.Errorf("Messages = %d, want 1", c.Messages)
	}
}

func TestDeliveryErrors(t *testing.T) {
	n := echoNet(t, "A", "B")
	if _, err := n.Call("A", "Z", "echo", nil); err == nil {
		t.Error("call to unknown node succeeded")
	}
	if _, err := n.Call("A", "B", "nope", nil); err == nil {
		t.Error("call to unknown kind succeeded")
	}
	n.Fail("B")
	if !n.IsDown("B") {
		t.Error("IsDown(B) = false after Fail")
	}
	if _, err := n.Call("A", "B", "echo", nil); err == nil {
		t.Error("call to failed node succeeded")
	}
	n.Recover("B")
	if _, err := n.Call("A", "B", "echo", nil); err != nil {
		t.Errorf("call after Recover: %v", err)
	}
	n.Partition("A", "B")
	if _, err := n.Call("A", "B", "echo", nil); err == nil {
		t.Error("call across partition succeeded")
	}
	if _, err := n.Call("B", "A", "echo", nil); err == nil {
		t.Error("partition must be symmetric")
	}
	n.Heal("A", "B")
	if _, err := n.Call("A", "B", "echo", nil); err != nil {
		t.Errorf("call after Heal: %v", err)
	}
	// Failed sender is also refused.
	n.Fail("A")
	if _, err := n.Call("A", "B", "echo", nil); err == nil {
		t.Error("call from failed node succeeded")
	}
}

func TestHandlerErrorsPropagate(t *testing.T) {
	n := network.New()
	n.AddNode("A")
	n.AddNode("B")
	n.Handle("B", "boom", func(network.Message) ([]byte, error) {
		return nil, fmt.Errorf("kaput")
	})
	_, err := n.Call("A", "B", "boom", nil)
	if err == nil || !strings.Contains(err.Error(), "kaput") {
		t.Errorf("handler error lost: %v", err)
	}
}

func TestLinkAccounting(t *testing.T) {
	n := echoNet(t, "A", "B", "C")
	n.SetLink("A", "B", stats.Link{LatencyMS: 100, BandwidthKBps: 1})
	n.ResetCounters()
	payload := make([]byte, 1000)
	if _, err := n.Call("A", "B", "echo", payload); err != nil {
		t.Fatalf("Call: %v", err)
	}
	slow := n.Counters().SimulatedMS
	n.ResetCounters()
	if _, err := n.Call("A", "C", "echo", payload); err != nil {
		t.Fatalf("Call: %v", err)
	}
	fast := n.Counters().SimulatedMS
	if slow <= fast {
		t.Errorf("slow link accounted %f, default %f", slow, fast)
	}
	if got := n.LinkBetween("A", "B").LatencyMS; got != 100 {
		t.Errorf("LinkBetween = %f", got)
	}
}

// TestSimulatedClockIndependentOfOrder: the logical clock sums whole
// nanoseconds, so accounting one set of latencies in any order reads the
// same bits. Parallel dispatch accounts a run's deliveries in a
// different order each time; a float64 sum would differ in its last
// digits ((0.1+0.2)+0.3 != 0.1+(0.2+0.3)).
func TestSimulatedClockIndependentOfOrder(t *testing.T) {
	latencies := []float64{0.1, 0.2, 0.3, 20.017, 1e-3, 7.000001}
	var want float64
	for i := range latencies {
		n := network.New()
		for j := range latencies {
			n.AdvanceMS(latencies[(i+j)%len(latencies)])
		}
		got := n.Counters().SimulatedMS
		if got != n.NowMS() {
			t.Fatalf("Counters().SimulatedMS %v, NowMS %v", got, n.NowMS())
		}
		if i == 0 {
			want = got
		} else if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("rotation %d reads %v, rotation 0 %v", i, got, want)
		}
	}
	if want != 27.618001 {
		t.Fatalf("clock reads %v, want 27.618001", want)
	}
}

func TestSelfMessagesAreFree(t *testing.T) {
	n := echoNet(t, "A")
	n.ResetCounters()
	if _, err := n.Call("A", "A", "echo", make([]byte, 10000)); err != nil {
		t.Fatalf("self call: %v", err)
	}
	if ms := n.Counters().SimulatedMS; ms != 0 {
		t.Errorf("self call accounted %f ms", ms)
	}
}

func TestRemoveNodeAndNodes(t *testing.T) {
	n := echoNet(t, "A", "B", "C")
	if got := n.Nodes(); fmt.Sprint(got) != "[A B C]" {
		t.Errorf("Nodes = %v", got)
	}
	n.RemoveNode("B")
	if got := n.Nodes(); fmt.Sprint(got) != "[A C]" {
		t.Errorf("Nodes after remove = %v", got)
	}
	if _, err := n.Call("A", "B", "echo", nil); err == nil {
		t.Error("call to removed node succeeded")
	}
}

func TestConcurrentTraffic(t *testing.T) {
	n := echoNet(t, "A", "B")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if _, err := n.Call("A", "B", "echo", []byte("x")); err != nil {
					t.Errorf("Call: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if c := n.Counters(); c.Messages != 1600 {
		t.Errorf("Messages = %d, want 1600", c.Messages)
	}
}
