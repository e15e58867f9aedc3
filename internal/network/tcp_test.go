package network_test

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"sqpeer/internal/gen"
	"sqpeer/internal/network"
	"sqpeer/internal/peer"
)

func TestGatewayCallRoundTrip(t *testing.T) {
	n := echoNet(t, "A")
	g, err := network.ServeTCP(n, "A", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("ServeTCP: %v", err)
	}
	defer g.Close()

	c, err := network.DialTCP(g.Addr())
	if err != nil {
		t.Fatalf("DialTCP: %v", err)
	}
	defer c.Close()

	reply, err := c.Call("remote-client", "echo", []byte("over tcp"))
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if string(reply) != "from A: over tcp" {
		t.Errorf("reply = %q", reply)
	}
	// Gateway traffic is accounted on the network.
	if got := n.Counters().PerNodeReceived["A"]; got != 1 {
		t.Errorf("accounted messages to A = %d", got)
	}
}

func TestGatewayPropagatesHandlerErrors(t *testing.T) {
	n := network.New()
	n.AddNode("A")
	n.Handle("A", "boom", func(network.Message) ([]byte, error) {
		return nil, fmt.Errorf("exploded")
	})
	g, err := network.ServeTCP(n, "A", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	c, err := network.DialTCP(g.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Call("x", "boom", nil)
	if err == nil || !strings.Contains(err.Error(), "exploded") {
		t.Errorf("handler error lost: %v", err)
	}
	if _, err := c.Call("x", "nosuch", nil); err == nil {
		t.Error("unknown kind accepted over tcp")
	}
}

// TestGatewayKeepsDeliveryErrorClass checks that a handler's
// DeliveryError crosses the socket with its class intact: the retry gate
// (network.Transient) and errors.As see the same reason and transient bit
// a caller of the in-process network would.
func TestGatewayKeepsDeliveryErrorClass(t *testing.T) {
	n := network.New()
	n.AddNode("A")
	n.Handle("A", "busy", func(network.Message) ([]byte, error) {
		return nil, fmt.Errorf("serving: %w", &network.DeliveryError{
			Reason: network.ReasonOverload, Transient: true, Detail: "shed at A"})
	})
	n.Handle("A", "plain", func(network.Message) ([]byte, error) {
		return nil, fmt.Errorf("plain failure")
	})
	g, err := network.ServeTCP(n, "A", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	c, err := network.DialTCP(g.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	cases := []struct {
		kind      string
		reason    string
		transient bool
	}{
		{"busy", network.ReasonOverload, true},
		{"nosuch", network.ReasonNoHandler, false}, // permanent: raised by the network itself
	}
	for _, tc := range cases {
		_, err := c.Call("x", tc.kind, nil)
		var de *network.DeliveryError
		if !errors.As(err, &de) {
			t.Fatalf("%s: error %v lost its DeliveryError over tcp", tc.kind, err)
		}
		if de.Reason != tc.reason || de.Transient != tc.transient || network.Transient(err) != tc.transient {
			t.Errorf("%s: got reason %q transient %v (Transient()=%v), want %q %v",
				tc.kind, de.Reason, de.Transient, network.Transient(err), tc.reason, tc.transient)
		}
	}
	_, err = c.Call("x", "plain", nil)
	var de *network.DeliveryError
	if err == nil || errors.As(err, &de) || !strings.Contains(err.Error(), "plain failure") {
		t.Errorf("plain handler error = %v; want its text and no DeliveryError", err)
	}
}

// TestGatewayBinaryPayloadRoundTrip sends every byte value through the
// gateway and back: payloads are raw bytes on the wire, not text.
func TestGatewayBinaryPayloadRoundTrip(t *testing.T) {
	n := network.New()
	n.AddNode("A")
	n.Handle("A", "mirror", func(m network.Message) ([]byte, error) { return m.Payload, nil })
	g, err := network.ServeTCP(n, "A", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	c, err := network.DialTCP(g.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	payload := make([]byte, 0, 512)
	for i := 0; i < 512; i++ {
		payload = append(payload, byte(i*7+i/256))
	}
	reply, err := c.Call("x", "mirror", payload)
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if !bytes.Equal(reply, payload) {
		t.Errorf("binary payload changed over tcp:\n got %x\nwant %x", reply, payload)
	}
}

func TestGatewayConcurrentClients(t *testing.T) {
	n := echoNet(t, "A")
	g, err := network.ServeTCP(n, "A", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := network.DialTCP(g.Addr())
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer c.Close()
			for k := 0; k < 20; k++ {
				msg := fmt.Sprintf("c%d-%d", i, k)
				reply, err := c.Call("client", "echo", []byte(msg))
				if err != nil {
					t.Errorf("call: %v", err)
					return
				}
				if string(reply) != "from A: "+msg {
					t.Errorf("reply = %q", reply)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

// TestGatewayServesRealPeerProtocol exposes a full SQPeer node over TCP
// and drives its advertisement-pull and routing handlers from a socket
// client.
func TestGatewayServesRealPeerProtocol(t *testing.T) {
	n := network.New()
	schema := gen.PaperSchema()
	p, err := peer.New(peer.Config{ID: "P1", Kind: peer.SimplePeer, Schema: schema,
		Base: gen.PaperBases(2)["P1"]}, n)
	if err != nil {
		t.Fatal(err)
	}
	_ = p
	g, err := network.ServeTCP(n, "P1", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	c, err := network.DialTCP(g.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// adv.pull over TCP returns the peer's advertisement JSON.
	reply, err := c.Call("external", "adv.pull", nil)
	if err != nil {
		t.Fatalf("adv.pull over tcp: %v", err)
	}
	if !strings.Contains(string(reply), "prop1") {
		t.Errorf("advertisement = %s", reply)
	}
}

func TestGatewayCloseIdempotent(t *testing.T) {
	n := echoNet(t, "A")
	g, err := network.ServeTCP(n, "A", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Close(); err != nil {
		t.Errorf("first close: %v", err)
	}
	if err := g.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
	if _, err := network.DialTCP(g.Addr()); err == nil {
		t.Error("dial succeeded after close")
	}
}
