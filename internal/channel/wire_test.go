package channel_test

import (
	"bytes"
	"errors"
	"reflect"
	"sync"
	"testing"

	"sqpeer/internal/channel"
	"sqpeer/internal/gen"
	"sqpeer/internal/network"
	"sqpeer/internal/obs"
	"sqpeer/internal/pattern"
	"sqpeer/internal/peer"
)

// TestPacketHeaderWidthIndependentOfChannelNumber: the channel number is
// fixed-width, so a packet's size does not depend on which number its
// root gave the channel.
func TestPacketHeaderWidthIndependentOfChannelNumber(t *testing.T) {
	var lens []int
	for _, num := range []uint32{9, 10, 1_000_000} {
		p := channel.Packet{Channel: num, Type: channel.Results, Seq: 3, Rows: 2, Payload: []byte("frame")}
		lens = append(lens, len(channel.AppendPacket(nil, &p)))
	}
	if lens[0] != lens[1] || lens[1] != lens[2] {
		t.Errorf("packet lengths for channels 9, 10, 1000000 = %v; want one length", lens)
	}
}

func TestEnvelopesRoundTrip(t *testing.T) {
	p := channel.Packet{Channel: 7, Type: channel.Done, Seq: 1 << 20, Rows: 0,
		Payload: []byte(`{"k":"remote"}`), TraceID: "T3", SpanID: "/q/dispatch@P2/stream",
		Gossip: []byte{0, 1, 2, 255}}
	got, err := channel.DecodePacket(channel.AppendPacket(nil, &p))
	if err != nil || !reflect.DeepEqual(got, p) {
		t.Errorf("packet round trip = %+v, %v; want %+v", got, err, p)
	}
	o := channel.OpenRequest{Channel: 1 << 31, Tenant: "gold", Priority: 2}
	if got, err := channel.DecodeOpen(channel.AppendOpen(nil, o)); err != nil || got != o {
		t.Errorf("open round trip = %+v, %v; want %+v", got, err, o)
	}
	if got, err := channel.DecodeClose(channel.AppendClose(nil, 42)); err != nil || got != 42 {
		t.Errorf("close round trip = %d, %v", got, err)
	}
	s := channel.SubplanRequest{Channel: 12, ResumeFrom: 40, Priority: 1, Tenant: "t",
		TraceID: "T1", SpanID: "/q/a", Plan: []byte(`{"root":{}}`)}
	if got, err := channel.DecodeSubplan(channel.AppendSubplan(nil, &s)); err != nil || !reflect.DeepEqual(got, s) {
		t.Errorf("subplan round trip = %+v, %v; want %+v", got, err, s)
	}
}

// Every proper prefix of a header is rejected with ErrBadEnvelope, and so
// are a foreign format byte and trailing bytes after a body-less header.
func TestEnvelopeRejectsShortAndCorruptHeaders(t *testing.T) {
	p := channel.Packet{Channel: 5, Type: channel.Results, Seq: 300, Rows: 2,
		TraceID: "T1", SpanID: "/s", Gossip: []byte("g")}
	wire := channel.AppendPacket(nil, &p) // no payload: the header is the whole body
	for n := 0; n < len(wire); n++ {
		if _, err := channel.DecodePacket(wire[:n]); !errors.Is(err, channel.ErrBadEnvelope) {
			t.Errorf("packet prefix of %d/%d bytes: err = %v", n, len(wire), err)
		}
	}
	open := channel.AppendOpen(nil, channel.OpenRequest{Channel: 1, Tenant: "x", Priority: 1})
	for n := 0; n < len(open); n++ {
		if _, err := channel.DecodeOpen(open[:n]); !errors.Is(err, channel.ErrBadEnvelope) {
			t.Errorf("open prefix of %d bytes: err = %v", n, err)
		}
	}
	sub := channel.AppendSubplan(nil, &channel.SubplanRequest{Channel: 1, Tenant: "x", TraceID: "T", SpanID: "/s"})
	for n := 0; n < len(sub); n++ {
		if _, err := channel.DecodeSubplan(sub[:n]); !errors.Is(err, channel.ErrBadEnvelope) {
			t.Errorf("subplan prefix of %d bytes: err = %v", n, err)
		}
	}
	bad := [][]byte{
		append([]byte{9}, wire[1:]...),             // unknown format
		append(channel.AppendClose(nil, 3), 0),     // trailing byte
		append(append([]byte{}, open...), 1, 2),    // trailing bytes
		{1, 0, 1, 1, 0, 0, 0, 5, 0xff, 0xff, 0x7f}, // trace id claims 2 MiB of a 3-byte rest
	}
	for i, b := range bad {
		_, e1 := channel.DecodePacket(b)
		_, e2 := channel.DecodeOpen(b)
		_, e3 := channel.DecodeClose(b)
		if !errors.Is(e1, channel.ErrBadEnvelope) && !errors.Is(e2, channel.ErrBadEnvelope) &&
			!errors.Is(e3, channel.ErrBadEnvelope) {
			t.Errorf("corrupt body %d accepted", i)
		}
	}
}

// A Results packet decodes with zero allocations: payload and gossip
// alias the message, and the header holds no strings to copy. A length
// claim past the end of the input is refused without allocating either.
func TestPacketDecodeAllocatesNothing(t *testing.T) {
	p := channel.Packet{Channel: 11, Type: channel.Results, Seq: 4, Rows: 64,
		Payload: bytes.Repeat([]byte{7}, 4096), Gossip: []byte("gossip")}
	wire := channel.AppendPacket(nil, &p)
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := channel.DecodePacket(wire); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("decoding a Results packet allocates %.1f times, want 0", allocs)
	}
	huge := []byte{1, 0, 1, 1, 0, 0, 0, 5, 0x80, 0x80, 0x80, 0x80, 0x10} // trace id of 4 GiB
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := channel.DecodePacket(huge); err == nil {
			t.Fatal("4 GiB length claim accepted")
		}
	}); allocs != 0 {
		t.Errorf("rejecting an oversized length allocates %.1f times, want 0", allocs)
	}
}

// realEnvelopes runs the paper query over a traced four-peer system with
// one-row frames and returns the exec.subplan and chan.packet bodies it
// sent: real headers, batch frames and span records.
func realEnvelopes(t testing.TB) (subplans, packets [][]byte) {
	schema := gen.PaperSchema()
	bases := gen.PaperBases(2)
	net := network.New()
	var mu sync.Mutex
	net.SetInjector(tapFunc(func(m network.Message) {
		mu.Lock()
		defer mu.Unlock()
		switch m.Kind {
		case "exec.subplan":
			subplans = append(subplans, append([]byte(nil), m.Payload...))
		case "chan.packet":
			packets = append(packets, append([]byte(nil), m.Payload...))
		}
	}))
	var p1 *peer.Peer
	var all []*peer.Peer
	for _, id := range []pattern.PeerID{"P1", "P2", "P3", "P4"} {
		cfg := peer.Config{ID: id, Kind: peer.SimplePeer, Schema: schema, Base: bases[id]}
		if id == "P1" {
			cfg.Tracer = obs.NewTracer()
		}
		p, err := peer.New(cfg, net)
		if err != nil {
			t.Fatalf("peer.New(%s): %v", id, err)
		}
		p.Engine.BatchSize = 1
		all = append(all, p)
		if id == "P1" {
			p1 = p
		}
	}
	for _, a := range all {
		for _, b := range all {
			if a != b {
				a.Learn(b.Advertisement())
			}
		}
	}
	if _, err := p1.Ask(gen.PaperRQL); err != nil {
		t.Fatalf("paper query: %v", err)
	}
	return subplans, packets
}

type tapFunc func(network.Message)

func (f tapFunc) Intercept(m network.Message) network.Fault {
	f(m)
	return network.Fault{}
}

// FuzzPacketEnvelope decodes arbitrary bytes as every data-plane
// envelope (never panicking; a body that decodes re-encodes to itself),
// and checks that Decode(Append(p)) returns every field of a packet and
// of a subplan request built from the fuzzer's values. The corpus is
// seeded with the packets and subplan requests of a real traced query.
func FuzzPacketEnvelope(f *testing.F) {
	subplans, packets := realEnvelopes(f)
	for _, b := range append(packets, subplans...) {
		f.Add(b, uint8(channel.Results), 1, 2, uint32(3), "T1", "/q/s", []byte("g"))
	}
	f.Add([]byte{}, uint8(channel.TraceSpans), -1, 1<<40, uint32(1<<32-1), "", "", []byte(nil))
	f.Fuzz(func(t *testing.T, data []byte, typ uint8, seq, rows int, num uint32, trace, span string, gossip []byte) {
		if p, err := channel.DecodePacket(data); err == nil {
			if again := channel.AppendPacket(nil, &p); !bytes.Equal(again, data) {
				t.Fatalf("packet %x re-encodes as %x", data, again)
			}
		}
		if s, err := channel.DecodeSubplan(data); err == nil {
			if again := channel.AppendSubplan(nil, &s); !bytes.Equal(again, data) {
				t.Fatalf("subplan %x re-encodes as %x", data, again)
			}
		}
		if o, err := channel.DecodeOpen(data); err == nil {
			if again := channel.AppendOpen(nil, o); !bytes.Equal(again, data) {
				t.Fatalf("open %x re-encodes as %x", data, again)
			}
		}
		_, _ = channel.DecodeClose(data)

		if len(gossip) == 0 {
			gossip = nil // the decoder reports an absent blob as nil
		}
		body := data
		if len(body) == 0 {
			body = nil
		}
		p := channel.Packet{Channel: num, Type: channel.PacketType(typ), Seq: seq, Rows: rows,
			Payload: body, TraceID: trace, SpanID: span, Gossip: gossip}
		if got, err := channel.DecodePacket(channel.AppendPacket(nil, &p)); err != nil || !reflect.DeepEqual(got, p) {
			t.Fatalf("packet round trip = %+v, %v; want %+v", got, err, p)
		}
		s := channel.SubplanRequest{Channel: num, ResumeFrom: seq, Priority: rows,
			Tenant: string(gossip), TraceID: trace, SpanID: span, Plan: body}
		if got, err := channel.DecodeSubplan(channel.AppendSubplan(nil, &s)); err != nil || !reflect.DeepEqual(got, s) {
			t.Fatalf("subplan round trip = %+v, %v; want %+v", got, err, s)
		}
	})
}
