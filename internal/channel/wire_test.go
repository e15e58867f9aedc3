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
	for _, p := range []channel.Packet{
		{Channel: 7, Type: channel.PlanChange, Seq: 1 << 20, Rows: 0,
			Payload: []byte(`{"reason":"resume-honored"}`), TraceID: "T3", SpanID: "/q/dispatch@P2/stream",
			Gossip: []byte{0, 1, 2, 255}},
		{Channel: 1 << 31, Type: channel.Results, Final: true, Seq: 3, Rows: 2,
			Payload: []byte("frame"), Stats: []byte("stats body"), Spans: []byte(`{"k":"remote"}`),
			TraceID: "T3", SpanID: "/q/s"},
		{Channel: 8, Type: channel.Results, Final: true, Seq: 1, Stats: []byte{1}}, // no span record
	} {
		got, err := channel.DecodePacket(channel.AppendPacket(nil, &p))
		if err != nil || !reflect.DeepEqual(got, p) {
			t.Errorf("packet round trip = %+v, %v; want %+v", got, err, p)
		}
	}
	// Trailers travel only on a final packet.
	notFinal := channel.Packet{Channel: 1, Type: channel.Results, Seq: 1, Stats: []byte("s"), Spans: []byte("t")}
	if got, err := channel.DecodePacket(channel.AppendPacket(nil, &notFinal)); err != nil || got.Stats != nil || got.Spans != nil {
		t.Errorf("non-final packet kept its trailers: %+v, %v", got, err)
	}
	s := channel.SubplanRequest{Channel: 12, SeqBase: 9, ResumeFrom: 40, Priority: 1, Tenant: "t",
		TraceID: "T1", SpanID: "/q/a", Plan: []byte(`{"root":{}}`)}
	if got, err := channel.DecodeSubplan(channel.AppendSubplan(nil, &s)); err != nil || !reflect.DeepEqual(got, s) {
		t.Errorf("subplan round trip = %+v, %v; want %+v", got, err, s)
	}
}

// Every proper prefix of a header is rejected with ErrBadEnvelope, and so
// are a foreign format byte and length claims past the end of the input,
// the final packet's trailers included.
func TestEnvelopeRejectsShortAndCorruptHeaders(t *testing.T) {
	for _, p := range []channel.Packet{
		{Channel: 5, Type: channel.Results, Seq: 300, Rows: 2, TraceID: "T1", SpanID: "/s", Gossip: []byte("g")},
		{Channel: 5, Type: channel.Results, Final: true, Seq: 300, Rows: 2, Gossip: []byte("g"),
			Stats: []byte("st"), Spans: []byte("sp")},
	} {
		wire := channel.AppendPacket(nil, &p) // no payload: the header is the whole body
		for n := 0; n < len(wire); n++ {
			if _, err := channel.DecodePacket(wire[:n]); !errors.Is(err, channel.ErrBadEnvelope) {
				t.Errorf("packet (final %v) prefix of %d/%d bytes: err = %v", p.Final, n, len(wire), err)
			}
		}
	}
	sub := channel.AppendSubplan(nil, &channel.SubplanRequest{Channel: 1, SeqBase: 2, Tenant: "x", TraceID: "T", SpanID: "/s"})
	for n := 0; n < len(sub); n++ {
		if _, err := channel.DecodeSubplan(sub[:n]); !errors.Is(err, channel.ErrBadEnvelope) {
			t.Errorf("subplan prefix of %d bytes: err = %v", n, err)
		}
	}
	for i, b := range badPackets {
		if _, err := channel.DecodePacket(b); !errors.Is(err, channel.ErrBadEnvelope) {
			t.Errorf("corrupt packet %d accepted: err = %v", i, err)
		}
	}
}

// badPackets are chan.packet bodies every decoder must refuse.
var badPackets = [][]byte{
	{9, 0, 1, 1, 0, 0, 0, 5, 0, 0, 0},                         // unknown format
	{2, 0, 1, 1, 0, 0, 0, 5, 0xff, 0xff, 0x7f},                // trace id claims 2 MiB of a 3-byte rest
	{2, 0x80, 1, 1, 0, 0, 0, 5, 0, 0, 0, 0x10, 's', 't'},      // stats trailer claims 16 bytes of 2
	{2, 0x80, 1, 1, 0, 0, 0, 5, 0, 0, 0, 1, 's', 0x04, 'x'},   // span trailer claims 4 bytes of 1
	{2, 0x80, 1, 1, 0, 0, 0, 5, 0, 0, 0, 0x80, 0x80, 0x80, 4}, // stats trailer of 8 MiB
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
	huge := []byte{2, 0, 1, 1, 0, 0, 0, 5, 0x80, 0x80, 0x80, 0x80, 0x10} // trace id of 4 GiB
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

// FuzzPacketEnvelope decodes arbitrary bytes as both data-plane
// envelopes (never panicking; a body that decodes re-encodes to itself),
// and checks that Decode(Append(p)) returns every field of a packet and
// of a subplan request built from the fuzzer's values: the type byte's
// high bit is the final flag, a final packet carries the trace and span
// strings as its Stats and Spans trailers, and rows is the subplan's
// sequence base. The corpus is seeded with the packets and subplan
// requests of a real traced query (final packets with both trailers
// among them), with those final packets' flag cleared, and with trailers
// whose length claims run past the input.
func FuzzPacketEnvelope(f *testing.F) {
	subplans, packets := realEnvelopes(f)
	for _, b := range append(packets, subplans...) {
		f.Add(b, uint8(channel.Results), 1, 2, uint32(3), "T1", "/q/s", []byte("g"))
	}
	for _, b := range packets {
		if p, err := channel.DecodePacket(b); err == nil && p.Final {
			// The same bytes with the final flag cleared: the trailers
			// now read as the payload's first bytes.
			plain := bytes.Clone(b)
			plain[1] &^= 0x80
			f.Add(plain, uint8(channel.Results), 1, 2, uint32(3), "", "", []byte(nil))
		}
	}
	for _, b := range badPackets {
		f.Add(b, uint8(channel.Results)|0x80, 4, 0, uint32(5), "stats", "", []byte(nil))
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

		if len(gossip) == 0 {
			gossip = nil // the decoder reports an absent blob as nil
		}
		body := data
		if len(body) == 0 {
			body = nil
		}
		p := channel.Packet{Channel: num, Type: channel.PacketType(typ & 0x7f), Final: typ&0x80 != 0,
			Seq: seq, Rows: rows, Payload: body, TraceID: trace, SpanID: span, Gossip: gossip}
		if p.Final {
			p.Stats, p.Spans = blob(trace), blob(span)
		}
		if got, err := channel.DecodePacket(channel.AppendPacket(nil, &p)); err != nil || !reflect.DeepEqual(got, p) {
			t.Fatalf("packet round trip = %+v, %v; want %+v", got, err, p)
		}
		s := channel.SubplanRequest{Channel: num, SeqBase: rows, ResumeFrom: seq, Priority: int(typ),
			Tenant: string(gossip), TraceID: trace, SpanID: span, Plan: body}
		if got, err := channel.DecodeSubplan(channel.AppendSubplan(nil, &s)); err != nil || !reflect.DeepEqual(got, s) {
			t.Fatalf("subplan round trip = %+v, %v; want %+v", got, err, s)
		}
	})
}

// blob is s as the decoder reports a length-prefixed blob: nil when empty.
func blob(s string) []byte {
	if s == "" {
		return nil
	}
	return []byte(s)
}
