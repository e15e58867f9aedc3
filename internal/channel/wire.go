package channel

import (
	"encoding/binary"
	"slices"
	"strconv"

	"sqpeer/internal/pattern"
	"sqpeer/internal/wire"
)

// Wire format of the two per-site data-plane messages (DESIGN §12,
// "Wire format"). Each body opens with a format byte and a fixed header,
// and whatever follows the header is the raw body. Integers are uvarints
// of their two's-complement bits (so every int round-trips), strings and
// blobs are a uvarint length plus their bytes, and the channel number is
// a fixed 4 bytes: a message's size never depends on which number its
// root happened to give the channel.
//
//	chan.packet   format, type|final, seq, rows, channel, trace id, span id, gossip[, stats, spans] | payload
//	exec.subplan  format, channel, seq base, resumeFrom, priority, tenant, trace id, span id | plan
//
// The type byte's high bit is the final flag; only a final packet has
// the two trailers (the Stats body and the span record). The subplan
// request is also the channel's open: there is no chan.open or
// chan.close message. The root is the message's sender (or, for
// chan.packet, its receiver), so no message carries it.

// wireFormat tags the layout above; a decoder rejects any other value.
const wireFormat byte = 2

// finalFlag is the type byte's final-packet bit.
const finalFlag byte = 0x80

// ErrBadEnvelope reports a short or malformed data-plane header. It is
// the shared wire.ErrMalformed: the decoders return it wrapped in a fixed
// error, so rejecting a bad header allocates nothing.
var ErrBadEnvelope = wire.ErrMalformed

// ID renders the root-locally unique channel id "<root>#<num>" that
// events, logs and the channel API use for the wire's channel number.
func ID(root pattern.PeerID, num uint32) string {
	return string(root) + "#" + strconv.FormatUint(uint64(num), 10)
}

// AppendPacket appends p's chan.packet body to dst, growing dst once to
// the exact size. WireBytes is not on the wire, and neither are Stats
// and Spans unless p is Final.
func AppendPacket(dst []byte, p *Packet) []byte {
	n := 1 + 1 + wire.UvarintLen(p.Seq) + wire.UvarintLen(p.Rows) + 4 +
		wire.StrLen(len(p.TraceID)) + wire.StrLen(len(p.SpanID)) + wire.StrLen(len(p.Gossip)) + len(p.Payload)
	typ := byte(p.Type) &^ finalFlag
	if p.Final {
		typ |= finalFlag
		n += wire.StrLen(len(p.Stats)) + wire.StrLen(len(p.Spans))
	}
	dst = slices.Grow(dst, n)
	dst = append(dst, wireFormat, typ)
	dst = wire.AppendUvarint(dst, p.Seq)
	dst = wire.AppendUvarint(dst, p.Rows)
	dst = binary.BigEndian.AppendUint32(dst, p.Channel)
	dst = wire.AppendStr(dst, p.TraceID)
	dst = wire.AppendStr(dst, p.SpanID)
	dst = wire.AppendStr(dst, p.Gossip)
	if p.Final {
		dst = wire.AppendStr(dst, p.Stats)
		dst = wire.AppendStr(dst, p.Spans)
	}
	return append(dst, p.Payload...)
}

// DecodePacket parses a chan.packet body. Payload, Gossip and the
// trailers alias b; nothing is allocated unless the packet carries trace
// ids.
func DecodePacket(b []byte) (Packet, error) {
	r := wire.NewReader(b)
	r.Format(wireFormat)
	typ := r.U8()
	p := Packet{Type: PacketType(typ &^ finalFlag), Final: typ&finalFlag != 0}
	p.Seq = r.Uv()
	p.Rows = r.Uv()
	p.Channel = r.U32()
	p.TraceID = r.Str()
	p.SpanID = r.Str()
	p.Gossip = r.Blob()
	if p.Final {
		p.Stats = r.Blob()
		p.Spans = r.Blob()
	}
	p.Payload = r.Rest()
	return p, r.Err()
}

// SubplanRequest is the exec.subplan body: a fixed header, then the
// serialized plan raw. It deploys the channel it names: the destination
// accepts the channel on receipt (Manager.Accept). SeqBase is the root
// channel's watermark when the request was shipped; the destination
// numbers this request's packets from SeqBase+1. ResumeFrom > 0 asks the
// destination to skip that many leading rows (a checkpoint from an
// earlier attempt that already reached the root). TraceID/SpanID
// propagate the root's trace context; Tenant/Priority are the root
// execution's QoS headers.
type SubplanRequest struct {
	Channel    uint32
	SeqBase    int
	ResumeFrom int
	Priority   int
	Tenant     string
	TraceID    string
	SpanID     string
	// Plan is the plan.Marshal document; on decode it aliases the message.
	Plan []byte
}

// AppendSubplan appends r's exec.subplan body to dst, growing dst once
// to the exact size.
func AppendSubplan(dst []byte, r *SubplanRequest) []byte {
	dst = slices.Grow(dst, 1+4+wire.UvarintLen(r.SeqBase)+wire.UvarintLen(r.ResumeFrom)+wire.UvarintLen(r.Priority)+
		wire.StrLen(len(r.Tenant))+wire.StrLen(len(r.TraceID))+wire.StrLen(len(r.SpanID))+len(r.Plan))
	dst = append(dst, wireFormat)
	dst = binary.BigEndian.AppendUint32(dst, r.Channel)
	dst = wire.AppendUvarint(dst, r.SeqBase)
	dst = wire.AppendUvarint(dst, r.ResumeFrom)
	dst = wire.AppendUvarint(dst, r.Priority)
	dst = wire.AppendStr(dst, r.Tenant)
	dst = wire.AppendStr(dst, r.TraceID)
	dst = wire.AppendStr(dst, r.SpanID)
	return append(dst, r.Plan...)
}

// DecodeSubplan parses an exec.subplan body; Plan aliases b.
func DecodeSubplan(b []byte) (SubplanRequest, error) {
	r := wire.NewReader(b)
	r.Format(wireFormat)
	s := SubplanRequest{Channel: r.U32(), SeqBase: r.Uv(), ResumeFrom: r.Uv(), Priority: r.Uv()}
	s.Tenant = r.Str()
	s.TraceID = r.Str()
	s.SpanID = r.Str()
	s.Plan = r.Rest()
	return s, r.Err()
}
