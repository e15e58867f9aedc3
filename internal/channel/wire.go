package channel

import (
	"encoding/binary"
	"slices"
	"strconv"

	"sqpeer/internal/pattern"
	"sqpeer/internal/wire"
)

// Wire format of the four per-site data-plane messages (DESIGN §12,
// "Wire format"). Each body opens with a format byte and a fixed header,
// and whatever follows the header is the raw body. Integers are uvarints
// of their two's-complement bits (so every int round-trips), strings and
// blobs are a uvarint length plus their bytes, and the channel number is
// a fixed 4 bytes: a message's size never depends on which number its
// root happened to give the channel.
//
//	chan.packet   format, type, seq, rows, channel, trace id, span id, gossip | payload
//	chan.open     format, channel, tenant, priority
//	chan.close    format, channel
//	exec.subplan  format, channel, resumeFrom, priority, tenant, trace id, span id | plan
//
// The root is the message's sender (or, for chan.packet, its receiver),
// so no message carries it.

// wireFormat tags the layout above; a decoder rejects any other value.
const wireFormat byte = 1

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
// the exact size. WireBytes is not on the wire.
func AppendPacket(dst []byte, p *Packet) []byte {
	dst = slices.Grow(dst, 1+1+wire.UvarintLen(p.Seq)+wire.UvarintLen(p.Rows)+4+
		wire.StrLen(len(p.TraceID))+wire.StrLen(len(p.SpanID))+wire.StrLen(len(p.Gossip))+len(p.Payload))
	dst = append(dst, wireFormat, byte(p.Type))
	dst = wire.AppendUvarint(dst, p.Seq)
	dst = wire.AppendUvarint(dst, p.Rows)
	dst = binary.BigEndian.AppendUint32(dst, p.Channel)
	dst = wire.AppendStr(dst, p.TraceID)
	dst = wire.AppendStr(dst, p.SpanID)
	dst = wire.AppendStr(dst, p.Gossip)
	return append(dst, p.Payload...)
}

// DecodePacket parses a chan.packet body. Payload and Gossip alias b;
// nothing is allocated unless the packet carries trace ids.
func DecodePacket(b []byte) (Packet, error) {
	r := wire.NewReader(b)
	r.Format(wireFormat)
	p := Packet{Type: PacketType(r.U8())}
	p.Seq = r.Uv()
	p.Rows = r.Uv()
	p.Channel = r.U32()
	p.TraceID = r.Str()
	p.SpanID = r.Str()
	p.Gossip = r.Blob()
	p.Payload = r.Rest()
	return p, r.Err()
}

// OpenRequest is the chan.open body. Tenant and Priority are the QoS
// headers of the execution deploying the channel: the destination
// accounts accepted channels per tenant, and serving peers apply the
// same admission class the root charged at its facade.
type OpenRequest struct {
	Channel  uint32
	Tenant   string
	Priority int
}

// AppendOpen appends o's chan.open body to dst.
func AppendOpen(dst []byte, o OpenRequest) []byte {
	dst = slices.Grow(dst, 1+4+wire.StrLen(len(o.Tenant))+wire.UvarintLen(o.Priority))
	dst = append(dst, wireFormat)
	dst = binary.BigEndian.AppendUint32(dst, o.Channel)
	dst = wire.AppendStr(dst, o.Tenant)
	return wire.AppendUvarint(dst, o.Priority)
}

// DecodeOpen parses a chan.open body.
func DecodeOpen(b []byte) (OpenRequest, error) {
	r := wire.NewReader(b)
	r.Format(wireFormat)
	o := OpenRequest{Channel: r.U32(), Tenant: r.Str(), Priority: r.Uv()}
	r.End()
	return o, r.Err()
}

// AppendClose appends the chan.close body for channel num to dst.
func AppendClose(dst []byte, num uint32) []byte {
	return binary.BigEndian.AppendUint32(append(slices.Grow(dst, 5), wireFormat), num)
}

// DecodeClose parses a chan.close body.
func DecodeClose(b []byte) (uint32, error) {
	r := wire.NewReader(b)
	r.Format(wireFormat)
	num := r.U32()
	r.End()
	return num, r.Err()
}

// SubplanRequest is the exec.subplan body: a fixed header, then the
// serialized plan raw. ResumeFrom > 0 asks the destination to skip that
// many leading rows (a checkpoint from an earlier attempt that already
// reached the root). TraceID/SpanID propagate the root's trace context;
// Tenant/Priority are the root execution's QoS headers.
type SubplanRequest struct {
	Channel    uint32
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
	dst = slices.Grow(dst, 1+4+wire.UvarintLen(r.ResumeFrom)+wire.UvarintLen(r.Priority)+
		wire.StrLen(len(r.Tenant))+wire.StrLen(len(r.TraceID))+wire.StrLen(len(r.SpanID))+len(r.Plan))
	dst = append(dst, wireFormat)
	dst = binary.BigEndian.AppendUint32(dst, r.Channel)
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
	s := SubplanRequest{Channel: r.U32(), ResumeFrom: r.Uv(), Priority: r.Uv()}
	s.Tenant = r.Str()
	s.TraceID = r.Str()
	s.SpanID = r.Str()
	s.Plan = r.Rest()
	return s, r.Err()
}
