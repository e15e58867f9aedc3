package channel

import (
	"encoding/binary"
	"fmt"
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
//	chan.packet   format, type|final|stamped, seq, rows, channel, gossip[, stats[, gen][, stamp], spans] | payload
//	exec.subplan  format, channel, seq base, resumeFrom, priority, stamp, mirrored, stats gen,
//	              tenant, trace id, span id | plan
//	plan-change   format, reason, offset   (a PlanChange packet's payload)
//
// The type byte's high bit is the final flag; only a final packet has
// the two trailers (the Stats body and the span record), only a
// non-empty Stats body is followed by its base generation, and only a
// final packet with the stamped bit (stampFlag) carries the serving
// base's dictionary stamp, a fixed 8 bytes. The request's stamp is
// fixed-width too: it names what the root mirrors of the site's
// dictionary (see SubplanRequest), and a stamp's size must not depend on
// how many bases the process made before. The subplan request is also
// the channel's open: there is no chan.open or chan.close message. The root is the message's sender (or, for
// chan.packet, its receiver), so no message carries it. Only the
// request carries the trace context: the root records the trace id of
// each channel it deploys, so packets need none.

// wireFormat tags the layout above; a decoder rejects any other value.
const wireFormat byte = 4

// finalFlag is the type byte's final-packet bit; stampFlag, set only
// with it, marks a final packet that carries a dictionary stamp.
const (
	finalFlag byte = 0x80
	stampFlag byte = 0x40
)

// errStampFlag is a stamped bit on a packet that is not final.
var errStampFlag = fmt.Errorf("%w: channel: dictionary stamp on a non-final packet", ErrBadEnvelope)

// ErrBadEnvelope reports a short or malformed data-plane header. It is
// the shared wire.ErrMalformed: the decoders return it wrapped in a fixed
// error, so rejecting a bad header allocates nothing.
var ErrBadEnvelope = wire.ErrMalformed

// ID renders the root-locally unique channel id "<root>#<num>" that
// events and errors use for the wire's channel number.
func ID(root pattern.PeerID, num uint32) string {
	return string(root) + "#" + strconv.FormatUint(uint64(num), 10)
}

// AppendPacket appends p's chan.packet body to dst, growing dst once to
// the exact size. A Frame is the payload: the body is sized from its
// WireLen and the frame appended straight after the header, so its bytes
// are written once. WireBytes is not on the wire, and neither are Stats
// and Spans unless p is Final.
func AppendPacket(dst []byte, p *Packet) []byte {
	return appendPacket(dst, p, p.payloadLen())
}

// appendPacket is AppendPacket with the payload size already known
// (Inbound.Send also counts it), so a frame is sized once per send.
func appendPacket(dst []byte, p *Packet, payloadLen int) []byte {
	n := 1 + 1 + wire.UvarintLen(p.Seq) + wire.UvarintLen(p.Rows) + 4 + wire.StrLen(len(p.Gossip)) + payloadLen
	typ := byte(p.Type) &^ (finalFlag | stampFlag)
	if p.Final {
		typ |= finalFlag
		n += wire.StrLen(len(p.Stats)) + wire.StrLen(len(p.Spans))
		if len(p.Stats) > 0 {
			n += wire.UvarintLen(int(p.StatsGen))
		}
		if p.Stamp != 0 {
			typ |= stampFlag
			n += 8
		}
	}
	dst = slices.Grow(dst, n)
	dst = append(dst, wireFormat, typ)
	dst = wire.AppendUvarint(dst, p.Seq)
	dst = wire.AppendUvarint(dst, p.Rows)
	dst = binary.BigEndian.AppendUint32(dst, p.Channel)
	dst = wire.AppendStr(dst, p.Gossip)
	if p.Final {
		dst = wire.AppendStr(dst, p.Stats)
		if len(p.Stats) > 0 {
			dst = wire.AppendUvarint(dst, int(p.StatsGen))
		}
		if p.Stamp != 0 {
			dst = binary.BigEndian.AppendUint64(dst, p.Stamp)
		}
		dst = wire.AppendStr(dst, p.Spans)
	}
	if p.Frame != nil {
		return p.Frame.AppendWire(dst)
	}
	return append(dst, p.Payload...)
}

// DecodePacket parses a chan.packet body. Payload, Gossip and the
// trailers alias b; nothing is allocated.
func DecodePacket(b []byte) (Packet, error) {
	r := wire.NewReader(b)
	r.Format(wireFormat)
	typ := r.U8()
	p := Packet{Type: PacketType(typ &^ (finalFlag | stampFlag)), Final: typ&finalFlag != 0}
	if typ&stampFlag != 0 && !p.Final {
		r.Fail(errStampFlag)
	}
	p.Seq = r.Uv()
	p.Rows = r.Uv()
	p.Channel = r.U32()
	p.Gossip = r.Blob()
	if p.Final {
		if p.Stats = r.Blob(); len(p.Stats) > 0 {
			p.StatsGen = uint64(r.Uv())
		}
		if typ&stampFlag != 0 {
			// A zero stamp would re-encode without the flag.
			if p.Stamp = r.U64(); p.Stamp == 0 {
				r.Fail(errStampFlag)
			}
		}
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
//
// Stamp, Mirrored and StatsGen state what the root holds of the
// destination: the stamp of the base dictionary it mirrors (0 for none),
// how many of that dictionary's entries it mirrors, and one more than
// the base generation of the last Stats trailer it applied under that
// stamp (0 for none). The destination sends only the entries past
// Mirrored, and the Stats trailer only when its version moved, so it
// keeps no state per root: a lost packet only means the next request
// states less.
type SubplanRequest struct {
	Channel    uint32
	SeqBase    int
	ResumeFrom int
	Priority   int
	Stamp      uint64
	Mirrored   int
	StatsGen   uint64
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
		8+wire.UvarintLen(r.Mirrored)+wire.UvarintLen(int(r.StatsGen))+
		wire.StrLen(len(r.Tenant))+wire.StrLen(len(r.TraceID))+wire.StrLen(len(r.SpanID))+len(r.Plan))
	dst = append(dst, wireFormat)
	dst = binary.BigEndian.AppendUint32(dst, r.Channel)
	dst = wire.AppendUvarint(dst, r.SeqBase)
	dst = wire.AppendUvarint(dst, r.ResumeFrom)
	dst = wire.AppendUvarint(dst, r.Priority)
	dst = binary.BigEndian.AppendUint64(dst, r.Stamp)
	dst = wire.AppendUvarint(dst, r.Mirrored)
	dst = wire.AppendUvarint(dst, int(r.StatsGen))
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
	s.Stamp, s.Mirrored, s.StatsGen = r.U64(), r.Uv(), uint64(r.Uv())
	s.Tenant = r.Str()
	s.TraceID = r.Str()
	s.SpanID = r.Str()
	s.Plan = r.Rest()
	return s, r.Err()
}

// AppendPlanChange appends pc's PlanChange payload to dst.
func AppendPlanChange(dst []byte, pc PlanChangeInfo) []byte {
	dst = append(dst, wireFormat)
	dst = wire.AppendStr(dst, pc.Reason)
	return wire.AppendUvarint(dst, pc.Offset)
}

// DecodePlanChange parses a PlanChange payload.
func DecodePlanChange(b []byte) (PlanChangeInfo, error) {
	r := wire.NewReader(b)
	r.Format(wireFormat)
	pc := PlanChangeInfo{Reason: r.Str(), Offset: r.Uv()}
	r.End()
	return pc, r.Err()
}
