package channel

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"strconv"

	"sqpeer/internal/pattern"
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

// ErrBadEnvelope reports a short or malformed data-plane header. The
// decoders return it wrapped in one of the fixed errors below, so
// rejecting a bad header allocates nothing.
var ErrBadEnvelope = errors.New("channel: bad envelope")

var (
	errFormat   = fmt.Errorf("%w: unknown format", ErrBadEnvelope)
	errShort    = fmt.Errorf("%w: short header", ErrBadEnvelope)
	errVarint   = fmt.Errorf("%w: bad varint", ErrBadEnvelope)
	errLength   = fmt.Errorf("%w: length past end", ErrBadEnvelope)
	errTrailing = fmt.Errorf("%w: trailing bytes", ErrBadEnvelope)
)

// ID renders the root-locally unique channel id "<root>#<num>" that
// events, logs and the channel API use for the wire's channel number.
func ID(root pattern.PeerID, num uint32) string {
	return string(root) + "#" + strconv.FormatUint(uint64(num), 10)
}

// AppendPacket appends p's chan.packet body to dst, growing dst once to
// the exact size. WireBytes is not on the wire.
func AppendPacket(dst []byte, p *Packet) []byte {
	dst = slices.Grow(dst, 1+1+uvarintLen(p.Seq)+uvarintLen(p.Rows)+4+
		strLen(len(p.TraceID))+strLen(len(p.SpanID))+strLen(len(p.Gossip))+len(p.Payload))
	dst = append(dst, wireFormat, byte(p.Type))
	dst = binary.AppendUvarint(dst, uint64(p.Seq))
	dst = binary.AppendUvarint(dst, uint64(p.Rows))
	dst = binary.BigEndian.AppendUint32(dst, p.Channel)
	dst = appendStr(dst, p.TraceID)
	dst = appendStr(dst, p.SpanID)
	dst = appendStr(dst, p.Gossip)
	return append(dst, p.Payload...)
}

// DecodePacket parses a chan.packet body. Payload and Gossip alias b;
// nothing is allocated unless the packet carries trace ids.
func DecodePacket(b []byte) (Packet, error) {
	r := reader{b: b}
	r.format()
	p := Packet{Type: PacketType(r.u8())}
	p.Seq = r.uv()
	p.Rows = r.uv()
	p.Channel = r.u32()
	p.TraceID = r.str()
	p.SpanID = r.str()
	p.Gossip = r.blob()
	p.Payload = r.rest()
	return p, r.err
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
	dst = slices.Grow(dst, 1+4+strLen(len(o.Tenant))+uvarintLen(o.Priority))
	dst = append(dst, wireFormat)
	dst = binary.BigEndian.AppendUint32(dst, o.Channel)
	dst = appendStr(dst, o.Tenant)
	return binary.AppendUvarint(dst, uint64(o.Priority))
}

// DecodeOpen parses a chan.open body.
func DecodeOpen(b []byte) (OpenRequest, error) {
	r := reader{b: b}
	r.format()
	o := OpenRequest{Channel: r.u32(), Tenant: r.str(), Priority: r.uv()}
	r.end()
	return o, r.err
}

// AppendClose appends the chan.close body for channel num to dst.
func AppendClose(dst []byte, num uint32) []byte {
	return binary.BigEndian.AppendUint32(append(slices.Grow(dst, 5), wireFormat), num)
}

// DecodeClose parses a chan.close body.
func DecodeClose(b []byte) (uint32, error) {
	r := reader{b: b}
	r.format()
	num := r.u32()
	r.end()
	return num, r.err
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
	dst = slices.Grow(dst, 1+4+uvarintLen(r.ResumeFrom)+uvarintLen(r.Priority)+
		strLen(len(r.Tenant))+strLen(len(r.TraceID))+strLen(len(r.SpanID))+len(r.Plan))
	dst = append(dst, wireFormat)
	dst = binary.BigEndian.AppendUint32(dst, r.Channel)
	dst = binary.AppendUvarint(dst, uint64(r.ResumeFrom))
	dst = binary.AppendUvarint(dst, uint64(r.Priority))
	dst = appendStr(dst, r.Tenant)
	dst = appendStr(dst, r.TraceID)
	dst = appendStr(dst, r.SpanID)
	return append(dst, r.Plan...)
}

// DecodeSubplan parses an exec.subplan body; Plan aliases b.
func DecodeSubplan(b []byte) (SubplanRequest, error) {
	r := reader{b: b}
	r.format()
	s := SubplanRequest{Channel: r.u32(), ResumeFrom: r.uv(), Priority: r.uv()}
	s.Tenant = r.str()
	s.TraceID = r.str()
	s.SpanID = r.str()
	s.Plan = r.rest()
	return s, r.err
}

func uvarintLen(v int) int { return (bits.Len64(uint64(v)|1) + 6) / 7 }

func strLen(n int) int { return uvarintLen(n) + n }

func appendStr[S string | []byte](dst []byte, s S) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

// reader decodes a header front to back. The first failure sticks: later
// reads return zero values, so a decoder checks err once at the end. A
// length is checked against the bytes left before anything is sliced or
// allocated.
type reader struct {
	b   []byte
	err error
}

func (r *reader) fail(err error) {
	if r.err == nil {
		r.err, r.b = err, nil
	}
}

func (r *reader) format() {
	if f := r.u8(); r.err == nil && f != wireFormat {
		r.fail(errFormat)
	}
}

func (r *reader) u8() byte {
	if len(r.b) < 1 {
		r.fail(errShort)
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

func (r *reader) uv() int {
	v, n := r.varint()
	r.b = r.b[n:]
	return int(v)
}

// varint reads a canonical (shortest-form) uvarint without consuming it,
// so every decodable body re-encodes to itself.
func (r *reader) varint() (uint64, int) {
	v, n := binary.Uvarint(r.b)
	if n <= 0 || n != uvarintLen(int(v)) {
		r.fail(errVarint)
		return 0, 0
	}
	return v, n
}

func (r *reader) u32() uint32 {
	if len(r.b) < 4 {
		r.fail(errShort)
		return 0
	}
	v := binary.BigEndian.Uint32(r.b)
	r.b = r.b[4:]
	return v
}

// blob reads a length-prefixed byte string aliasing the input (nil when
// empty).
func (r *reader) blob() []byte {
	v, n := r.varint()
	if v > uint64(len(r.b)-n) {
		r.fail(errLength)
		return nil
	}
	if v == 0 {
		r.b = r.b[n:]
		return nil
	}
	out := r.b[n : n+int(v) : n+int(v)]
	r.b = r.b[n+int(v):]
	return out
}

func (r *reader) str() string { return string(r.blob()) }

// rest returns the raw body after the header (nil when empty).
func (r *reader) rest() []byte {
	if len(r.b) == 0 {
		return nil
	}
	out := r.b
	r.b = nil
	return out
}

// end rejects trailing bytes after a body-less header.
func (r *reader) end() {
	if len(r.b) > 0 {
		r.fail(errTrailing)
	}
}
