// Package wire holds the append and read helpers every binary message
// body in SQPeer shares: the data-plane envelopes (internal/channel), the
// plan (internal/plan), the routing request and its annotated reply
// (internal/pattern), the per-site statistics payload (internal/stats),
// the ad-hoc overlay's plan request and the TCP gateway's reply frame.
//
// The rules are the same everywhere:
//
//   - a body opens with a format byte, and a decoder rejects any other
//     value;
//   - integers are uvarints of their two's-complement bits (so every int
//     round-trips), and a decoder accepts only the shortest form;
//   - strings and blobs are a uvarint length plus their bytes;
//   - every length and count is checked against the bytes left before
//     anything is sliced or allocated;
//   - so every body that decodes re-encodes to the same bytes.
//
// Bodies built with Encode add one more rule: their strings live in a
// table written once after the format byte, sorted and without
// duplicates, and the body refers to them by index. The table is
// front-coded (the "Plain Front Coding" of HDT's dictionary, which the
// Results frames of internal/rql use too):
//
//	table = n | nbytes | n × (shared | suffix)
//
// where shared is the length of the prefix an entry shares with the
// entry before it, suffix (a length-prefixed string) the rest of the
// entry, and nbytes the total length of the decoded entries. Sorted IRIs
// of one namespace share their prefix, so a body ships each namespace
// once. A decoder rejects a shared length that is not maximal or is
// longer than the previous entry, an entry that does not sort strictly
// after the one before it, an inexact nbytes, and a table entry the body
// never uses; it checks nbytes against what the remaining bytes can
// decode to, and against MaxStrings, before it allocates, and builds
// every entry into one string. The table is what makes the repeated IRIs
// of a plan, an annotation or a statistics payload cost their bytes
// once, and because it is sorted, a map whose keys are table references
// is in key order exactly when its reference indices increase.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"strings"
)

// ErrMalformed reports a short or malformed body. The readers return it
// wrapped in one of the fixed errors below, so rejecting a bad body
// allocates nothing.
var ErrMalformed = errors.New("wire: malformed body")

var (
	errFormat   = fmt.Errorf("%w: unknown format", ErrMalformed)
	errShort    = fmt.Errorf("%w: short body", ErrMalformed)
	errVarint   = fmt.Errorf("%w: bad varint", ErrMalformed)
	errLength   = fmt.Errorf("%w: length past end", ErrMalformed)
	errTrailing = fmt.Errorf("%w: trailing bytes", ErrMalformed)
	errRef      = fmt.Errorf("%w: string reference out of range", ErrMalformed)
	errOrder    = fmt.Errorf("%w: strings or keys out of order", ErrMalformed)
	errUnused   = fmt.Errorf("%w: unused table string", ErrMalformed)
	errBytes    = fmt.Errorf("%w: string byte total does not match the table", ErrMalformed)
	errShared   = fmt.Errorf("%w: shared prefix longer than the previous string", ErrMalformed)
	errMaximal  = fmt.Errorf("%w: shared prefix not maximal", ErrMalformed)
)

// MaxStrings caps the decoded string bytes of one body or frame. Front
// coding lets a few bytes of prefix and suffix lengths stand for long
// strings, so a small body can claim a large total; the cap keeps a
// hostile one from forcing a huge allocation (it is four times the TCP
// transport's frame cap), and encoders refuse what it would refuse.
const MaxStrings = 64 << 20

// errTooLarge is Encode's refusal of a body whose string table decodes to
// more than MaxStrings bytes.
var errTooLarge = fmt.Errorf("wire: body strings exceed %d bytes", MaxStrings)

// CommonPrefix is the length of the longest common prefix of a and b.
func CommonPrefix(a, b string) int {
	n := min(len(a), len(b))
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// Strings builds a body's or frame's decoded strings into one string:
// every piece is appended to the builder and sliced back out of its
// String(), which never moves because the builder is grown to the total
// up front (Grow) and never written past it. So decoding costs one
// allocation for all the strings, however many there are.
type Strings struct {
	sb    strings.Builder
	limit int
}

// Grow sets the total to n bytes and allocates it.
func (s *Strings) Grow(n int) {
	s.limit = n
	s.sb.Grow(n)
}

// Add appends prefix and suffix and returns them as one string; ok is
// false, and nothing is written, when they would overrun the total.
func (s *Strings) Add(prefix string, suffix []byte) (v string, ok bool) {
	start := s.sb.Len()
	if start+len(prefix)+len(suffix) > s.limit {
		return "", false
	}
	s.sb.WriteString(prefix)
	s.sb.Write(suffix)
	return s.sb.String()[start:], true
}

// Full reports whether exactly the total has been written.
func (s *Strings) Full() bool { return s.sb.Len() == s.limit }

// UvarintLen is the encoded size of v as a uvarint.
func UvarintLen(v int) int { return (bits.Len64(uint64(v)|1) + 6) / 7 }

// StrLen is the encoded size of an n-byte string or blob.
func StrLen(n int) int { return UvarintLen(n) + n }

// AppendUvarint appends v's two's-complement bits as a uvarint.
func AppendUvarint(dst []byte, v int) []byte { return binary.AppendUvarint(dst, uint64(v)) }

// AppendStr appends a length-prefixed string or blob.
func AppendStr[S string | []byte](dst []byte, s S) []byte {
	return append(AppendUvarint(dst, len(s)), s...)
}

// Writer writes one Encode body. Body functions call it twice with the
// same values: the first pass collects the strings and sizes the body,
// the second writes it.
type Writer struct {
	buf   []byte
	strs  []string // collect pass: every string written; write pass: the table
	size  int      // collect pass: bytes written other than string references
	write bool
	err   error
}

// Byte writes one byte.
func (w *Writer) Byte(c byte) {
	if w.write {
		w.buf = append(w.buf, c)
	} else {
		w.size++
	}
}

// Uv writes an int as a uvarint.
func (w *Writer) Uv(v int) {
	if w.write {
		w.buf = AppendUvarint(w.buf, v)
	} else {
		w.size += UvarintLen(v)
	}
}

// Str writes a string as a reference into the body's table.
func (w *Writer) Str(s string) {
	if w.write {
		i, _ := slices.BinarySearch(w.strs, s)
		w.buf = AppendUvarint(w.buf, i)
	} else {
		w.strs = append(w.strs, s)
	}
}

// Fail aborts the encoding with err; the first failure sticks.
func (w *Writer) Fail(err error) {
	if w.err == nil {
		w.err = err
	}
}

// Encode builds a body: the format byte, the front-coded table of
// everything body writes with Str, then body's bytes. The result is
// allocated once, at (at most a few bytes over) its final size. It fails
// when the table's strings exceed MaxStrings, which every decoder
// refuses.
func Encode(format byte, body func(*Writer)) ([]byte, error) {
	w := Writer{}
	body(&w)
	if w.err != nil {
		return nil, w.err
	}
	refs := len(w.strs)
	slices.Sort(w.strs)
	w.strs = slices.Compact(w.strs)
	nbytes, table, prev := 0, 0, ""
	for _, s := range w.strs {
		p := CommonPrefix(prev, s)
		nbytes += len(s)
		table += UvarintLen(p) + StrLen(len(s)-p)
		prev = s
	}
	if nbytes > MaxStrings {
		return nil, errTooLarge
	}
	size := 1 + UvarintLen(len(w.strs)) + UvarintLen(nbytes) + table + w.size + refs*UvarintLen(len(w.strs))
	w.buf = make([]byte, 0, size)
	w.buf = append(w.buf, format)
	w.buf = AppendUvarint(w.buf, len(w.strs))
	w.buf = AppendUvarint(w.buf, nbytes)
	prev = ""
	for _, s := range w.strs {
		p := CommonPrefix(prev, s)
		w.buf = AppendUvarint(w.buf, p)
		w.buf = AppendStr(w.buf, s[p:])
		prev = s
	}
	w.write = true
	body(&w)
	return w.buf, w.err
}

// Reader decodes a body front to back. The first failure sticks: later
// reads return zero values, so a decoder checks Err (or Finish) once at
// the end.
type Reader struct {
	b     []byte
	err   error
	table []string
	used  []uint64 // bitset over table: entries the body referred to
}

// NewReader returns a Reader over b.
func NewReader(b []byte) Reader { return Reader{b: b} }

// Err returns the first failure, nil if none.
func (r *Reader) Err() error { return r.err }

// Fail records err as the failure unless one is already recorded.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err, r.b = err, nil
	}
}

// Format reads the format byte and rejects any value but want.
func (r *Reader) Format(want byte) {
	if f := r.U8(); r.err == nil && f != want {
		r.Fail(errFormat)
	}
}

// U8 reads one byte.
func (r *Reader) U8() byte {
	if len(r.b) < 1 {
		r.Fail(errShort)
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

// Uv reads a uvarint as an int (the inverse of AppendUvarint).
func (r *Reader) Uv() int {
	v, n := r.varint()
	r.b = r.b[n:]
	return int(v)
}

// varint reads a canonical (shortest-form) uvarint without consuming it,
// so every decodable body re-encodes to itself.
func (r *Reader) varint() (uint64, int) {
	v, n := binary.Uvarint(r.b)
	if n <= 0 || n != UvarintLen(int(v)) {
		r.Fail(errVarint)
		return 0, 0
	}
	return v, n
}

// Count reads an item count and checks it against the bytes left, given
// that every item takes at least min bytes, so a caller can allocate
// count items without trusting the input.
func (r *Reader) Count(min int) int {
	v, n := r.varint()
	if v > uint64(len(r.b)-n)/uint64(min) {
		r.Fail(errLength)
		return 0
	}
	r.b = r.b[n:]
	return int(v)
}

// U32 reads a fixed 4-byte big-endian integer.
func (r *Reader) U32() uint32 {
	if len(r.b) < 4 {
		r.Fail(errShort)
		return 0
	}
	v := binary.BigEndian.Uint32(r.b)
	r.b = r.b[4:]
	return v
}

// U64 reads a fixed 8-byte big-endian integer.
func (r *Reader) U64() uint64 {
	if len(r.b) < 8 {
		r.Fail(errShort)
		return 0
	}
	v := binary.BigEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

// Blob reads a length-prefixed byte string aliasing the input (nil when
// empty).
func (r *Reader) Blob() []byte {
	v, n := r.varint()
	if v > uint64(len(r.b)-n) {
		r.Fail(errLength)
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

// Str reads a length-prefixed string (a copy).
func (r *Reader) Str() string { return string(r.Blob()) }

// Len is the number of bytes left to read.
func (r *Reader) Len() int { return len(r.b) }

// Rest returns the raw bytes after the header (nil when empty).
func (r *Reader) Rest() []byte {
	if len(r.b) == 0 {
		return nil
	}
	out := r.b
	r.b = nil
	return out
}

// End rejects trailing bytes.
func (r *Reader) End() {
	if len(r.b) > 0 {
		r.Fail(errTrailing)
	}
}

// Table reads an Encode body's front-coded string table, rejecting one
// that would not re-encode to the same bytes. The entries are built into
// one string, so reading a table costs a fixed number of allocations
// whatever its size, and a claimed total is checked against what the
// remaining bytes can decode to before anything is allocated.
func (r *Reader) Table() {
	// Every entry takes at least 2 bytes (its shared length and its
	// suffix length), so at most lit = rem-2n bytes are literal, and no
	// entry decodes longer than the literal bytes before and in it.
	n := r.Count(2)
	nbytes := r.Uv()
	if r.err != nil {
		return
	}
	if lit := len(r.b) - 2*n; nbytes < 0 || nbytes > MaxStrings || nbytes > n*lit {
		r.Fail(errBytes)
		return
	}
	var s Strings
	s.Grow(nbytes)
	r.table = make([]string, n)
	r.used = make([]uint64, (n+63)/64)
	prev := ""
	for i := range r.table {
		shared := r.Uv()
		suffix := r.Blob()
		switch {
		case r.err != nil:
			return
		case shared < 0 || shared > len(prev):
			r.Fail(errShared)
			return
		case shared < len(prev) && len(suffix) > 0 && suffix[0] == prev[shared]:
			r.Fail(errMaximal)
			return
		case i > 0 && (len(suffix) == 0 || shared < len(prev) && suffix[0] < prev[shared]):
			// The entry is a prefix of the one before it, equal to it or
			// sorts below it.
			r.Fail(errOrder)
			return
		}
		v, ok := s.Add(prev[:shared], suffix)
		if !ok {
			r.Fail(errBytes)
			return
		}
		r.table[i], prev = v, v
	}
	if !s.Full() {
		r.Fail(errBytes)
	}
}

// Ref reads a string reference into the table.
func (r *Reader) Ref() string {
	i := r.refIndex()
	if r.err != nil {
		return ""
	}
	return r.table[i]
}

// Key reads a map key: a string reference whose index must exceed
// *last, the previous key's (start it at -1). With a sorted table this
// is exactly "keys in increasing order, no duplicates".
func (r *Reader) Key(last *int) string {
	i := r.refIndex()
	if r.err == nil && i <= *last {
		r.Fail(errOrder)
	}
	if r.err != nil {
		return ""
	}
	*last = i
	return r.table[i]
}

func (r *Reader) refIndex() int {
	i := r.Uv()
	if r.err == nil && (i < 0 || i >= len(r.table)) {
		r.Fail(errRef)
	}
	if r.err != nil {
		return 0
	}
	r.used[i/64] |= 1 << (i % 64)
	return i
}

// Finish ends an Encode body: no trailing bytes, and every table string
// referred to (an encoder writes only the strings it uses). It returns
// the first failure.
func (r *Reader) Finish() error {
	r.End()
	if r.err == nil {
		for i := range r.table {
			if r.used[i/64]&(1<<(i%64)) == 0 {
				r.Fail(errUnused)
				break
			}
		}
	}
	return r.err
}
