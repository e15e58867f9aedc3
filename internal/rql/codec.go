// Binary wire codec for Batch: the length-prefixed framing Results
// packets carry instead of per-ResultSet JSON. The layout is
//
//	magic(1) | nbytes | nvars | var*   (uvarint length-prefixed strings)
//	| ndict | entry*                   (per-batch term dictionary)
//	| nrows | column*                  (nvars columns of nrows uvarint ids)
//
//	entry = head(1) | shared | suffix | [datatype]
//
// with every count and string length a uvarint and every dictionary id
// stored as id+1 so the unbound sentinel (-1) encodes as 0. Terms appear
// once in the dictionary no matter how many rows reference them, so the
// frame size tracks distinct terms plus one or two bytes per cell.
//
// The dictionary is front-coded in its own order (the "Plain Front
// Coding" of HDT's dictionary): an entry stores only the length of the
// prefix its value shares with the previous entry's value, and the
// suffix after it. Terms of one namespace share their IRI prefix, so a
// frame ships each namespace once instead of once per term. The head
// byte is the term's kind, plus dtFlag when a datatype string follows.
// nbytes is the total length of the frame's decoded strings (variable
// names, values, datatypes), so the decoder builds them all into one
// string, in one pass and one allocation.
//
// The codec is canonical: integers are shortest-form uvarints, each
// shared length is maximal, the flag is set exactly when the datatype
// is non-empty and nbytes is exact, so every frame that decodes
// re-encodes to the same bytes. A Frame computes the shared lengths once
// and sizes itself exactly, so a sender can allocate a packet body once
// and append the frame straight into it.
package rql

import (
	"fmt"
	"slices"
	"strings"

	"sqpeer/internal/rdf"
	"sqpeer/internal/wire"
)

// batchMagic is the frame's leading version byte.
const batchMagic = 0xB8

// dtFlag marks a dictionary entry whose head byte is followed by a
// datatype string.
const dtFlag = 0x80

// maxFrameStrings caps a frame's decoded string bytes. Front coding
// lets a few bytes of suffix and prefix lengths stand for long values,
// so a small frame can claim a large dictionary; the decoder's cap keeps
// a hostile frame from forcing a huge allocation (it is four times the
// TCP transport's frame cap), and NewFrame enforces the same cap so no
// sender ships a frame its peer would refuse.
const maxFrameStrings = 64 << 20

// ErrFrameTooLarge is NewFrame's refusal of a batch whose strings exceed
// the cap every decoder enforces.
var ErrFrameTooLarge = fmt.Errorf("rql: frame strings exceed %d bytes", maxFrameStrings)

// The decoder's rejections, wrapped in wire.ErrMalformed; they are fixed
// values, so rejecting a bad frame allocates nothing.
var (
	errMagic   = fmt.Errorf("%w: rql: bad batch magic", wire.ErrMalformed)
	errBytes   = fmt.Errorf("%w: rql: string byte total does not match the frame", wire.ErrMalformed)
	errKind    = fmt.Errorf("%w: rql: unknown term kind", wire.ErrMalformed)
	errShared  = fmt.Errorf("%w: rql: shared prefix longer than the previous term", wire.ErrMalformed)
	errMaximal = fmt.Errorf("%w: rql: shared prefix not maximal", wire.ErrMalformed)
	errNoType  = fmt.Errorf("%w: rql: datatype flag with an empty datatype", wire.ErrMalformed)
	errID      = fmt.Errorf("%w: rql: dictionary id out of range", wire.ErrMalformed)
	errRows    = fmt.Errorf("%w: rql: implausible zero-variable row count", wire.ErrMalformed)
)

// Frame is a batch laid out for the wire. NewFrame computes each
// dictionary entry's shared-prefix length once; WireLen and AppendWire
// both read them. It implements channel.Packet's Frame. The batch must
// not change while the frame is in use.
type Frame struct {
	b *Batch
	// shared[i] is the length of the prefix Dict[i].Value shares with
	// Dict[i-1].Value (0 for the first entry).
	shared []int32
	// nbytes is the decoded string total; size the encoded length.
	nbytes, size int
}

// NewFrame lays b out for the wire. It fails with ErrFrameTooLarge when
// the batch's strings exceed what a decoder accepts.
func NewFrame(b *Batch) (*Frame, error) {
	f := &Frame{b: b, shared: make([]int32, len(b.Dict))}
	size := 1 + wire.UvarintLen(len(b.Vars))
	for _, v := range b.Vars {
		size += wire.StrLen(len(v))
		f.nbytes += len(v)
	}
	size += wire.UvarintLen(len(b.Dict))
	prev := ""
	for i, t := range b.Dict {
		p := commonPrefix(prev, t.Value)
		f.shared[i] = int32(p)
		size += 1 + wire.UvarintLen(p) + wire.StrLen(len(t.Value)-p)
		f.nbytes += len(t.Value)
		if t.Datatype != "" {
			size += wire.StrLen(len(t.Datatype))
			f.nbytes += len(t.Datatype)
		}
		prev = t.Value
	}
	if f.nbytes > maxFrameStrings {
		return nil, ErrFrameTooLarge
	}
	size += wire.UvarintLen(b.Len())
	for _, col := range b.Cols {
		for _, id := range col {
			size += wire.UvarintLen(int(id + 1))
		}
	}
	f.size = size + wire.UvarintLen(f.nbytes)
	return f, nil
}

// commonPrefix is the length of the longest common prefix of a and b.
func commonPrefix(a, b string) int {
	n := min(len(a), len(b))
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// WireLen is the exact size of the frame, len(f.AppendWire(nil)).
func (f *Frame) WireLen() int { return f.size }

// AppendWire appends the frame to dst and returns the extended slice.
func (f *Frame) AppendWire(dst []byte) []byte {
	b := f.b
	dst = slices.Grow(dst, f.size)
	dst = append(dst, batchMagic)
	dst = wire.AppendUvarint(dst, f.nbytes)
	dst = wire.AppendUvarint(dst, len(b.Vars))
	for _, v := range b.Vars {
		dst = wire.AppendStr(dst, v)
	}
	dst = wire.AppendUvarint(dst, len(b.Dict))
	for i, t := range b.Dict {
		p := int(f.shared[i])
		if t.Datatype == "" {
			dst = append(dst, byte(t.Kind))
		} else {
			dst = append(dst, byte(t.Kind)|dtFlag)
		}
		dst = wire.AppendUvarint(dst, p)
		dst = wire.AppendStr(dst, t.Value[p:])
		if t.Datatype != "" {
			dst = wire.AppendStr(dst, string(t.Datatype))
		}
	}
	dst = wire.AppendUvarint(dst, b.Len())
	for _, col := range b.Cols {
		for _, id := range col {
			dst = wire.AppendUvarint(dst, int(id+1))
		}
	}
	return dst
}

// AppendBatch appends the binary frame of b to dst and returns the
// extended slice; it fails as NewFrame does.
func AppendBatch(dst []byte, b *Batch) ([]byte, error) {
	f, err := NewFrame(b)
	if err != nil {
		return dst, err
	}
	return f.AppendWire(dst), nil
}

// frameStrings builds a frame's decoded strings into one string: every
// piece is appended to the builder and sliced back out of its String(),
// which never moves because the builder is grown to the frame's total
// up front and never written past it.
type frameStrings struct {
	sb    strings.Builder
	limit int
}

// add appends prefix and suffix and returns them as one string; ok is
// false, and nothing is written, when they would overrun the total.
func (s *frameStrings) add(prefix string, suffix []byte) (v string, ok bool) {
	start := s.sb.Len()
	if start+len(prefix)+len(suffix) > s.limit {
		return "", false
	}
	s.sb.WriteString(prefix)
	s.sb.Write(suffix)
	return s.sb.String()[start:], true
}

// DecodeBatch parses a frame produced by AppendBatch, rejecting any frame
// that would not re-encode to the same bytes. The input buffer is not
// retained: the frame's strings are built into one string whose slices
// back every decoded variable and term, so decoding costs a fixed number
// of allocations whatever the dictionary's size, and the batch never
// aliases the message it came in.
func DecodeBatch(data []byte) (*Batch, error) {
	r := wire.NewReader(data)
	if m := r.U8(); r.Err() == nil && m != batchMagic {
		return nil, errMagic
	}
	// Every decoded byte is either a literal frame byte or a copy of the
	// previous value's prefix; a value is no longer than the literal
	// bytes, and an entry takes at least 3 bytes.
	nbytes, rem := uint64(r.Uv()), uint64(r.Len())
	if r.Err() != nil {
		return nil, r.Err()
	}
	if nbytes > maxFrameStrings || nbytes > rem+rem*(rem/3) {
		return nil, errBytes
	}
	var s frameStrings
	s.limit = int(nbytes)
	s.sb.Grow(s.limit)
	var ok bool
	vars := make([]string, r.Count(1))
	for i := range vars {
		vars[i], ok = s.add("", r.Blob())
		if !ok {
			return nil, errBytes
		}
	}
	b := NewBatch(vars...)
	b.Dict = make([]rdf.Term, r.Count(3))
	prev := ""
	for i := range b.Dict {
		head := r.U8()
		kind := rdf.TermKind(head &^ dtFlag)
		shared := r.Uv()
		suffix := r.Blob()
		switch {
		case r.Err() != nil:
			return nil, r.Err()
		case kind > rdf.KindBlank:
			return nil, errKind
		case shared < 0 || shared > len(prev):
			return nil, errShared
		case len(suffix) > 0 && shared < len(prev) && suffix[0] == prev[shared]:
			return nil, errMaximal
		}
		t := &b.Dict[i]
		t.Kind = kind
		if t.Value, ok = s.add(prev[:shared], suffix); !ok {
			return nil, errBytes
		}
		if head&dtFlag != 0 {
			dt := r.Blob()
			if r.Err() == nil && len(dt) == 0 {
				return nil, errNoType
			}
			var dtype string
			if dtype, ok = s.add("", dt); !ok {
				return nil, errBytes
			}
			t.Datatype = rdf.IRI(dtype)
		}
		prev = t.Value
	}
	if r.Err() == nil && s.sb.Len() != s.limit {
		return nil, errBytes
	}
	return decodeColumns(&r, b)
}

// decodeColumns reads the row count and id columns into b. Each row costs
// at least one byte per variable, which bounds a claimed count against
// the remaining frame; the zero-variable case (a projection onto no
// variables) carries no cells, so its count gets a fixed sanity cap. The
// columns share one backing array, each capped at its own end, so an
// append to one reallocates it instead of overwriting the next.
func decodeColumns(r *wire.Reader, b *Batch) (*Batch, error) {
	var nrows int
	if len(b.Vars) > 0 {
		nrows = r.Count(len(b.Vars))
	} else if nrows = r.Uv(); nrows < 0 || nrows > 1<<20 {
		r.Fail(errRows)
	}
	ndict := int64(len(b.Dict))
	cells := make([]int32, len(b.Cols)*nrows)
	for c := range b.Cols {
		if r.Err() != nil {
			return nil, r.Err()
		}
		col := cells[c*nrows : (c+1)*nrows : (c+1)*nrows]
		for i := range col {
			id := int64(r.Uv()) - 1
			if id < -1 || id >= ndict {
				r.Fail(errID)
				break
			}
			col[i] = int32(id)
		}
		b.Cols[c] = col
	}
	r.End()
	if r.Err() != nil {
		return nil, r.Err()
	}
	b.rows = nrows
	return b, nil
}
