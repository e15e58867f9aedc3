// Binary wire codec for Batch: the length-prefixed framing Results
// packets carry instead of per-ResultSet JSON. A frame takes one of two
// forms. A self-contained frame carries its own term dictionary:
//
//	magic(1) | nbytes | nvars | var*   (uvarint length-prefixed strings)
//	| ndict | entry*                   (per-batch term dictionary)
//	| nrows | column*                  (nvars columns of nrows uvarint ids)
//
// A mirror frame carries ids of the sending peer's base dictionary and
// only the entries the receiver does not hold yet (see Mirror):
//
//	mirrorMagic(1) | stamp(8) | offset | nbytes | nvars | var*
//	| nentries | entry* | nrows | column*
//
//	entry = head(1) | shared | suffix | [datatype]
//
// with every count and string length a uvarint and every dictionary id
// stored as id+1 so the unbound sentinel (-1) encodes as 0. A
// self-contained frame's ids index its own dictionary; a mirror frame's
// ids index the base dictionary whose entries [offset, offset+nentries)
// it ships. Terms appear once in a dictionary no matter how many rows
// reference them, so a frame's size tracks distinct terms plus one or
// two bytes per cell.
//
// Entries are front-coded in order (the "Plain Front Coding" of HDT's
// dictionary): an entry stores only the length of the prefix its value
// shares with the previous entry's value, and the suffix after it. A
// mirror frame's first entry continues the base entry before its offset,
// which the receiver holds, so a shipped range has the same bytes
// wherever it is split. Terms of one namespace share their IRI prefix,
// so a frame ships each namespace once instead of once per term. The
// head byte is the term's kind, plus dtFlag when a datatype string
// follows. nbytes is the total length of the frame's decoded strings
// (variable names, values, datatypes), so the decoder builds them all
// into one string, in one pass and one allocation.
//
// The codec is canonical: integers are shortest-form uvarints, each
// shared length is maximal, the flag is set exactly when the datatype
// is non-empty and nbytes is exact, so every frame that decodes
// re-encodes to the same bytes. A Frame computes the shared lengths once
// and sizes itself exactly, so a sender can allocate a packet body once
// and append the frame straight into it.
package rql

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"sqpeer/internal/rdf"
	"sqpeer/internal/wire"
)

// batchMagic and mirrorMagic are the leading version bytes of a
// self-contained and a mirror frame.
const (
	batchMagic  = 0xB8
	mirrorMagic = 0xBB
)

// dtFlag marks a dictionary entry whose head byte is followed by a
// datatype string.
const dtFlag = 0x80

// ErrFrameTooLarge is NewFrame's refusal of a batch whose strings exceed
// wire.MaxStrings, the cap every decoder enforces.
var ErrFrameTooLarge = fmt.Errorf("rql: frame strings exceed %d bytes", wire.MaxStrings)

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

// Frame is a batch laid out for the wire, in either form. NewFrame and
// NewMirrorFrame compute each dictionary entry's shared-prefix length
// once; WireLen and AppendWire both read them. It implements
// channel.Packet's Frame. The batch must not change while the frame is in
// use.
type Frame struct {
	b *Batch
	// start, end bound the rows of b the frame carries.
	start, end int
	// dict is the entries the frame ships, front-coded as a continuation
	// of prev when the frame is a mirror frame at a positive offset;
	// mirror is set for a mirror frame.
	dict   []rdf.Term
	prev   string
	mirror *Mirror
	// shared[i] is the length of the prefix dict[i].Value shares with the
	// value before it (prev for the first entry).
	shared []int32
	// nbytes is the decoded string total; size the encoded length.
	nbytes, size int
}

// Mirror is the dictionary part of a mirror frame: the frame's ids index
// the base dictionary named by Stamp (rdf.Base.Stamp), and the frame
// ships that dictionary's entries from Offset on, a receiver that mirrors
// the dictionary already holding the first Offset.
type Mirror struct {
	// Stamp names the base dictionary.
	Stamp uint64
	// Offset is the id of Entries[0].
	Offset int
	// Entries are the base's dictionary entries [Offset,
	// Offset+len(Entries)); every id the frame's rows hold is below their
	// end.
	Entries []rdf.Term
}

// NewFrame lays b out for the wire as a self-contained frame. It fails
// with ErrFrameTooLarge when the batch's strings exceed what a decoder
// accepts.
func NewFrame(b *Batch) (*Frame, error) {
	return layout(&Frame{b: b, end: b.Len(), dict: b.Dict})
}

// NewMirrorFrame lays rows [start, end) of b, a batch of base ids, out as
// a mirror frame shipping m.Entries; prev is the value of the base entry
// before m.Offset (unused at offset 0), which the first entry continues.
// Every id the rows hold must be below m.Offset+len(m.Entries). It fails
// as NewFrame does.
func NewMirrorFrame(b *Batch, start, end int, m *Mirror, prev string) (*Frame, error) {
	if m.Offset == 0 {
		prev = ""
	}
	return layout(&Frame{b: b, start: start, end: end, dict: m.Entries, prev: prev, mirror: m})
}

// layout computes f's front coding and sizes.
func layout(f *Frame) (*Frame, error) {
	b := f.b
	f.shared = make([]int32, len(f.dict))
	size := 1 + wire.UvarintLen(len(b.Vars))
	if m := f.mirror; m != nil {
		size += 8 + wire.UvarintLen(m.Offset)
	}
	for _, v := range b.Vars {
		size += wire.StrLen(len(v))
		f.nbytes += len(v)
	}
	size += wire.UvarintLen(len(f.dict))
	prev := f.prev
	for i, t := range f.dict {
		p := wire.CommonPrefix(prev, t.Value)
		f.shared[i] = int32(p)
		size += 1 + wire.UvarintLen(p) + wire.StrLen(len(t.Value)-p)
		f.nbytes += len(t.Value)
		if t.Datatype != "" {
			size += wire.StrLen(len(t.Datatype))
			f.nbytes += len(t.Datatype)
		}
		prev = t.Value
	}
	if f.nbytes > wire.MaxStrings {
		return nil, ErrFrameTooLarge
	}
	size += wire.UvarintLen(f.end - f.start)
	for _, col := range b.Cols {
		for _, id := range col[f.start:f.end] {
			size += wire.UvarintLen(int(id + 1))
		}
	}
	f.size = size + wire.UvarintLen(f.nbytes)
	return f, nil
}

// WireLen is the exact size of the frame, len(f.AppendWire(nil)).
func (f *Frame) WireLen() int { return f.size }

// AppendWire appends the frame to dst and returns the extended slice.
func (f *Frame) AppendWire(dst []byte) []byte {
	b := f.b
	dst = slices.Grow(dst, f.size)
	if m := f.mirror; m != nil {
		dst = append(dst, mirrorMagic)
		dst = binary.BigEndian.AppendUint64(dst, m.Stamp)
		dst = wire.AppendUvarint(dst, m.Offset)
	} else {
		dst = append(dst, batchMagic)
	}
	dst = wire.AppendUvarint(dst, f.nbytes)
	dst = wire.AppendUvarint(dst, len(b.Vars))
	for _, v := range b.Vars {
		dst = wire.AppendStr(dst, v)
	}
	dst = wire.AppendUvarint(dst, len(f.dict))
	for i, t := range f.dict {
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
	dst = wire.AppendUvarint(dst, f.end-f.start)
	for _, col := range b.Cols {
		for _, id := range col[f.start:f.end] {
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

// DecodeBatch parses a self-contained frame produced by AppendBatch or
// NewFrame, rejecting any frame that would not re-encode to the same
// bytes. The input buffer is not retained: the frame's strings are built
// into one string whose slices back every decoded variable and term, so
// decoding costs a fixed number of allocations whatever the dictionary's
// size, and the batch never aliases the message it came in.
func DecodeBatch(data []byte) (*Batch, error) {
	r := wire.NewReader(data)
	if m := r.U8(); r.Err() == nil && m != batchMagic {
		return nil, errMagic
	}
	b, dict, err := decodeBody(&r, "", 0)
	if err != nil {
		return nil, err
	}
	b.Dict = dict
	return b, nil
}

// PeekMirror reads a mirror frame's stamp and offset, which a receiver
// needs before DecodeMirror: the first entry continues the base entry
// before the offset. ok is false when data does not open as a mirror
// frame.
func PeekMirror(data []byte) (stamp uint64, offset int, ok bool) {
	r := wire.NewReader(data)
	if r.U8() != mirrorMagic {
		return 0, 0, false
	}
	stamp, offset = r.U64(), r.Uv()
	return stamp, offset, r.Err() == nil
}

// DecodeMirror parses a mirror frame; prev is the value of the base
// entry before the frame's offset (ignored at offset 0). It rejects, as
// DecodeBatch does, any frame that would not re-encode to the same bytes,
// and an id at or past the end of the shipped entries. The batch holds
// the frame's base ids and no dictionary: the receiver translates them
// (Batch.Translate) before anything reads a term. A hostile offset,
// entry count or id costs no allocation sized by the value it claims.
func DecodeMirror(data []byte, prev string) (*Batch, *Mirror, error) {
	r := wire.NewReader(data)
	if m := r.U8(); r.Err() == nil && m != mirrorMagic {
		return nil, nil, errMagic
	}
	m := &Mirror{Stamp: r.U64(), Offset: r.Uv()}
	if m.Offset == 0 {
		prev = ""
	} else if m.Offset < 0 || m.Offset > math.MaxInt32 {
		return nil, nil, errID
	}
	b, entries, err := decodeBody(&r, prev, m.Offset)
	if err != nil {
		return nil, nil, err
	}
	m.Entries = entries
	return b, m, nil
}

// decodeBody reads a frame after its header: variables, the entries
// (front-coded as a continuation of prev when offset is positive) and
// the columns, whose ids must lie below offset plus the entry count.
func decodeBody(r *wire.Reader, prev string, offset int) (*Batch, []rdf.Term, error) {
	// Every decoded byte is either a literal frame byte or a copy of the
	// previous value's prefix; a value is no longer than prev plus the
	// literal bytes, and an entry takes at least 3 bytes.
	nbytes, rem := uint64(r.Uv()), uint64(r.Len())
	if r.Err() != nil {
		return nil, nil, r.Err()
	}
	if nbytes > wire.MaxStrings || nbytes > rem+(rem/3)*(rem+uint64(len(prev))) {
		return nil, nil, errBytes
	}
	var s wire.Strings
	s.Grow(int(nbytes))
	var ok bool
	vars := make([]string, r.Count(1))
	for i := range vars {
		vars[i], ok = s.Add("", r.Blob())
		if !ok {
			return nil, nil, errBytes
		}
	}
	b := NewBatch(vars...)
	n := r.Count(3)
	if offset+n > math.MaxInt32 {
		return nil, nil, errID // ids are int32
	}
	dict := make([]rdf.Term, n)
	for i := range dict {
		head := r.U8()
		kind := rdf.TermKind(head &^ dtFlag)
		shared := r.Uv()
		suffix := r.Blob()
		switch {
		case r.Err() != nil:
			return nil, nil, r.Err()
		case kind > rdf.KindBlank:
			return nil, nil, errKind
		case shared < 0 || shared > len(prev):
			return nil, nil, errShared
		case len(suffix) > 0 && shared < len(prev) && suffix[0] == prev[shared]:
			return nil, nil, errMaximal
		}
		t := &dict[i]
		t.Kind = kind
		if t.Value, ok = s.Add(prev[:shared], suffix); !ok {
			return nil, nil, errBytes
		}
		if head&dtFlag != 0 {
			dt := r.Blob()
			if r.Err() == nil && len(dt) == 0 {
				return nil, nil, errNoType
			}
			var dtype string
			if dtype, ok = s.Add("", dt); !ok {
				return nil, nil, errBytes
			}
			t.Datatype = rdf.IRI(dtype)
		}
		prev = t.Value
	}
	if r.Err() == nil && !s.Full() {
		return nil, nil, errBytes
	}
	if err := decodeColumns(r, b, int64(offset)+int64(len(dict))); err != nil {
		return nil, nil, err
	}
	return b, dict, nil
}

// decodeColumns reads the row count and id columns into b; every id must
// lie below ndict. Each row costs at least one byte per variable, which
// bounds a claimed count against the remaining frame; the zero-variable
// case (a projection onto no variables) carries no cells, so its count
// gets a fixed sanity cap. The columns share one backing array, each
// capped at its own end, so an append to one reallocates it instead of
// overwriting the next.
func decodeColumns(r *wire.Reader, b *Batch, ndict int64) error {
	var nrows int
	if len(b.Vars) > 0 {
		nrows = r.Count(len(b.Vars))
	} else if nrows = r.Uv(); nrows < 0 || nrows > 1<<20 {
		r.Fail(errRows)
	}
	ndict = min(ndict, math.MaxInt32) // ids are int32
	cells := make([]int32, len(b.Cols)*nrows)
	for c := range b.Cols {
		if r.Err() != nil {
			return r.Err()
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
		return r.Err()
	}
	b.rows = nrows
	return nil
}
