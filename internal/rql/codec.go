// Binary wire codec for Batch: the length-prefixed framing Results
// packets carry instead of per-ResultSet JSON. The layout is
//
//	magic(1) | nvars | var*      (uvarint length-prefixed strings)
//	| ndict | (kind(1) value datatype)*   (per-batch term dictionary)
//	| nrows | column*            (nvars columns of nrows uvarint ids)
//
// with every count and string length a uvarint and every dictionary id
// stored as id+1 so the unbound sentinel (-1) encodes as 0. Terms appear
// once in the dictionary no matter how many rows reference them, so the
// frame size tracks distinct terms plus one or two bytes per cell.
// WireLen sizes a frame exactly, so a sender can allocate a packet body
// once and append the frame straight into it (AppendWire).
package rql

import (
	"encoding/binary"
	"fmt"

	"sqpeer/internal/rdf"
	"sqpeer/internal/wire"
)

// batchMagic is the frame's leading version byte.
const batchMagic = 0xB7

// AppendBatch appends the binary frame of b to dst and returns the
// extended slice.
func AppendBatch(dst []byte, b *Batch) []byte {
	dst = append(dst, batchMagic)
	dst = wire.AppendUvarint(dst, len(b.Vars))
	for _, v := range b.Vars {
		dst = wire.AppendStr(dst, v)
	}
	dst = wire.AppendUvarint(dst, len(b.Dict))
	for _, t := range b.Dict {
		dst = append(dst, byte(t.Kind))
		dst = wire.AppendStr(dst, t.Value)
		dst = wire.AppendStr(dst, string(t.Datatype))
	}
	dst = wire.AppendUvarint(dst, b.Len())
	for _, col := range b.Cols {
		for _, id := range col {
			dst = wire.AppendUvarint(dst, int(id+1))
		}
	}
	return dst
}

// AppendWire is AppendBatch as a method: with WireLen it makes a batch a
// channel.Packet frame.
func (b *Batch) AppendWire(dst []byte) []byte { return AppendBatch(dst, b) }

// WireLen is the exact size of b's frame, len(AppendBatch(nil, b)).
func (b *Batch) WireLen() int {
	n := 1 + wire.UvarintLen(len(b.Vars))
	for _, v := range b.Vars {
		n += wire.StrLen(len(v))
	}
	n += wire.UvarintLen(len(b.Dict))
	for _, t := range b.Dict {
		n += 1 + wire.StrLen(len(t.Value)) + wire.StrLen(len(t.Datatype))
	}
	n += wire.UvarintLen(b.Len())
	for _, col := range b.Cols {
		for _, id := range col {
			n += wire.UvarintLen(int(id + 1))
		}
	}
	return n
}

// frameReader walks a frame with sticky error state. str is the frame
// converted to a string once up front: ustring slices it instead of
// copying each string out individually, so decoding a dictionary of N
// terms costs one allocation, not 2N (the decoded terms share the
// frame-sized backing array for as long as any of them lives, which for
// a wire batch is exactly the batch's own lifetime).
type frameReader struct {
	buf []byte
	str string
	off int
	err error
}

func (r *frameReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

func (r *frameReader) byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.buf) {
		r.fail("rql: batch frame truncated at offset %d", r.off)
		return 0
	}
	b := r.buf[r.off]
	r.off++
	return b
}

func (r *frameReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail("rql: bad uvarint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

// count reads a uvarint element count and rejects values that could not
// possibly fit in the remaining bytes (each element costs at least
// perElem bytes), so corrupt or adversarial frames cannot trigger huge
// allocations.
func (r *frameReader) count(what string, perElem int) int {
	v := r.uvarint()
	if r.err != nil {
		return 0
	}
	if max := uint64(len(r.buf)-r.off) / uint64(perElem); v > max {
		r.fail("rql: frame claims %d %s but only %d bytes remain", v, what, len(r.buf)-r.off)
		return 0
	}
	return int(v)
}

func (r *frameReader) ustring() string {
	n := r.count("string bytes", 1)
	if r.err != nil {
		return ""
	}
	s := r.str[r.off : r.off+n]
	r.off += n
	return s
}

// DecodeBatch parses a frame produced by AppendBatch. The input buffer
// is not retained: the frame is copied into one string whose slices back
// every decoded term, so the batch never aliases the message it came in.
func DecodeBatch(data []byte) (*Batch, error) {
	r := &frameReader{buf: data, str: string(data)}
	if m := r.byte(); r.err == nil && m != batchMagic {
		return nil, fmt.Errorf("rql: bad batch magic 0x%02X", m)
	}
	nvars := r.count("vars", 2)
	vars := make([]string, 0, nvars)
	for i := 0; i < nvars && r.err == nil; i++ {
		vars = append(vars, r.ustring())
	}
	b := NewBatch(vars...)
	ndict := r.count("dict terms", 3)
	b.Dict = make([]rdf.Term, 0, ndict)
	for i := 0; i < ndict && r.err == nil; i++ {
		kind := rdf.TermKind(r.byte())
		value := r.ustring()
		datatype := r.ustring()
		b.Dict = append(b.Dict, rdf.Term{Kind: kind, Value: value, Datatype: rdf.IRI(datatype)})
	}
	return decodeColumns(r, b, vars, ndict)
}

// decodeColumns reads the row count and id columns into b. Each row costs
// at least one byte per variable, which bounds a claimed count against
// the remaining frame; the zero-variable case (a projection onto no
// variables) carries no cells, so its count gets a fixed sanity cap.
func decodeColumns(r *frameReader, b *Batch, vars []string, ndict int) (*Batch, error) {
	if r.err != nil {
		return nil, r.err
	}
	nrows64 := r.uvarint()
	if r.err != nil {
		return nil, r.err
	}
	if len(vars) > 0 {
		if max := uint64(len(r.buf)-r.off) / uint64(len(vars)); nrows64 > max {
			return nil, fmt.Errorf("rql: frame claims %d rows but only %d bytes remain", nrows64, len(r.buf)-r.off)
		}
	} else if nrows64 > 1<<20 {
		return nil, fmt.Errorf("rql: implausible zero-variable row count %d", nrows64)
	}
	nrows := int(nrows64)
	for c := range b.Cols {
		col := make([]int32, nrows)
		for i := 0; i < nrows; i++ {
			v := r.uvarint()
			if r.err != nil {
				return nil, r.err
			}
			id := int64(v) - 1
			if id < -1 || id >= int64(ndict) {
				return nil, fmt.Errorf("rql: dictionary id %d out of range [0,%d)", id, ndict)
			}
			col[i] = int32(id)
		}
		b.Cols[c] = col
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(r.buf) {
		return nil, fmt.Errorf("rql: %d trailing bytes after batch frame", len(r.buf)-r.off)
	}
	b.rows = nrows
	return b, nil
}
