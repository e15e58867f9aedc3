package rql

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"sqpeer/internal/rdf"
	"sqpeer/internal/wire"
)

// encode is AppendBatch(nil, b) for a batch within the frame cap.
func encode(t testing.TB, b *Batch) []byte {
	t.Helper()
	buf, err := AppendBatch(nil, b)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// newFrame is NewFrame for a batch within the frame cap.
func newFrame(t testing.TB, b *Batch) *Frame {
	t.Helper()
	f, err := NewFrame(b)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestCodecRoundTrip(t *testing.T) {
	cases := []*ResultSet{
		NewResultSet(),
		NewResultSet("X"),
		rsOf([]string{"X", "Y"},
			Row{"X": termI("http://example.org/n1#a"), "Y": termI("http://example.org/n1#b")},
			Row{"X": termI("http://example.org/n1#a")}, // unbound Y
			Row{"Y": rdf.NewTypedLiteral("42", rdf.XSDInteger)},
			Row{"X": rdf.NewBlank("b0"), "Y": rdf.NewLiteral("héllo\x00wörld — 日本語")},
			Row{"X": termI("http://example.org/n1#ab"), "Y": termI("http://example.org/n1#")},
			Row{"X": rdf.NewLiteral(""), "Y": termI("http://example.org/n2#a")},
		),
	}
	for i, rs := range cases {
		b := BatchOf(rs)
		buf := encode(t, b)
		f := newFrame(t, b)
		if n := f.WireLen(); n != len(buf) {
			t.Fatalf("case %d: WireLen %d, frame is %d bytes", i, n, len(buf))
		}
		if got := f.AppendWire([]byte{0xAA}); !bytes.Equal(got[1:], buf) || got[0] != 0xAA {
			t.Fatalf("case %d: AppendWire differs from AppendBatch", i)
		}
		dec, err := DecodeBatch(buf)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		sortedEqual(t, "case round-trip", dec.ResultSet(), rs)
		if re := encode(t, dec); !bytes.Equal(re, buf) {
			t.Fatalf("case %d: decoded frame re-encodes differently", i)
		}
	}
}

func TestCodecDeterministic(t *testing.T) {
	rs := rsOf([]string{"X"}, Row{"X": termI("a")}, Row{"X": termI("b")})
	a := encode(t, BatchOf(rs))
	b := encode(t, BatchOf(rs))
	if !bytes.Equal(a, b) {
		t.Fatal("same batch encoded to different bytes")
	}
}

// TestCodecFrontCoding pins the dictionary layout: each entry ships only
// the suffix past the prefix it shares with the entry before it, in the
// dictionary's own order.
func TestCodecFrontCoding(t *testing.T) {
	const ns = "http://ics.forth.gr/data/syn#"
	b := NewBatch("X")
	for i := 0; i < 50; i++ {
		b.Dict = append(b.Dict, termI(fmt.Sprintf("%sr_3_%d", ns, 1000+i)))
		b.Cols[0] = append(b.Cols[0], int32(i))
	}
	b.rows = 50
	f := newFrame(t, b)
	for i, p := range f.shared {
		// r_3_1000 .. r_3_1049: neighbors share "r_3_10" and, within a
		// decade, the tens digit too.
		want := 0
		if i > 0 {
			want = len(ns) + len("r_3_10")
			if i%10 != 0 {
				want++
			}
		}
		if int(p) != want {
			t.Fatalf("entry %d shares %d bytes, want %d", i, p, want)
		}
	}
	full := 0
	for _, t := range b.Dict {
		full += len(t.Value)
	}
	if n := f.WireLen(); n > full/3 {
		t.Fatalf("front-coded frame is %d bytes for %d bytes of values", n, full)
	}
}

// TestFrameCapEnforcedAtSender checks that a batch whose strings exceed
// the decoder's cap fails to encode, so no sender ships a frame its peer
// would reject as malformed, while one at the cap encodes. The values
// are prefixes of one string, so the test holds one copy of them.
func TestFrameCapEnforcedAtSender(t *testing.T) {
	const n = 64
	long := strings.Repeat("x", wire.MaxStrings/n+2*n)
	// batch holds n distinct values whose lengths, with the variable
	// name "X", add up to total: n-1 decreasing lengths from about
	// total/n, and a shorter last one that takes the rest.
	batch := func(total int) *Batch {
		b := NewBatch("X")
		rest := total - len("X")
		for i := 0; i < n; i++ {
			l := rest
			if i < n-1 {
				l = (total-1)/n + n - i
			}
			rest -= l
			b.Dict = append(b.Dict, termI(long[:l]))
			b.Cols[0] = append(b.Cols[0], int32(i))
		}
		b.rows = n
		return b
	}
	atCap, err := NewFrame(batch(wire.MaxStrings))
	if err != nil {
		t.Fatalf("batch at the cap: %v", err)
	}
	if atCap.nbytes != wire.MaxStrings {
		t.Fatalf("batch at the cap has %d string bytes", atCap.nbytes)
	}
	if _, err := NewFrame(batch(wire.MaxStrings + 1)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("batch over the cap: got %v, want ErrFrameTooLarge", err)
	}
	if _, err := AppendBatch(nil, batch(wire.MaxStrings+1)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("AppendBatch over the cap: got %v, want ErrFrameTooLarge", err)
	}
}

// rawFrame assembles a frame by hand: the magic, the string byte total,
// then body verbatim.
func rawFrame(nbytes uint64, body ...byte) []byte {
	return append(binary.AppendUvarint([]byte{batchMagic}, nbytes), body...)
}

// The hand-built frames below share one schema: variable X, a two-entry
// dictionary and two rows.
var (
	rawVars = []byte{1, 1, 'X', 2}
	rawRows = []byte{2, 1, 2}
)

func rawDict(entries ...byte) []byte {
	return append(append(append([]byte{}, rawVars...), entries...), rawRows...)
}

func TestCodecRejectsCorruptFrames(t *testing.T) {
	// X; "ab", "ac" (shares "a"); rows 0, 1.
	good := rawFrame(5, rawDict(0, 0, 2, 'a', 'b', 0, 1, 1, 'c')...)
	if b, err := DecodeBatch(good); err != nil || b.Dict[1].Value != "ac" || !bytes.Equal(encode(t, b), good) {
		t.Fatalf("hand-built frame: %v, %v", b, err)
	}
	oneTerm := encode(t, BatchOf(rsOf([]string{"X"}, Row{"X": termI("a")})))
	cases := []struct {
		name  string
		frame []byte
		want  error
	}{
		{"nil", nil, wire.ErrMalformed},
		{"empty", []byte{}, wire.ErrMalformed},
		{"wrong magic", []byte{0x00}, errMagic},
		{"magic only", good[:1], wire.ErrMalformed},
		{"truncated tail", good[:len(good)-1], wire.ErrMalformed},
		{"trailing byte", append(append([]byte{}, good...), 0xFF), wire.ErrMalformed},
		{"huge var count", rawFrame(0, 0xFF, 0xFF, 0xFF, 0xFF, 0x07), wire.ErrMalformed},
		{"non-minimal uvarint", rawFrame(5, append([]byte{0x81, 0x00}, rawDict(0, 0, 2, 'a', 'b', 0, 1, 1, 'c')[1:]...)...), wire.ErrMalformed},
		{"id out of range", append(oneTerm[:len(oneTerm)-1:len(oneTerm)-1], 0x09), errID},
		{"prefix past previous term", rawFrame(6, rawDict(0, 0, 2, 'a', 'b', 0, 3, 1, 'c')...), errShared},
		{"first entry shares a prefix", rawFrame(5, rawDict(0, 1, 2, 'a', 'b', 0, 1, 1, 'c')...), errShared},
		{"prefix not maximal", rawFrame(5, rawDict(0, 0, 2, 'a', 'b', 0, 0, 2, 'a', 'c')...), errMaximal},
		{"flag with empty datatype", rawFrame(5, rawDict(0x81, 0, 2, 'a', 'b', 0, 0, 1, 1, 'c')...), errNoType},
		{"kind above blank", rawFrame(5, rawDict(3, 0, 2, 'a', 'b', 0, 1, 1, 'c')...), errKind},
		{"byte total too high", rawFrame(6, rawDict(0, 0, 2, 'a', 'b', 0, 1, 1, 'c')...), errBytes},
		{"byte total too low", rawFrame(4, rawDict(0, 0, 2, 'a', 'b', 0, 1, 1, 'c')...), errBytes},
		{"byte total above cap", rawFrame(wire.MaxStrings+1, bytes.Repeat([]byte{0}, 1<<14)...), errBytes},
		{"byte total past what the frame can hold", rawFrame(1<<20, rawDict(0, 0, 2, 'a', 'b', 0, 1, 1, 'c')...), errBytes},
	}
	for _, c := range cases {
		_, err := DecodeBatch(c.frame)
		if err == nil {
			t.Errorf("%s: decoded without error", c.name)
			continue
		}
		if !errors.Is(err, c.want) {
			t.Errorf("%s: got %v, want %v", c.name, err, c.want)
		}
	}
}

// TestDecodeBatchAllocs pins DecodeBatch's allocation count: every
// decoded string slices one per-frame string, so a frame costs the same
// number of allocations whatever the size of its dictionary.
func TestDecodeBatchAllocs(t *testing.T) {
	allocs := func(terms int) float64 {
		b := NewBatch("X", "Y")
		for i := 0; i < terms; i++ {
			b.Dict = append(b.Dict, termI(fmt.Sprintf("http://ics.forth.gr/data/syn#r_%d", i)))
			if i%3 == 0 {
				b.Dict = append(b.Dict, rdf.NewTypedLiteral(fmt.Sprint(i), rdf.XSDInteger))
			}
		}
		for i := range b.Dict {
			b.Cols[0] = append(b.Cols[0], int32(i))
			b.Cols[1] = append(b.Cols[1], int32(len(b.Dict)-1-i))
		}
		b.rows = len(b.Dict)
		frame := encode(t, b)
		return testing.AllocsPerRun(20, func() {
			if _, err := DecodeBatch(frame); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(10), allocs(1000)
	if small != large {
		t.Fatalf("DecodeBatch allocates %v times for 10 terms, %v for 1000", small, large)
	}
}

// FuzzBatchCodec checks three properties: decoding never panics on
// arbitrary input, any frame that decodes re-encodes to the same bytes
// (the codec is canonical, and WireLen sizes it exactly), and it
// survives the ResultSet facade round trip as the same relation.
func FuzzBatchCodec(f *testing.F) {
	seeds := []*ResultSet{
		NewResultSet(),
		rsOf([]string{"V0"}, Row{"V0": termI("x")}),
		rsOf([]string{"V0", "V1"},
			Row{"V0": termI("x"), "V1": rdf.NewLiteral("ünïcode ✓")},
			Row{"V1": rdf.NewTypedLiteral("1", rdf.XSDInteger)},
			Row{},
		),
		rsOf([]string{"X"},
			Row{"X": termI("http://ics.forth.gr/data/syn#r_3_1234")},
			Row{"X": termI("http://ics.forth.gr/data/syn#r_3_1235")},
			Row{"X": termI("http://ics.forth.gr/data/syn#r_4")},
			Row{"X": termI("http://ics.forth.gr/data/syn#")},
		),
	}
	for _, rs := range seeds {
		f.Add(encode(f, BatchOf(rs)))
	}
	f.Add([]byte{batchMagic})
	f.Add(rawFrame(2, 0x02, 0x01, 'X', 0x01, 'Y'))
	// One seed per decoder rejection.
	f.Add(rawFrame(6, rawDict(0, 0, 2, 'a', 'b', 0, 3, 1, 'c')...))
	f.Add(rawFrame(5, rawDict(0, 0, 2, 'a', 'b', 0, 0, 2, 'a', 'c')...))
	f.Add(rawFrame(5, rawDict(0x81, 0, 2, 'a', 'b', 0, 0, 1, 1, 'c')...))
	f.Add(rawFrame(5, rawDict(3, 0, 2, 'a', 'b', 0, 1, 1, 'c')...))
	f.Add(rawFrame(6, rawDict(0, 0, 2, 'a', 'b', 0, 1, 1, 'c')...))
	f.Add(rawFrame(wire.MaxStrings+1, rawDict(0, 0, 2, 'a', 'b', 0, 1, 1, 'c')...))
	// Mirror frames: a whole scan from offset 0, and its tail continuing
	// fuzzMirrorPrev.
	scan := mirrorScan(f, 6)
	for _, lo := range []int{0, 5} {
		prev := ""
		if lo > 0 {
			prev = fuzzMirrorPrev
		}
		m := &Mirror{Stamp: 42, Offset: lo, Entries: scan.Dict[lo:]}
		fr, err := NewMirrorFrame(scan, 0, scan.Len(), m, prev)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(fr.AppendWire(nil))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzMirror(t, data)
		b, err := DecodeBatch(data)
		if err != nil {
			return
		}
		// Canonical: the decoded batch encodes back to the input, and
		// WireLen, which sizes every Results body, is exact.
		if enc := encode(t, b); !bytes.Equal(enc, data) {
			t.Fatalf("frame %x re-encodes as %x", data, enc)
		}
		if n := newFrame(t, b).WireLen(); n != len(data) {
			t.Fatalf("WireLen %d, frame is %d bytes", n, len(data))
		}
		// Whatever decoded must survive the facade round trip.
		rs := b.ResultSet()
		if rs.Len() != b.Len() {
			t.Fatalf("facade lost rows: %d vs %d", rs.Len(), b.Len())
		}
		b2, err := DecodeBatch(encode(t, BatchOf(rs)))
		if err != nil {
			t.Fatalf("re-encode failed to decode: %v", err)
		}
		got, want := b2.ResultSet().Sorted(), rs.Sorted()
		if len(got) != len(want) {
			t.Fatalf("re-encode changed cardinality: %d vs %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("re-encode changed row %d: %q vs %q", i, got[i], want[i])
			}
		}
	})
}

// mirrorScan is a scan, in base ids, that references every entry of its
// base's dictionary but the property: n chains x_i p1 y_i.
func mirrorScan(t testing.TB, n int) *Batch {
	t.Helper()
	base := rdf.NewBase()
	for i := 0; i < n; i++ {
		base.Add(rdf.Statement(rdf.IRI(fmt.Sprintf("http://d/a#x%d", i)), "http://d/p#p1", rdf.IRI(fmt.Sprintf("http://d/b#y%d", i))))
	}
	return scanProp(base, "http://d/p#p1")
}

// scanProp is a one-pattern scan of property p over base, in base ids.
func scanProp(base *rdf.Base, p rdf.IRI) *Batch {
	xs, ys, terms := base.PairIDs(p, nil)
	b := NewBatch("X", "Y")
	b.Cols[0], b.Cols[1], b.rows = xs, ys, len(xs)
	b.space, b.Dict = base, terms
	return b
}

// A base-id batch shipped as mirror frames in pieces (entries [0, k) with
// the first frame, [k, end) with a later one, each continuing the entry
// before it) and read back through one table onto a store is the
// relation it was. Each frame re-encodes to its bytes.
func TestMirrorFramesRoundTrip(t *testing.T) {
	b := mirrorScan(t, 20)
	store := NewTermStore()
	var table []int32
	end := len(b.Dict)
	var got []*Batch
	for _, cut := range [][4]int{{0, 15, 0, 7}, {15, end, 7, 20}} {
		lo, hi, start, stop := cut[0], cut[1], cut[2], cut[3]
		m := &Mirror{Stamp: 1 << 60, Offset: lo, Entries: b.Dict[lo:hi]}
		prev := ""
		if lo > 0 {
			prev = b.Dict[lo-1].Value
		}
		f, err := NewMirrorFrame(b, start, stop, m, prev)
		if err != nil {
			t.Fatal(err)
		}
		enc := f.AppendWire(nil)
		if len(enc) != f.WireLen() {
			t.Fatalf("WireLen %d, frame is %d bytes", f.WireLen(), len(enc))
		}
		stamp, off, ok := PeekMirror(enc)
		if !ok || stamp != m.Stamp || off != lo {
			t.Fatalf("PeekMirror = %d, %d, %v", stamp, off, ok)
		}
		peerPrev := ""
		if off > 0 {
			peerPrev = store.Term(table[off-1]).Value
		}
		dec, dm, err := DecodeMirror(enc, peerPrev)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if re, _ := NewMirrorFrame(dec, 0, dec.Len(), dm, peerPrev); !bytes.Equal(re.AppendWire(nil), enc) {
			t.Fatal("mirror frame re-encodes differently")
		}
		table = store.Intern(table, dm.Entries[len(table)-dm.Offset:])
		got = append(got, dec.Translate(store, table))
	}
	sortedEqual(t, "mirror round trip", Concat(got...).ResultSet(), b.ResultSet())
}

// DecodeMirror rejects a hostile offset, entry count or id without an
// allocation sized by the value it claims: at most the handful of fixed
// allocations a frame's header costs.
func TestDecodeMirrorRejectsHostileCounts(t *testing.T) {
	b := mirrorScan(t, 4)
	f, err := NewMirrorFrame(b, 0, b.Len(), &Mirror{Stamp: 7, Offset: 3, Entries: b.Dict[3:]}, b.Dict[2].Value)
	if err != nil {
		t.Fatal(err)
	}
	good := f.AppendWire(nil)
	if _, _, err := DecodeMirror(good, b.Dict[2].Value); err != nil {
		t.Fatalf("good frame: %v", err)
	}
	head := func(offset uint64) []byte {
		return binary.AppendUvarint(binary.BigEndian.AppendUint64([]byte{mirrorMagic}, 7), offset)
	}
	// The good frame's body after its header, with the offset 3 (one byte).
	body := good[len(head(3)):]
	cases := []struct {
		name  string
		frame []byte
	}{
		{"offset past int32", append(head(1<<40), body...)},
		{"offset plus entries past int32", append(head(1<<31-2), body...)},
		{"huge entry count", append(head(3), 0, 1, 1, 'X', 0xFF, 0xFF, 0xFF, 0xFF, 0x0F)},
		{"id past the entries", append(head(0), 0, 1, 1, 'X', 0, 1, 9)},
		{"huge row count", append(head(0), 0, 1, 1, 'X', 0, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F)},
	}
	for _, c := range cases {
		var err error
		allocs := testing.AllocsPerRun(10, func() { _, _, err = DecodeMirror(c.frame, b.Dict[2].Value) })
		if err == nil {
			t.Errorf("%s: decoded", c.name)
		}
		if allocs > 5 {
			t.Errorf("%s: %v allocations to reject", c.name, allocs)
		}
	}
}

// fuzzMirrorPrev is the base entry a fuzzed mirror frame at a positive
// offset continues.
const fuzzMirrorPrev = "http://d/a#x4"

// fuzzMirror decodes data as a mirror frame continuing fuzzMirrorPrev: a
// frame that decodes must re-encode to itself at its exact WireLen,
// every id it holds must index its entries, and it must read back
// through a table onto a store.
func fuzzMirror(t *testing.T, data []byte) {
	b, m, err := DecodeMirror(data, fuzzMirrorPrev)
	if err != nil {
		return
	}
	prev := ""
	if m.Offset > 0 {
		prev = fuzzMirrorPrev
	}
	f, err := NewMirrorFrame(b, 0, b.Len(), m, prev)
	if err != nil {
		t.Fatalf("decoded mirror frame does not re-encode: %v", err)
	}
	if enc := f.AppendWire(nil); !bytes.Equal(enc, data) || f.WireLen() != len(data) {
		t.Fatalf("mirror frame %x re-encodes as %x (WireLen %d)", data, enc, f.WireLen())
	}
	// The receiver holds the base's first Offset entries; stand them in
	// by one term, since only the shipped entries' ids are checked.
	end := m.Offset + len(m.Entries)
	for _, col := range b.Cols {
		for _, id := range col {
			if id >= int32(end) {
				t.Fatalf("id %d past the %d entries the frame covers", id, end)
			}
		}
	}
	if end > 1<<16 {
		return // keep the table small
	}
	store := NewTermStore()
	var table []int32
	for len(table) < m.Offset {
		table = store.Intern(table, []rdf.Term{termI(fuzzMirrorPrev)})
	}
	table = store.Intern(table, m.Entries)
	ids := make([][]int32, len(b.Cols))
	for c, col := range b.Cols {
		ids[c] = slices.Clone(col)
	}
	got := b.Translate(store, table)
	for c, col := range ids {
		for r, id := range col {
			if id < int32(m.Offset) {
				continue
			}
			if term, want := got.Dict[got.Cols[c][r]], m.Entries[id-int32(m.Offset)]; term != want {
				t.Fatalf("row %d column %d = %v, entry %v", r, c, term, want)
			}
		}
	}
}
