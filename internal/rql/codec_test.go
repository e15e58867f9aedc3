package rql

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
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
	long := strings.Repeat("x", maxFrameStrings/n+2*n)
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
	atCap, err := NewFrame(batch(maxFrameStrings))
	if err != nil {
		t.Fatalf("batch at the cap: %v", err)
	}
	if atCap.nbytes != maxFrameStrings {
		t.Fatalf("batch at the cap has %d string bytes", atCap.nbytes)
	}
	if _, err := NewFrame(batch(maxFrameStrings + 1)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("batch over the cap: got %v, want ErrFrameTooLarge", err)
	}
	if _, err := AppendBatch(nil, batch(maxFrameStrings+1)); !errors.Is(err, ErrFrameTooLarge) {
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
		{"byte total above cap", rawFrame(maxFrameStrings+1, bytes.Repeat([]byte{0}, 1<<14)...), errBytes},
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
	f.Add(rawFrame(maxFrameStrings+1, rawDict(0, 0, 2, 'a', 'b', 0, 1, 1, 'c')...))
	f.Fuzz(func(t *testing.T, data []byte) {
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
