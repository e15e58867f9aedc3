package rql

import (
	"bytes"
	"testing"

	"sqpeer/internal/rdf"
)

func TestCodecRoundTrip(t *testing.T) {
	cases := []*ResultSet{
		NewResultSet(),
		NewResultSet("X"),
		rsOf([]string{"X", "Y"},
			Row{"X": termI("http://example.org/n1#a"), "Y": termI("http://example.org/n1#b")},
			Row{"X": termI("http://example.org/n1#a")}, // unbound Y
			Row{"Y": rdf.NewTypedLiteral("42", rdf.XSDInteger)},
			Row{"X": rdf.NewBlank("b0"), "Y": rdf.NewLiteral("héllo\x00wörld — 日本語")},
		),
	}
	for i, rs := range cases {
		b := BatchOf(rs)
		buf := AppendBatch(nil, b)
		if n := b.WireLen(); n != len(buf) {
			t.Fatalf("case %d: WireLen %d, frame is %d bytes", i, n, len(buf))
		}
		if got := b.AppendWire([]byte{0xAA}); !bytes.Equal(got[1:], buf) || got[0] != 0xAA {
			t.Fatalf("case %d: AppendWire differs from AppendBatch", i)
		}
		dec, err := DecodeBatch(buf)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		sortedEqual(t, "case round-trip", dec.ResultSet(), rs)
	}
}

func TestCodecDeterministic(t *testing.T) {
	rs := rsOf([]string{"X"}, Row{"X": termI("a")}, Row{"X": termI("b")})
	a := AppendBatch(nil, BatchOf(rs))
	b := AppendBatch(nil, BatchOf(rs))
	if !bytes.Equal(a, b) {
		t.Fatal("same batch encoded to different bytes")
	}
}

func TestCodecRejectsCorruptFrames(t *testing.T) {
	good := AppendBatch(nil, BatchOf(rsOf([]string{"X", "Y"},
		Row{"X": termI("a"), "Y": termI("b")},
		Row{"X": termI("c")},
	)))
	bad := [][]byte{
		nil,
		{},
		{0x00},                                  // wrong magic
		good[:1],                                // magic only
		good[:len(good)-1],                      // truncated tail
		append(append([]byte{}, good...), 0xFF), // trailing byte
	}
	// Huge claimed counts must be rejected before allocating.
	huge := []byte{batchMagic, 0xFF, 0xFF, 0xFF, 0xFF, 0x07}
	bad = append(bad, huge)
	// Dictionary id out of range.
	b := BatchOf(rsOf([]string{"X"}, Row{"X": termI("a")}))
	enc := AppendBatch(nil, b)
	enc[len(enc)-1] = 0x09 // id 8 with a 1-term dictionary
	bad = append(bad, enc)
	for i, frame := range bad {
		if _, err := DecodeBatch(frame); err == nil {
			t.Fatalf("corrupt frame %d decoded without error", i)
		}
	}
}

// FuzzBatchCodec checks two properties: decoding never panics on arbitrary
// input, and any frame that decodes successfully re-encodes by way of the
// facade to the same logical relation.
func FuzzBatchCodec(f *testing.F) {
	seeds := []*ResultSet{
		NewResultSet(),
		rsOf([]string{"V0"}, Row{"V0": termI("x")}),
		rsOf([]string{"V0", "V1"},
			Row{"V0": termI("x"), "V1": rdf.NewLiteral("ünïcode ✓")},
			Row{"V1": rdf.NewTypedLiteral("1", rdf.XSDInteger)},
			Row{},
		),
	}
	for _, rs := range seeds {
		f.Add(AppendBatch(nil, BatchOf(rs)))
	}
	f.Add([]byte{batchMagic})
	f.Add([]byte{batchMagic, 0x02, 0x01, 'X', 0x01, 'Y'})
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := DecodeBatch(data)
		if err != nil {
			return
		}
		// WireLen sizes every Results body: it must be exact for
		// whatever decodes.
		if n, enc := b.WireLen(), AppendBatch(nil, b); n != len(enc) {
			t.Fatalf("WireLen %d, frame is %d bytes", n, len(enc))
		}
		// Whatever decoded must survive the facade round trip.
		rs := b.ResultSet()
		if rs.Len() != b.Len() {
			t.Fatalf("facade lost rows: %d vs %d", rs.Len(), b.Len())
		}
		rb := BatchOf(rs)
		re := AppendBatch(nil, rb)
		if n := rb.WireLen(); n != len(re) {
			t.Fatalf("WireLen %d, re-encoded frame is %d bytes", n, len(re))
		}
		b2, err := DecodeBatch(re)
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
