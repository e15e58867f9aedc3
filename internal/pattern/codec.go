package pattern

import (
	"fmt"
	"sort"

	"sqpeer/internal/rdf"
	"sqpeer/internal/wire"
)

// Binary bodies of the routing round trip (DESIGN §12, "Wire format"):
// the query.route request is a query pattern, its reply an annotated
// query pattern. Both are wire.Encode bodies, so every string is a
// reference into the body's sorted, front-coded string table: the
// schema IRIs share their namespace, and the reply's peer ids their
// common prefix, once per body.
//
//	path pattern     id, subject var, object var, property, domain, range
//	query pattern    schema name, n, n path patterns, m, m projections
//	query.route      format (2), table, query pattern
//	query.route.reply format (2), table, query pattern,
//	                  n peers entries  (pattern id key, k, k peer ids),
//	                  m rewrite entries (rewrite key, k, k path patterns)
//
// Map entries are written in key order; a decoder rejects unsorted or
// duplicate keys.

const (
	queryFormat     byte = 2
	annotatedFormat byte = 2
)

// PathMinBytes is the least a path pattern takes on the wire: six
// one-byte string references. Decoders size counts of path patterns by it.
const PathMinBytes = 6

// WritePath writes a path pattern's six strings.
func WritePath(w *wire.Writer, p PathPattern) {
	w.Str(p.ID)
	w.Str(p.SubjectVar)
	w.Str(p.ObjectVar)
	w.Str(string(p.Property))
	w.Str(string(p.Domain))
	w.Str(string(p.Range))
}

// ReadPath reads a path pattern written by WritePath.
func ReadPath(r *wire.Reader) PathPattern {
	return PathPattern{ID: r.Ref(), SubjectVar: r.Ref(), ObjectVar: r.Ref(),
		Property: rdf.IRI(r.Ref()), Domain: rdf.IRI(r.Ref()), Range: rdf.IRI(r.Ref())}
}

// writePaths writes a counted list of path patterns.
func writePaths(w *wire.Writer, ps []PathPattern) {
	w.Uv(len(ps))
	for _, p := range ps {
		WritePath(w, p)
	}
}

// readPaths reads a counted list of path patterns (nil when empty).
func readPaths(r *wire.Reader) []PathPattern {
	n := r.Count(PathMinBytes)
	if n == 0 {
		return nil
	}
	out := make([]PathPattern, n)
	for i := range out {
		out[i] = ReadPath(r)
	}
	return out
}

// WriteQuery writes a query pattern.
func WriteQuery(w *wire.Writer, q *QueryPattern) {
	w.Str(q.SchemaName)
	writePaths(w, q.Patterns)
	w.Uv(len(q.Projections))
	for _, v := range q.Projections {
		w.Str(v)
	}
}

// ReadQuery reads a query pattern written by WriteQuery. Empty lists
// decode as nil.
func ReadQuery(r *wire.Reader) *QueryPattern {
	q := &QueryPattern{SchemaName: r.Ref(), Patterns: readPaths(r)}
	if n := r.Count(1); n > 0 {
		q.Projections = make([]string, n)
		for i := range q.Projections {
			q.Projections[i] = r.Ref()
		}
	}
	return q
}

// MarshalQuery encodes a query pattern as the query.route request body.
func MarshalQuery(q *QueryPattern) ([]byte, error) {
	if q == nil {
		return nil, fmt.Errorf("pattern: cannot marshal a nil query pattern")
	}
	return wire.Encode(queryFormat, func(w *wire.Writer) { WriteQuery(w, q) })
}

// UnmarshalQuery decodes a query.route request body.
func UnmarshalQuery(data []byte) (*QueryPattern, error) {
	r := wire.NewReader(data)
	r.Format(queryFormat)
	r.Table()
	q := ReadQuery(&r)
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("pattern: unmarshal query pattern: %w", err)
	}
	return q, nil
}

// sortedKeys returns m's keys in increasing order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// MarshalAnnotated encodes the annotation as the query.route reply body.
func MarshalAnnotated(a *Annotated) ([]byte, error) {
	if a == nil || a.Query == nil {
		return nil, fmt.Errorf("pattern: cannot marshal an annotation without a query")
	}
	peerKeys, rewriteKeys := sortedKeys(a.Peers), sortedKeys(a.Rewrites)
	return wire.Encode(annotatedFormat, func(w *wire.Writer) {
		WriteQuery(w, a.Query)
		w.Uv(len(peerKeys))
		for _, k := range peerKeys {
			w.Str(k)
			peers := a.Peers[k]
			w.Uv(len(peers))
			for _, p := range peers {
				w.Str(string(p))
			}
		}
		w.Uv(len(rewriteKeys))
		for _, k := range rewriteKeys {
			w.Str(k)
			writePaths(w, a.Rewrites[k])
		}
	})
}

// UnmarshalAnnotated decodes a body written by MarshalAnnotated. Peers
// and Rewrites are never nil; an entry with no peers or no rewrites
// decodes as a present key with a nil value.
func UnmarshalAnnotated(data []byte) (*Annotated, error) {
	r := wire.NewReader(data)
	r.Format(annotatedFormat)
	r.Table()
	a := &Annotated{Query: ReadQuery(&r)}
	n := r.Count(2)
	a.Peers = make(map[string][]PeerID, n)
	last := -1
	for i := 0; i < n && r.Err() == nil; i++ {
		k := r.Key(&last)
		var peers []PeerID
		if m := r.Count(1); m > 0 {
			peers = make([]PeerID, m)
			for j := range peers {
				peers[j] = PeerID(r.Ref())
			}
		}
		a.Peers[k] = peers
	}
	n = r.Count(2)
	a.Rewrites = make(map[string][]PathPattern, n)
	last = -1
	for i := 0; i < n && r.Err() == nil; i++ {
		k := r.Key(&last)
		a.Rewrites[k] = readPaths(&r)
	}
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("pattern: unmarshal annotated pattern: %w", err)
	}
	return a, nil
}
