package rql

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"strings"

	"sqpeer/internal/rdf"
)

// Row is one result tuple: a binding of variable names to terms. Rows are
// the unit of data flowing through distributed plans and channels.
type Row map[string]rdf.Term

// Clone returns an independent copy of the row.
func (r Row) Clone() Row {
	c := make(Row, len(r))
	for k, v := range r {
		c[k] = v
	}
	return c
}

// Compatible reports whether two rows agree on every shared variable —
// the natural-join condition.
func (r Row) Compatible(other Row) bool {
	for k, v := range r {
		if ov, ok := other[k]; ok && ov != v {
			return false
		}
	}
	return true
}

// Merge returns the union of two compatible rows.
func (r Row) Merge(other Row) Row {
	m := r.Clone()
	for k, v := range other {
		m[k] = v
	}
	return m
}

// key canonicalizes the row for deduplication.
func (r Row) key(vars []string) string {
	return string(appendRowKey(nil, r, vars))
}

// appendTermKey appends an injective byte encoding of t — kind byte plus
// length-prefixed value and datatype — so concatenated terms form an
// unambiguous key without rendering strings.
func appendTermKey(dst []byte, t rdf.Term) []byte {
	dst = append(dst, byte(t.Kind))
	dst = binary.AppendUvarint(dst, uint64(len(t.Value)))
	dst = append(dst, t.Value...)
	dst = binary.AppendUvarint(dst, uint64(len(t.Datatype)))
	dst = append(dst, string(t.Datatype)...)
	return dst
}

// appendRowKey appends r's dedup key over vars into dst, which the set
// operators reuse across rows: a map lookup with string(dst) does not
// allocate, so a key string is only materialized per unique row on insert.
// A variable missing from r keys as the zero Term, exactly as it did when
// keys rendered Term.String (where both print "<>").
func appendRowKey(dst []byte, r Row, vars []string) []byte {
	for _, v := range vars {
		dst = appendTermKey(dst, r[v])
	}
	return dst
}

// ResultSet is an ordered collection of rows over a fixed variable list.
type ResultSet struct {
	// Vars is the variable schema of the rows, in presentation order.
	Vars []string `json:"vars"`
	// Rows are the result tuples.
	Rows []Row `json:"rows"`
}

// NewResultSet returns an empty result set over the variables.
func NewResultSet(vars ...string) *ResultSet {
	return &ResultSet{Vars: vars}
}

// Len returns the number of rows.
func (rs *ResultSet) Len() int {
	if rs == nil {
		return 0
	}
	return len(rs.Rows)
}

// Add appends a row.
func (rs *ResultSet) Add(r Row) { rs.Rows = append(rs.Rows, r) }

// Union merges another result set into this one, deduplicating rows over
// the union of the variable schemas. It implements the ∪ of horizontal
// distribution: the same logical tuple arriving from several peers appears
// once.
func (rs *ResultSet) Union(other *ResultSet) *ResultSet {
	vars := mergeVars(rs.Vars, other.Vars)
	out := NewResultSet(vars...)
	seen := make(map[string]bool, rs.Len()+other.Len())
	var key []byte
	for _, src := range []*ResultSet{rs, other} {
		if src == nil {
			continue
		}
		for _, r := range src.Rows {
			key = appendRowKey(key[:0], r, vars)
			if seen[string(key)] {
				continue
			}
			seen[string(key)] = true
			out.Add(r)
		}
	}
	return out
}

// Join natural-joins two result sets on their shared variables (the ⋈ of
// vertical distribution), hash-joining on the shared-variable key.
func (rs *ResultSet) Join(other *ResultSet) *ResultSet {
	shared := sharedVars(rs.Vars, other.Vars)
	vars := mergeVars(rs.Vars, other.Vars)
	out := NewResultSet(vars...)
	if rs.Len() == 0 || other.Len() == 0 {
		return out
	}
	// Build on the smaller side.
	build, probe := rs, other
	if probe.Len() < build.Len() {
		build, probe = probe, build
	}
	idx := make(map[string][]Row, build.Len())
	var key []byte
	for _, r := range build.Rows {
		// Compute the shared-variable key once per build row; the string
		// is only allocated when the key is new.
		key = appendRowKey(key[:0], r, shared)
		if rows, ok := idx[string(key)]; ok {
			idx[string(key)] = append(rows, r)
		} else {
			idx[string(key)] = []Row{r}
		}
	}
	seen := make(map[string]bool, probe.Len())
	var rowKey []byte
	for _, r := range probe.Rows {
		key = appendRowKey(key[:0], r, shared)
		for _, b := range idx[string(key)] {
			if r.Compatible(b) {
				m := r.Merge(b)
				rowKey = appendRowKey(rowKey[:0], m, vars)
				if seen[string(rowKey)] {
					continue
				}
				seen[string(rowKey)] = true
				out.Add(m)
			}
		}
	}
	return out
}

// Project restricts rows to the given variables, deduplicating.
func (rs *ResultSet) Project(vars []string) *ResultSet {
	out := NewResultSet(vars...)
	seen := make(map[string]bool, rs.Len())
	var key []byte
	for _, r := range rs.Rows {
		p := make(Row, len(vars))
		for _, v := range vars {
			if t, ok := r[v]; ok {
				p[v] = t
			}
		}
		key = appendRowKey(key[:0], p, vars)
		if seen[string(key)] {
			continue
		}
		seen[string(key)] = true
		out.Add(p)
	}
	return out
}

// Distinct deduplicates rows in place over the set's own variables.
func (rs *ResultSet) Distinct() *ResultSet {
	return rs.Project(rs.Vars)
}

// Limit returns a result set with at most n rows (0 means no limit),
// implementing the Top-N completeness/load trade-off of the paper's
// future work.
func (rs *ResultSet) Limit(n int) *ResultSet {
	if n <= 0 || rs.Len() <= n {
		return rs
	}
	out := NewResultSet(rs.Vars...)
	out.Rows = append(out.Rows, rs.Rows[:n]...)
	return out
}

// Sorted returns the rows rendered and sorted lexicographically; tests use
// it for stable comparisons.
func (rs *ResultSet) Sorted() []string {
	out := make([]string, 0, len(rs.Rows))
	for _, r := range rs.Rows {
		parts := make([]string, len(rs.Vars))
		for i, v := range rs.Vars {
			parts[i] = fmt.Sprintf("%s=%s", v, r[v])
		}
		out = append(out, strings.Join(parts, " "))
	}
	sort.Strings(out)
	return out
}

// String renders the result set as a small table.
func (rs *ResultSet) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (%d rows)\n", strings.Join(rs.Vars, "\t"), rs.Len())
	for _, line := range rs.Sorted() {
		b.WriteString(line)
		b.WriteByte('\n')
	}
	return b.String()
}

// EstimatedBytes approximates the wire size of the result set, used by the
// network simulator to charge transfer cost for result packets.
func (rs *ResultSet) EstimatedBytes() int {
	if rs == nil {
		return 0
	}
	n := 0
	for _, r := range rs.Rows {
		for k, v := range r {
			n += len(k) + len(v.Value) + 8
		}
	}
	return n
}

// mergeVars returns a's variables followed by those of b it lacks.
// Schemas hold a handful of variables, so scans beat building maps.
func mergeVars(a, b []string) []string {
	out := append([]string{}, a...)
	for _, v := range b {
		if !slices.Contains(out, v) {
			out = append(out, v)
		}
	}
	return out
}

// sharedVars returns b's variables that a also names, in b's order.
func sharedVars(a, b []string) []string {
	var out []string
	for _, v := range b {
		if slices.Contains(a, v) {
			out = append(out, v)
		}
	}
	return out
}
