package plan

import (
	"fmt"

	"sqpeer/internal/pattern"
	"sqpeer/internal/wire"
)

// Binary plan body (DESIGN §12, "Wire format"), the raw body of an
// exec.subplan request. It is a wire.Encode body, so every string is a
// reference into the body's sorted, front-coded string table, where the
// schema IRIs of a scan's path patterns share their namespace once:
//
//	plan    format (2), table, query flag (0 none, 1 a query pattern follows), root node
//	scan    1, peer, n ≥ 1, n path patterns
//	union   2, n ≥ 1, n nodes
//	join    3, n ≥ 1, n nodes
//
// Nodes decode as written: a decoded tree is the tree that was encoded,
// node for node, so a decodable body re-encodes to the same bytes.

const planFormat byte = 2

const (
	kindScan byte = 1 + iota
	kindUnion
	kindJoin
)

// MaxWireDepth bounds plan nesting on the wire. Plans the generator and
// optimizer build alternate joins and unions a few levels deep; the
// bound keeps a hostile body from recursing the decoder without limit.
// Marshal refuses a deeper plan, so both sides agree.
const MaxWireDepth = 64

var (
	errDepth = fmt.Errorf("%w: plan nested past depth %d", wire.ErrMalformed, MaxWireDepth)
	errKind  = fmt.Errorf("%w: unknown plan node kind", wire.ErrMalformed)
	errEmpty = fmt.Errorf("%w: empty plan node", wire.ErrMalformed)
	errFlag  = fmt.Errorf("%w: bad query flag", wire.ErrMalformed)
)

// Marshal serializes a plan for shipment to another peer.
func Marshal(p *Plan) ([]byte, error) {
	if p == nil || p.Root == nil {
		return nil, fmt.Errorf("plan: cannot marshal empty plan")
	}
	data, err := wire.Encode(planFormat, func(w *wire.Writer) {
		if p.Query == nil {
			w.Byte(0)
		} else {
			w.Byte(1)
			pattern.WriteQuery(w, p.Query)
		}
		writeNode(w, p.Root, 0)
	})
	if err != nil {
		return nil, fmt.Errorf("plan: marshal: %w", err)
	}
	return data, nil
}

func writeNode(w *wire.Writer, n Node, depth int) {
	if depth >= MaxWireDepth {
		w.Fail(errDepth)
		return
	}
	var kind byte
	var inputs []Node
	switch v := n.(type) {
	case *Scan:
		if len(v.Patterns) == 0 {
			w.Fail(errEmpty)
			return
		}
		w.Byte(kindScan)
		w.Str(string(v.Peer))
		w.Uv(len(v.Patterns))
		for _, pp := range v.Patterns {
			pattern.WritePath(w, pp)
		}
		return
	case *Union:
		kind, inputs = kindUnion, v.Inputs
	case *Join:
		kind, inputs = kindJoin, v.Inputs
	default:
		w.Fail(fmt.Errorf("plan: cannot serialize node type %T", n))
		return
	}
	if len(inputs) == 0 {
		w.Fail(errEmpty)
		return
	}
	w.Byte(kind)
	w.Uv(len(inputs))
	for _, in := range inputs {
		writeNode(w, in, depth+1)
	}
}

// Unmarshal parses a plan serialized by Marshal.
func Unmarshal(data []byte) (*Plan, error) {
	r := wire.NewReader(data)
	r.Format(planFormat)
	r.Table()
	p := &Plan{}
	switch r.U8() {
	case 0:
	case 1:
		p.Query = pattern.ReadQuery(&r)
	default:
		r.Fail(errFlag)
	}
	p.Root = readNode(&r, 0)
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("plan: unmarshal: %w", err)
	}
	return p, nil
}

func readNode(r *wire.Reader, depth int) Node {
	if depth >= MaxWireDepth {
		r.Fail(errDepth)
		return nil
	}
	kind := r.U8()
	if r.Err() != nil {
		return nil
	}
	switch kind {
	case kindScan:
		s := &Scan{Peer: pattern.PeerID(r.Ref())}
		n := r.Count(pattern.PathMinBytes)
		if n == 0 {
			r.Fail(errEmpty)
			return nil
		}
		s.Patterns = make([]pattern.PathPattern, n)
		for i := range s.Patterns {
			s.Patterns[i] = pattern.ReadPath(r)
		}
		return s
	case kindUnion, kindJoin:
		n := r.Count(1)
		if n == 0 {
			r.Fail(errEmpty)
			return nil
		}
		inputs := make([]Node, n)
		for i := range inputs {
			if inputs[i] = readNode(r, depth+1); r.Err() != nil {
				return nil
			}
		}
		if kind == kindUnion {
			return &Union{Inputs: inputs}
		}
		return &Join{Inputs: inputs}
	default:
		r.Fail(errKind)
		return nil
	}
}
