// Package jsonrow keeps encoding/json off the query path. Result rows
// travel as length-prefixed binary batch frames (rql.AppendBatch /
// rql.DecodeBatch), and the frames ride channel packets and subplan
// requests whose envelopes are a fixed binary header plus raw bytes
// (channel.AppendPacket / DecodePacket, AppendSubplan / DecodeSubplan).
// A json.Marshal or Unmarshal of an rql.ResultSet, Row or Batch, or of a
// channel.Packet or channel.SubplanRequest, anywhere in the code
// silently reintroduces the per-row allocation storm or the base64
// envelope the binary plane removed.
//
// The per-query control bodies are binary too: the routing request and
// its annotated reply (pattern.MarshalQuery / MarshalAnnotated), the
// plan inside a subplan request (plan.Marshal), the plan-change ack
// (channel.AppendPlanChange) and the per-site statistics payload
// (stats.MarshalPeerStats). JSON of a pattern.QueryPattern,
// pattern.Annotated or stats.PeerStats is flagged when the encoded value
// is one of them (through pointers, slices, arrays and maps), not when
// one sits in a field of a larger struct: an advertisement carries its
// peer's statistics by design, and advertisements are set-up traffic
// that stays JSON. So do the trace records that ride final packets off
// the happy path.
// No legitimate site remains: a finding here is a bug to fix, not a site
// to allowlist.
package jsonrow

import (
	"go/ast"
	"go/types"
	"path"

	"sqpeer/internal/lint/analysis"
)

// planeTypes are the types, by package path tail, whose presence anywhere
// in a value's type makes JSON-encoding it a data-plane violation: the
// rql row types and the channel envelopes.
var planeTypes = map[string]map[string]bool{
	"rql":     {"Row": true, "ResultSet": true, "Batch": true},
	"channel": {"Packet": true, "SubplanRequest": true},
}

// bodyTypes are the query-path bodies with a binary codec, by package
// path tail; JSON-encoding a value of one of them is a violation.
var bodyTypes = map[string]map[string]bool{
	"pattern": {"QueryPattern": true, "Annotated": true},
	"stats":   {"PeerStats": true},
}

// Analyzer flags query-path JSON; see the package comment.
var Analyzer = &analysis.Analyzer{
	Name: "jsonrow",
	Doc:  "forbid json.Marshal/Unmarshal of row-carrying rql types (ResultSet, Row, Batch), channel envelopes (Packet, SubplanRequest) and query-path bodies (pattern.QueryPattern, pattern.Annotated, stats.PeerStats); the query path is binary",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := analysis.FuncOf(pass.TypesInfo, call.Fun)
			if !analysis.PkgFunc(fn, "encoding/json") {
				return true
			}
			var arg ast.Expr
			switch fn.Name() {
			case "Marshal", "MarshalIndent":
				if len(call.Args) > 0 {
					arg = call.Args[0]
				}
			case "Unmarshal":
				if len(call.Args) > 1 {
					arg = call.Args[1]
				}
			}
			if arg == nil {
				return true
			}
			t := pass.TypesInfo.TypeOf(arg)
			switch pkg, name := planeTypeIn(t, map[types.Type]bool{}, 0); pkg {
			case "rql":
				pass.Reportf(call.Pos(),
					"json.%s of row-carrying type rql.%s: data-plane rows travel as binary batch frames (rql.AppendBatch/DecodeBatch); JSON is for control packets only",
					fn.Name(), name)
			case "channel":
				pass.Reportf(call.Pos(),
					"json.%s of data-plane envelope channel.%s: packets and subplan requests travel as a binary header plus raw bytes (channel.AppendPacket/AppendSubplan and their decoders)",
					fn.Name(), name)
			default:
				if bpkg, bname := bodyTypeOf(t, 0); bpkg != "" {
					pass.Reportf(call.Pos(),
						"json.%s of query-path body %s.%s: routing requests and replies, plans and statistics payloads travel as binary codecs (pattern.MarshalQuery/MarshalAnnotated, plan.Marshal, stats.MarshalPeerStats)",
						fn.Name(), bpkg, bname)
				}
			}
			return true
		})
	}
	return nil, nil
}

// maxDepth bounds the structural walk: plane types sit at most a few
// levels down any realistic wire body (pointer → struct → slice → type).
const maxDepth = 6

// planeTypeIn walks t's structure looking for a named data-plane type,
// returning its package tail and name, or "", "". The walk dereferences
// pointers, slices, arrays, maps and struct fields; the seen set makes
// recursive types terminate.
func planeTypeIn(t types.Type, seen map[types.Type]bool, depth int) (string, string) {
	if t == nil || depth > maxDepth || seen[t] {
		return "", ""
	}
	seen[t] = true
	switch v := t.(type) {
	case *types.Named:
		if obj := v.Obj(); obj != nil && obj.Pkg() != nil {
			// The last path element: sqpeer/internal/rql and a fixture's
			// bare "rql" both match.
			if pkg := path.Base(obj.Pkg().Path()); planeTypes[pkg][obj.Name()] {
				return pkg, obj.Name()
			}
		}
		return planeTypeIn(v.Underlying(), seen, depth+1)
	case *types.Pointer:
		return planeTypeIn(v.Elem(), seen, depth+1)
	case *types.Slice:
		return planeTypeIn(v.Elem(), seen, depth+1)
	case *types.Array:
		return planeTypeIn(v.Elem(), seen, depth+1)
	case *types.Map:
		if pkg, name := planeTypeIn(v.Key(), seen, depth+1); pkg != "" {
			return pkg, name
		}
		return planeTypeIn(v.Elem(), seen, depth+1)
	case *types.Struct:
		for i := 0; i < v.NumFields(); i++ {
			if pkg, name := planeTypeIn(v.Field(i).Type(), seen, depth+1); pkg != "" {
				return pkg, name
			}
		}
	}
	return "", ""
}

// bodyTypeOf reports the query-path body type t is, looking through
// pointers, slices, arrays and map values but not into struct fields.
func bodyTypeOf(t types.Type, depth int) (string, string) {
	if t == nil || depth > maxDepth {
		return "", ""
	}
	switch v := t.(type) {
	case *types.Named:
		if obj := v.Obj(); obj != nil && obj.Pkg() != nil {
			if pkg := path.Base(obj.Pkg().Path()); bodyTypes[pkg][obj.Name()] {
				return pkg, obj.Name()
			}
		}
		if _, ok := v.Underlying().(*types.Struct); ok {
			return "", ""
		}
		return bodyTypeOf(v.Underlying(), depth+1)
	case *types.Pointer:
		return bodyTypeOf(v.Elem(), depth+1)
	case *types.Slice:
		return bodyTypeOf(v.Elem(), depth+1)
	case *types.Array:
		return bodyTypeOf(v.Elem(), depth+1)
	case *types.Map:
		return bodyTypeOf(v.Elem(), depth+1)
	}
	return "", ""
}
