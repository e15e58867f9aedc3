// Package jsonrow forbids JSON (de)serialization of row-carrying types
// on the data plane. Since the columnar rewrite, result rows travel as
// length-prefixed binary batch frames (rql.AppendBatch / rql.DecodeBatch)
// inside channel packets; a stray json.Marshal of an rql.ResultSet, Row
// or Batch in internal/exec, internal/channel or internal/overlay
// silently reintroduces the per-row allocation storm the batch plane
// removed. Control bodies (PlanChange, Stats, trace records, the packet
// envelope itself) stay JSON — they carry no rows, so the analyzer does
// not match them. No legitimate row-JSON site remains on the data plane:
// every path that ships result rows uses batch frames, so a finding here
// is a bug to fix, not a site to allowlist.
package jsonrow

import (
	"go/ast"
	"go/types"

	"sqpeer/internal/lint/analysis"
)

// rowTypes are the rql types whose presence anywhere in a value's type
// makes JSON-encoding it a data-plane violation.
var rowTypes = map[string]bool{
	"Row":       true,
	"ResultSet": true,
	"Batch":     true,
}

// Analyzer flags row-carrying JSON; see the package comment.
var Analyzer = &analysis.Analyzer{
	Name: "jsonrow",
	Doc:  "forbid json.Marshal/Unmarshal of row-carrying rql types (ResultSet, Row, Batch) on the data plane; rows travel as binary batch frames",
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
			if name := rowTypeIn(pass.TypesInfo.TypeOf(arg), map[types.Type]bool{}, 0); name != "" {
				pass.Reportf(call.Pos(),
					"json.%s of row-carrying type rql.%s: data-plane rows travel as binary batch frames (rql.AppendBatch/DecodeBatch); JSON is for control packets only",
					fn.Name(), name)
			}
			return true
		})
	}
	return nil, nil
}

// maxDepth bounds the structural walk: row types sit at most a few
// levels down any realistic wire body (pointer → struct → slice → type).
const maxDepth = 6

// rowTypeIn walks t's structure looking for a named rql row type,
// returning its name or "". The walk dereferences pointers, slices,
// arrays, maps and struct fields; the seen set makes recursive types
// terminate.
func rowTypeIn(t types.Type, seen map[types.Type]bool, depth int) string {
	if t == nil || depth > maxDepth || seen[t] {
		return ""
	}
	seen[t] = true
	switch v := t.(type) {
	case *types.Named:
		if obj := v.Obj(); obj != nil && obj.Pkg() != nil &&
			analysis.PkgPathTail(obj.Pkg().Path(), "rql") && rowTypes[obj.Name()] {
			return obj.Name()
		}
		return rowTypeIn(v.Underlying(), seen, depth+1)
	case *types.Pointer:
		return rowTypeIn(v.Elem(), seen, depth+1)
	case *types.Slice:
		return rowTypeIn(v.Elem(), seen, depth+1)
	case *types.Array:
		return rowTypeIn(v.Elem(), seen, depth+1)
	case *types.Map:
		if name := rowTypeIn(v.Key(), seen, depth+1); name != "" {
			return name
		}
		return rowTypeIn(v.Elem(), seen, depth+1)
	case *types.Struct:
		for i := 0; i < v.NumFields(); i++ {
			if name := rowTypeIn(v.Field(i).Type(), seen, depth+1); name != "" {
				return name
			}
		}
	}
	return ""
}
