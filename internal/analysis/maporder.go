package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// MapOrder flags map iteration whose order can leak into exported output —
// the exact bug class the j=1-vs-j=8 golden tests exist to catch: Go
// randomizes map iteration order per run, so a range-over-map that prints,
// writes to an io.Writer/Encoder, or accumulates a slice that is never
// sorted produces byte-different exports between runs and worker counts.
//
// Three patterns are flagged inside `for ... range m` where m is a map:
//
//  1. calls to fmt print/format functions,
//  2. calls to methods named Write/WriteString/WriteByte/WriteRune/Encode
//     (io.Writer and encoder surfaces),
//  3. appends to a slice declared outside the loop (or returned directly),
//     unless some later call in the same function whose name contains
//     "sort" takes that slice — the collect-keys-then-sort idiom.
//
// The check stops at the function boundary: a helper called inside the
// loop that prints is not seen through, and a helper that sorts its
// argument counts for pattern 3 only if the call is sort-shaped, i.e. its
// rendered name contains "sort".
//
// Order-independent uses — copying into another map, numeric aggregation —
// are not flagged. Scope: deterministic packages plus obs (MapOrderPkg),
// whose JSONL/Chrome-trace/metrics writers are where order reaches golden
// files.
var MapOrder = &Analyzer{
	Name: "maporder",
	Doc: "flag range-over-map whose body writes output or accumulates an unsorted slice; " +
		"map order is randomized per run and corrupts deterministic exports",
	Run: runMapOrder,
}

var fmtPrintFuncs = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
	"Sprint": true, "Sprintf": true, "Sprintln": true,
}

var writerMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true,
	"WriteRune": true, "Encode": true,
}

func runMapOrder(pass *Pass) error {
	if !MapOrderPkg(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fnBody := fd.Body
			ast.Inspect(fnBody, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				if t := pass.TypesInfo.TypeOf(rs.X); t == nil {
					return true
				} else if _, isMap := t.Underlying().(*types.Map); !isMap {
					return true
				}
				checkMapRangeBody(pass, fnBody, rs)
				return true
			})
		}
	}
	return nil
}

// checkMapRangeBody inspects one range-over-map statement inside fnBody.
func checkMapRangeBody(pass *Pass, fnBody *ast.BlockStmt, rs *ast.RangeStmt) {
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.CallExpr:
			checkOutputCall(pass, s)
		case *ast.AssignStmt:
			// x = append(x, ...) / x := append(y, ...)
			for i, rhs := range s.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || !isBuiltinAppend(pass, call) || i >= len(s.Lhs) {
					continue
				}
				target := s.Lhs[i]
				if declaredWithin(pass, target, rs) {
					continue // loop-local scratch, dies each iteration
				}
				if !sortedLater(pass, fnBody, rs, target) {
					pass.Reportf(call.Pos(),
						"append to %s inside range over map accumulates elements in randomized map order; sort it afterwards (collect-then-sort) or iterate sorted keys",
						render(target))
				}
			}
		case *ast.ReturnStmt:
			for _, res := range s.Results {
				if call, ok := res.(*ast.CallExpr); ok && isBuiltinAppend(pass, call) {
					pass.Reportf(call.Pos(),
						"returning append(...) from inside range over map leaks randomized map order to the caller; collect, sort, then return")
				}
			}
		}
		return true
	})
}

// checkOutputCall flags direct output calls inside the loop body.
func checkOutputCall(pass *Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	name := sel.Sel.Name
	if fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil {
		if fn.Pkg().Path() == "fmt" && fmtPrintFuncs[name] {
			pass.Reportf(call.Pos(),
				"fmt.%s inside range over map emits output in randomized map order; iterate sorted keys instead", name)
			return
		}
	}
	// Method calls on writers/encoders: selection-based (has a receiver).
	if selinfo, ok := pass.TypesInfo.Selections[sel]; ok && selinfo.Kind() == types.MethodVal && writerMethods[name] {
		pass.Reportf(call.Pos(),
			"%s.%s inside range over map writes output in randomized map order; iterate sorted keys instead",
			render(sel.X), name)
	}
}

func isBuiltinAppend(pass *Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// declaredWithin reports whether the expression is an identifier whose
// declaration lies inside the given range statement.
func declaredWithin(pass *Pass, e ast.Expr, rs *ast.RangeStmt) bool {
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	obj := pass.TypesInfo.ObjectOf(id)
	return obj != nil && obj.Pos() >= rs.Pos() && obj.Pos() < rs.End()
}

// sortedLater reports whether, after the range statement, the enclosing
// function calls something sort-shaped with the append target among its
// arguments. Sort-shaped means the callee's name contains "sort"
// (case-insensitively: sort.Slice, sort.Strings, slices.Sort, a local
// sortStrings helper, ...).
func sortedLater(pass *Pass, fnBody *ast.BlockStmt, rs *ast.RangeStmt, target ast.Expr) bool {
	targetKey := exprKey(pass, target)
	if targetKey == "" {
		return false
	}
	argHasTarget := func(arg ast.Expr) bool {
		hit := false
		ast.Inspect(arg, func(m ast.Node) bool {
			if e, ok := m.(ast.Expr); ok && exprKey(pass, e) == targetKey {
				hit = true
				return false
			}
			return true
		})
		return hit
	}
	found := false
	ast.Inspect(fnBody, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() {
			return true
		}
		if strings.Contains(strings.ToLower(calleeName(call)), "sort") {
			for _, arg := range call.Args {
				if argHasTarget(arg) {
					found = true
					return false
				}
			}
		}
		return true
	})
	return found
}

// calleeName renders a call's function expression ("sort.Slice",
// "slices.SortFunc", "sortStrings") so sort-shaped callees can be matched
// by substring wherever the sorting lives.
func calleeName(call *ast.CallExpr) string {
	if r := render(call.Fun); r != "" {
		return r
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		return sel.Sel.Name
	}
	return ""
}

// exprKey produces a comparison key for an expression: the defining object
// for identifiers (robust against shadowing), a rendered path for selector
// chains, "" for anything unsupported.
func exprKey(pass *Pass, e ast.Expr) string {
	if id, ok := e.(*ast.Ident); ok {
		if obj := pass.TypesInfo.ObjectOf(id); obj != nil {
			return "obj:" + obj.Name() + "@" + pass.Fset.Position(obj.Pos()).String()
		}
	}
	if r := render(e); r != "" {
		return "expr:" + r
	}
	return ""
}

// render flattens an identifier / selector chain ("l.tr", "snap.Counters")
// into a string; unsupported shapes render as "".
func render(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		base := render(x.X)
		if base == "" {
			return ""
		}
		return base + "." + x.Sel.Name
	case *ast.ParenExpr:
		return render(x.X)
	}
	return ""
}
