package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// DetShare flags mutable state shared across concurrently running cells in
// deterministic packages — the exact class that makes experiment output
// depend on scheduling. The campus-scale runs execute many cells at once
// (-j workers via internal/parallel, -shards via internal/shard); any
// state two cells can both reach and at least one mutates turns worker
// or shard interleaving into observable output, and the byte-identical
// gates (-j 1 vs 8, -shards 1 vs 8) fail only when the interleaving
// happens to differ.
//
// Four rules, all scoped to deterministic packages (DeterministicPkg):
//
//  1. Writes to package-level variables (assignment, ++/--, delete, and
//     writes through a selector/index chain rooted at one) outside init
//     context. Init context is syntactic: the body of func init, a
//     package-level initializer expression, and any literal nested in
//     either.
//  2. Mutating sync/atomic calls on package-level state (method form
//     counter.Add(1) and function form atomic.AddInt64(&counter, 1)).
//     Atomics fix the *race* but not the *sharing*: a commutative counter
//     is usually benign, which is what a //lint:ignore with a reason is
//     for — the analyzer's job is to make the sharing visible at review
//     time.
//  3. go statements. Deterministic packages run under virtual time on
//     their cell's executor; a spawned goroutine is wall-clock
//     concurrency leaking into the datapath (the parallel and shard
//     layers own all legitimate concurrency).
//  4. Closures handed to a callee in package parallel (matched by package
//     name) that write variables captured from the enclosing function.
//     Writes to distinct elements keyed by a closure parameter
//     (out[i] = ... in a worker-pool body) are the legitimate idiom and
//     exempt.
//
// Known imprecision: the analyzer stops at the function boundary. Rule 1
// flags a write in a helper even when init is its only caller (move the
// write into init, or suppress with a reason); rule 4 does not see a
// closure handed to a home-made worker pool (whose go statement rule 3
// flags instead), and its element-write exemption accepts any index
// declared inside the closure.
var DetShare = &Analyzer{
	Name: "detshare",
	Doc: "flag package-level mutable state, goroutine spawns, and captured-variable writes " +
		"across goroutine boundaries in deterministic packages; shared state makes output " +
		"depend on -j/-shards interleaving",
	Run: runDetShare,
}

// atomicMutators are the sync/atomic operations that mutate (loads are
// reads; sharing them is rule-1's business only when written elsewhere).
var atomicMutators = map[string]bool{
	"Add": true, "Store": true, "Swap": true, "CompareAndSwap": true,
	"Or": true, "And": true,
}

func runDetShare(pass *Pass) error {
	if !DeterministicPkg(pass.Pkg.Path()) {
		return nil
	}
	ds := &detShareState{pass: pass}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			// Init context is skipped whole, nested literals included:
			// func init here, and package-level initializers by never
			// descending into anything that is not a FuncDecl.
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || (fd.Recv == nil && fd.Name.Name == "init") {
				continue
			}
			ast.Inspect(fd.Body, func(m ast.Node) bool {
				ds.checkNode(m)
				return true
			})
		}
	}
	return nil
}

type detShareState struct {
	pass *Pass
}

func (ds *detShareState) checkNode(m ast.Node) {
	switch x := m.(type) {
	case *ast.GoStmt:
		ds.pass.Reportf(x.Pos(),
			"go statement in a deterministic package: cells run under virtual time on their executor; spawned goroutines make event order depend on the OS scheduler (concurrency belongs to internal/parallel and internal/shard)")
	case *ast.AssignStmt:
		for _, l := range x.Lhs {
			ds.checkGlobalWrite(l)
		}
	case *ast.IncDecStmt:
		ds.checkGlobalWrite(x.X)
	case *ast.CallExpr:
		ds.checkCall(x)
	}
}

// globalRoot returns the package-level variable at the root of an
// lvalue/selector/index chain, or nil.
func (ds *detShareState) globalRoot(e ast.Expr) *types.Var {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			// A qualified identifier (pkg.Var) resolves through Sel.
			if v := asGlobalVar(ds.pass.TypesInfo.Uses[x.Sel]); v != nil {
				return v
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.Ident:
			return asGlobalVar(ds.pass.TypesInfo.ObjectOf(x))
		default:
			return nil
		}
	}
}

func asGlobalVar(obj types.Object) *types.Var {
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() || v.Pkg() == nil {
		return nil
	}
	if v.Parent() != v.Pkg().Scope() {
		return nil
	}
	return v
}

func (ds *detShareState) checkGlobalWrite(lhs ast.Expr) {
	if v := ds.globalRoot(lhs); v != nil {
		ds.pass.Reportf(lhs.Pos(),
			"write to package-level %s outside init: every concurrently running cell shares this variable, so output depends on -j/-shards interleaving; move it into per-cell state or guard the sharing deliberately (//lint:ignore with a reason)",
			v.Name())
	}
}

func (ds *detShareState) checkCall(call *ast.CallExpr) {
	info := ds.pass.TypesInfo
	// delete(globalMap, k)
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "delete" && len(call.Args) > 0 {
			ds.checkGlobalWrite(call.Args[0])
			return
		}
	}
	fn := StaticCallee(info, call)
	if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic" {
		if sig, _ := fn.Type().(*types.Signature); sig != nil && sig.Recv() != nil {
			// Method form: counter.Add(1).
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && atomicMutators[trimAtomicSuffix(fn.Name())] {
				if v := ds.globalRoot(sel.X); v != nil {
					ds.pass.Reportf(call.Pos(),
						"atomic mutation of package-level %s in a deterministic package: the atomic fixes the race, not the sharing — cells still observe each other through it; keep it out of anything that shapes output, or suppress with a reason",
						v.Name())
				}
			}
		} else if atomicMutators[trimAtomicSuffix(fn.Name())] && len(call.Args) > 0 {
			// Function form: atomic.AddInt64(&counter, 1).
			if u, ok := ast.Unparen(call.Args[0]).(*ast.UnaryExpr); ok {
				if v := ds.globalRoot(u.X); v != nil {
					ds.pass.Reportf(call.Pos(),
						"atomic mutation of package-level %s in a deterministic package: the atomic fixes the race, not the sharing — cells still observe each other through it; keep it out of anything that shapes output, or suppress with a reason",
						v.Name())
				}
			}
		}
	}
	ds.checkGoroutineBoundClosures(call, fn)
}

// StaticCallee resolves a call expression to the concrete function object
// it invokes: a package function, a concrete method, or nil for interface
// dispatch, function values, builtins, and conversions.
func StaticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				if types.IsInterface(sig.Recv().Type()) {
					return nil // dynamic dispatch
				}
			}
			return fn
		}
	}
	return nil
}

// trimAtomicSuffix maps AddInt64/StoreUint32/... onto the operation name
// so the method table covers the function forms too.
func trimAtomicSuffix(name string) string {
	for _, suffix := range []string{"Int32", "Int64", "Uint32", "Uint64", "Uintptr", "Pointer"} {
		name = strings.TrimSuffix(name, suffix)
	}
	return name
}

// checkGoroutineBoundClosures applies rule 4: a literal argument handed to
// package parallel runs on a worker goroutine and must not write captures.
func (ds *detShareState) checkGoroutineBoundClosures(call *ast.CallExpr, fn *types.Func) {
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Name() != "parallel" {
		return
	}
	for _, arg := range call.Args {
		if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
			ds.checkCapturedWrites(lit, fn.Pkg().Name()+"."+fn.Name())
		}
	}
}

func (ds *detShareState) checkCapturedWrites(lit *ast.FuncLit, via string) {
	info := ds.pass.TypesInfo
	capturedRoot := func(e ast.Expr) (*ast.Ident, types.Object) {
		for {
			switch x := ast.Unparen(e).(type) {
			case *ast.SelectorExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			case *ast.IndexExpr:
				// Element writes keyed by something the closure itself
				// declares (its worker-index parameter, typically) are
				// the per-slot output idiom: each invocation owns its
				// slot.
				ownIndex := false
				ast.Inspect(x.Index, func(m ast.Node) bool {
					id, ok := m.(*ast.Ident)
					if !ok {
						return true
					}
					if obj := info.Uses[id]; obj != nil &&
						obj.Pos() >= lit.Pos() && obj.Pos() < lit.End() {
						ownIndex = true
						return false
					}
					return true
				})
				if ownIndex {
					return nil, nil
				}
				e = x.X
			case *ast.Ident:
				obj := info.ObjectOf(x)
				if obj == nil || x.Name == "_" {
					return nil, nil
				}
				if asGlobalVar(obj) != nil {
					return nil, nil // rule 1 owns globals
				}
				if obj.Pos() >= lit.Pos() && obj.Pos() < lit.End() {
					return nil, nil // closure-local
				}
				return x, obj
			default:
				return nil, nil
			}
		}
	}
	ast.Inspect(lit.Body, func(m ast.Node) bool {
		switch x := m.(type) {
		case *ast.AssignStmt:
			for _, l := range x.Lhs {
				if id, _ := capturedRoot(l); id != nil {
					ds.pass.Reportf(id.Pos(),
						"closure handed to %s runs on another goroutine but writes captured %s: concurrent cells race on it and output depends on worker interleaving; write into a per-invocation slot instead",
						via, id.Name)
				}
			}
		case *ast.IncDecStmt:
			if id, _ := capturedRoot(x.X); id != nil {
				ds.pass.Reportf(id.Pos(),
					"closure handed to %s runs on another goroutine but writes captured %s: concurrent cells race on it and output depends on worker interleaving; write into a per-invocation slot instead",
					via, id.Name)
			}
		}
		return true
	})
}
