package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// PoolSafe is a flow-sensitive, per-function check for misuse of pooled
// values: reading a pooled object after Release() and releasing the same
// object twice. The pooled types are listed in pooledTypes — currently
// *netem.Packet, *packet.FeedbackBuf and *rtp.Payload — all recycled
// through sync.Pools
// shared across flows and (at -j > 1) across concurrently running
// simulations, so a stale reference aliases a future allocation — the
// resulting corruption is nondeterministic and shows up far from the bug.
//
// The analysis walks each function body in statement order, tracking local
// variables of a pooled pointer type that have been released on the current
// straight-line path:
//
//   - a use (field read, method call, argument, return) after Release on
//     the same path is reported;
//   - a second Release is reported as a double release;
//   - reassigning the variable (p = core.pop(...), a new range iteration
//     binding, p := ...) clears the released state — the codel
//     drop-from-front loop's `p.Release(); p = core.pop(now)` idiom is
//     legal;
//   - releases inside a conditional branch do not poison the code after
//     the branch (the branch may not have been taken); loop bodies are
//     walked twice so a release in iteration N poisoning iteration N+1 is
//     still caught;
//   - `defer p.Release()` is exempt: it runs after every use in the
//     function.
//
// The walk stops at the function boundary: a callee that releases its
// argument — a helper, or the next hop's Receive(p) — transfers ownership
// invisibly. A double Release across that boundary panics in
// netem.Packet.Release; a stale read across it has no gate.
var PoolSafe = &Analyzer{
	Name: "poolsafe",
	Doc: "detect use-after-Release and double-Release of pooled values " +
		"(netem.Packet, packet.FeedbackBuf, rtp.Payload) within a function; " +
		"released objects alias future pool allocations",
	Run: runPoolSafe,
}

// pooledTypes lists the pool-recycled types the analyzer tracks, as
// (package name, type name) pairs. Matching is by name so the analysistest
// fixtures, which import the real packages, behave identically. Teach the
// analyzer any newly pooled type by extending this table (and the fixture
// in testdata/src/poolsafe).
var pooledTypes = map[[2]string]bool{
	{"netem", "Packet"}:       true,
	{"packet", "FeedbackBuf"}: true,
	{"rtp", "Payload"}:        true,
}

func runPoolSafe(pass *Pass) error {
	ps := &poolState{pass: pass, reported: map[token.Pos]bool{}}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					ps.walkStmts(fn.Body.List, map[types.Object]token.Pos{})
				}
				return false // walkStmts handles nested FuncLits itself
			case *ast.FuncLit:
				ps.walkStmts(fn.Body.List, map[types.Object]token.Pos{})
				return false
			}
			return true
		})
	}
	return nil
}

type poolState struct {
	pass     *Pass
	reported map[token.Pos]bool // dedup across the double loop-body walk
}

// isPooledPtr reports whether t is a pointer to one of the pooledTypes.
func isPooledPtr(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && pooledTypes[[2]string{obj.Pkg().Name(), obj.Name()}]
}

// releaseReceiver returns the identifier a `x.Release()` call is invoked
// on, or nil if the expression is not a Release of a tracked packet ident.
func (ps *poolState) releaseReceiver(e ast.Expr) *ast.Ident {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return nil
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Release" || len(call.Args) != 0 {
		return nil
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return nil
	}
	if t := ps.pass.TypesInfo.TypeOf(sel.X); t == nil || !isPooledPtr(t) {
		return nil
	}
	return id
}

func (ps *poolState) reportf(pos token.Pos, format string, args ...any) {
	if ps.reported[pos] {
		return
	}
	ps.reported[pos] = true
	ps.pass.Reportf(pos, format, args...)
}

// findUses reports any identifier inside n that refers to a released
// packet. skip, when non-nil, exempts one specific identifier node (the
// receiver of the Release call being processed).
func (ps *poolState) findUses(n ast.Node, rel map[types.Object]token.Pos, skip *ast.Ident) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		if fl, ok := m.(*ast.FuncLit); ok {
			// Closures run at an unknowable time relative to the
			// release; analyze their bodies independently.
			ps.walkStmts(fl.Body.List, map[types.Object]token.Pos{})
			return false
		}
		id, ok := m.(*ast.Ident)
		if !ok || id == skip {
			return true
		}
		obj := ps.pass.TypesInfo.Uses[id]
		if obj == nil {
			return true
		}
		if relPos, released := rel[obj]; released {
			ps.reportf(id.Pos(),
				"use of %s after Release (released at %s); the packet may already back a concurrent allocation from the pool",
				id.Name, ps.pass.Fset.Position(relPos))
		}
		return true
	})
}

// clearAssigned removes released-state for plain identifiers assigned in
// the statement (reassignment gives the name a fresh packet).
func (ps *poolState) clearAssigned(lhs []ast.Expr, rel map[types.Object]token.Pos) {
	for _, l := range lhs {
		if id, ok := l.(*ast.Ident); ok {
			if obj := ps.pass.TypesInfo.ObjectOf(id); obj != nil {
				delete(rel, obj)
			}
		}
	}
}

func copyRel(rel map[types.Object]token.Pos) map[types.Object]token.Pos {
	c := make(map[types.Object]token.Pos, len(rel))
	for k, v := range rel {
		c[k] = v
	}
	return c
}

// walkStmts processes a statement list in order, mutating rel along the
// straight-line path.
func (ps *poolState) walkStmts(stmts []ast.Stmt, rel map[types.Object]token.Pos) {
	for _, s := range stmts {
		ps.walkStmt(s, rel)
	}
}

func (ps *poolState) walkStmt(s ast.Stmt, rel map[types.Object]token.Pos) {
	switch st := s.(type) {
	case *ast.ExprStmt:
		if recv := ps.releaseReceiver(st.X); recv != nil {
			obj := ps.pass.TypesInfo.Uses[recv]
			if obj == nil {
				return
			}
			if prev, released := rel[obj]; released {
				ps.reportf(recv.Pos(),
					"double Release of %s (first released at %s); the second call re-pools a packet another component may already own",
					recv.Name, ps.pass.Fset.Position(prev))
				return
			}
			// Arguments evaluated before the release (there are none
			// for Release, but the receiver chain could contain other
			// packets).
			ps.findUses(st.X, rel, recv)
			rel[obj] = recv.Pos()
			return
		}
		ps.findUses(st.X, rel, nil)

	case *ast.AssignStmt:
		for _, r := range st.Rhs {
			ps.findUses(r, rel, nil)
		}
		// Selector LHS (p.Size = 3) is a use of p; plain ident LHS is a
		// rebind.
		for _, l := range st.Lhs {
			if _, ok := l.(*ast.Ident); !ok {
				ps.findUses(l, rel, nil)
			}
		}
		ps.clearAssigned(st.Lhs, rel)

	case *ast.DeclStmt:
		ps.findUses(st, rel, nil)

	case *ast.IfStmt:
		if st.Init != nil {
			ps.walkStmt(st.Init, rel)
		}
		ps.findUses(st.Cond, rel, nil)
		ps.walkStmts(st.Body.List, copyRel(rel))
		if st.Else != nil {
			ps.walkStmt(st.Else, copyRel(rel))
		}

	case *ast.BlockStmt:
		ps.walkStmts(st.List, rel)

	case *ast.ForStmt:
		if st.Init != nil {
			ps.walkStmt(st.Init, rel)
		}
		ps.findUses(st.Cond, rel, nil)
		// Two passes over the body: the second catches a release in
		// iteration N reaching a use at the top of iteration N+1.
		inner := copyRel(rel)
		ps.walkStmts(st.Body.List, inner)
		if st.Post != nil {
			ps.walkStmt(st.Post, inner)
		}
		ps.walkStmts(st.Body.List, inner)

	case *ast.RangeStmt:
		ps.findUses(st.X, rel, nil)
		inner := copyRel(rel)
		// The iteration variables are rebound each pass.
		var lhs []ast.Expr
		if st.Key != nil {
			lhs = append(lhs, st.Key)
		}
		if st.Value != nil {
			lhs = append(lhs, st.Value)
		}
		ps.clearAssigned(lhs, inner)
		ps.walkStmts(st.Body.List, inner)
		ps.clearAssigned(lhs, inner)
		ps.walkStmts(st.Body.List, inner)

	case *ast.SwitchStmt:
		if st.Init != nil {
			ps.walkStmt(st.Init, rel)
		}
		ps.findUses(st.Tag, rel, nil)
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				inner := copyRel(rel)
				for _, e := range cc.List {
					ps.findUses(e, inner, nil)
				}
				ps.walkStmts(cc.Body, inner)
			}
		}

	case *ast.TypeSwitchStmt:
		if st.Init != nil {
			ps.walkStmt(st.Init, rel)
		}
		ps.findUses(st.Assign, rel, nil)
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				ps.walkStmts(cc.Body, copyRel(rel))
			}
		}

	case *ast.SelectStmt:
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				inner := copyRel(rel)
				if cc.Comm != nil {
					ps.walkStmt(cc.Comm, inner)
				}
				ps.walkStmts(cc.Body, inner)
			}
		}

	case *ast.DeferStmt:
		// defer x.Release() runs after every subsequent use: exempt.
		if recv := ps.releaseReceiver(st.Call); recv != nil {
			return
		}
		ps.findUses(st.Call, rel, nil)

	case *ast.GoStmt:
		ps.findUses(st.Call, rel, nil)

	case *ast.ReturnStmt:
		for _, r := range st.Results {
			ps.findUses(r, rel, nil)
		}

	case *ast.LabeledStmt:
		ps.walkStmt(st.Stmt, rel)

	case *ast.IncDecStmt:
		ps.findUses(st.X, rel, nil)

	case *ast.SendStmt:
		ps.findUses(st.Chan, rel, nil)
		ps.findUses(st.Value, rel, nil)

	case nil, *ast.BranchStmt, *ast.EmptyStmt:
		// no packet flow

	default:
		ps.findUses(st, rel, nil)
	}
}
