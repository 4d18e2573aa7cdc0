package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// This file is the interprocedural dataflow layer under zhuge-lint: a call
// graph over every package the loader parsed, plus per-function summaries
// computed bottom-up over strongly connected components. The intraprocedural
// analyzers from PR 3 stop at function boundaries — a Release that happens
// in a callee, a map-ordered iteration laundered through a helper, a
// closure handed to a helper that runs it on another goroutine are all
// invisible to them. The summaries make those facts visible at the
// call site without analyzing the callee's body again.
//
// Design constraints, in order:
//
//  1. Stdlib only, like the rest of the framework. The call graph is
//     *static*: direct function calls and concrete method calls resolved
//     through go/types. Interface dispatch, function values stored in
//     variables, and channel-laundered closures are unresolved edges.
//  2. Conservative in the "no false positives" direction: an unresolved
//     callee has a nil summary, and a nil summary asserts nothing — the
//     consuming analyzer must treat it as "unknown", never as "safe to
//     flag". This matches the suite's contract that a finding is a bug.
//  3. Summaries only cover the facts the analyzers consume. They are not a
//     general escape analysis; add fields as new analyzers need them.
//
// Function literals are first-class nodes, each recording its lexical
// encloser: a literal runs in (at most) its encloser's context, which is
// what lets detshare see that a closure built inside init-only code is
// itself init-only.

// A FuncNode is one function in the program call graph: a declared
// function or method (Obj non-nil) or a function literal (Lit non-nil).
type FuncNode struct {
	Pkg  *Package
	Obj  *types.Func   // nil for literals
	Decl *ast.FuncDecl // nil for literals
	Lit  *ast.FuncLit  // nil for declarations
	Body *ast.BlockStmt

	// Encloser is the lexically enclosing function for literals (nil for
	// declarations and for literals in package-level initializers).
	Encloser *FuncNode

	// InitContext marks code that runs during package initialization:
	// func init bodies, package-level var initializers, and literals
	// nested in either.
	InitContext bool

	// Callees are the statically resolved calls in this node's own body
	// (nested literal bodies belong to their own nodes).
	Callees []*FuncNode

	recvObj   types.Object
	paramObjs []types.Object
}

// A Summary records what one function does to its parameters and its
// environment, folded over everything it (transitively, through resolved
// calls) executes. All facts are "may" facts on some path; absence of a
// fact in a *computed* summary means the analyzed bodies provably never do
// it through resolved calls — absence of a summary (nil) means unknown.
type Summary struct {
	// RecvReleases: the method calls Release on its receiver (a pooled
	// type) on some path, directly or via a resolved callee.
	RecvReleases bool

	// Releases[i]: parameter i (a pooled pointer) may be released.
	Releases []bool

	// Sorts[i]: parameter i (a slice) is passed to a sort-shaped call —
	// the fact maporder's collect-then-sort idiom needs to traverse
	// helpers that don't have "sort" in their own name.
	Sorts []bool

	// ReachesGoroutine[i]: parameter i is referenced inside a go
	// statement in this function, or passed onward to a parameter with
	// that fact — the closure-crosses-a-goroutine-boundary marker
	// detshare consumes.
	ReachesGoroutine []bool

	// EmitsOutput: the function writes to an escaping writer — fmt
	// Print*/Fprint*, log printing, or a Write*/Encode method on a
	// receiver that is not function-local — directly or via a resolved
	// callee. Inside a range-over-map this leaks iteration order.
	EmitsOutput bool
}

func (s *Summary) equal(o *Summary) bool {
	if o == nil {
		return false
	}
	if s.RecvReleases != o.RecvReleases || s.EmitsOutput != o.EmitsOutput {
		return false
	}
	eq := func(a, b []bool) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	return eq(s.Releases, o.Releases) && eq(s.Sorts, o.Sorts) && eq(s.ReachesGoroutine, o.ReachesGoroutine)
}

// A Program is the whole-load view: every parsed package's functions, the
// static call graph between them, and the computed summaries. Load builds
// one Program per invocation and points every Package at it.
type Program struct {
	nodes  []*FuncNode
	byObj  map[*types.Func]*FuncNode
	bySym  map[string]*FuncNode // pkgpath.[Recv.]Name — see symKey
	byDecl map[*ast.FuncDecl]*FuncNode
	byLit  map[*ast.FuncLit]*FuncNode

	summaries map[*FuncNode]*Summary
	sccs      [][]*FuncNode // bottom-up (callees before callers)

	callers      map[*FuncNode][]*FuncNode
	initOnlyMemo map[*FuncNode]int // 0 unknown, 1 in progress, 2 yes, 3 no
}

// NewProgram builds the call graph and computes every summary. It is safe
// on any package set, including single fixture packages: calls into
// packages outside the set simply stay unresolved.
func NewProgram(pkgs []*Package) *Program {
	p := &Program{
		byObj:        map[*types.Func]*FuncNode{},
		bySym:        map[string]*FuncNode{},
		byDecl:       map[*ast.FuncDecl]*FuncNode{},
		byLit:        map[*ast.FuncLit]*FuncNode{},
		summaries:    map[*FuncNode]*Summary{},
		callers:      map[*FuncNode][]*FuncNode{},
		initOnlyMemo: map[*FuncNode]int{},
	}
	for _, pkg := range pkgs {
		p.collectNodes(pkg)
	}
	for _, n := range p.nodes {
		p.scanCalls(n)
	}
	for _, n := range p.nodes {
		for _, c := range n.Callees {
			p.callers[c] = append(p.callers[c], n)
		}
	}
	p.computeSCCs()
	p.computeSummaries()
	return p
}

// DeclNode returns the node for a function declaration, or nil.
func (p *Program) DeclNode(d *ast.FuncDecl) *FuncNode { return p.byDecl[d] }

// LitNode returns the node for a function literal, or nil.
func (p *Program) LitNode(l *ast.FuncLit) *FuncNode { return p.byLit[l] }

// symKey renders a declared function's program-wide identity:
// "pkgpath.Name" or "pkgpath.Recv.Name". A caller package that imports a
// loaded package sees the importer's *types.Func, a distinct object from
// the one the source check produced — the symbol key bridges the two.
func symKey(fn *types.Func) string {
	if fn.Pkg() == nil {
		return ""
	}
	key := fn.Pkg().Path() + "."
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if named, ok := derefNamed(sig.Recv().Type()); ok {
			key += named.Obj().Name() + "."
		}
	}
	return key + fn.Name()
}

func derefNamed(t types.Type) (*types.Named, bool) {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return named, ok
}

// nodeFor resolves a function object to its in-program node, falling back
// from object identity to the symbol key for cross-package references
// (the importer materializes its own objects from export data).
func (p *Program) nodeFor(fn *types.Func) *FuncNode {
	if n := p.byObj[fn]; n != nil {
		return n
	}
	if k := symKey(fn); k != "" {
		return p.bySym[k]
	}
	return nil
}

// CalleeSummary returns the computed summary of the function a call
// statically resolves to, or nil for unknown: the call does not resolve, or
// the callee's body is outside this program.
func (p *Program) CalleeSummary(info *types.Info, call *ast.CallExpr) *Summary {
	_, cn := p.resolveCall(info, call)
	return p.summaries[cn]
}

// ---- node collection ------------------------------------------------------

func (p *Program) collectNodes(pkg *Package) {
	newNode := func(n *FuncNode) *FuncNode {
		p.nodes = append(p.nodes, n)
		if n.Obj != nil {
			p.byObj[n.Obj] = n
			p.bySym[symKey(n.Obj)] = n
		}
		if n.Decl != nil {
			p.byDecl[n.Decl] = n
		}
		if n.Lit != nil {
			p.byLit[n.Lit] = n
		}
		return n
	}
	var attachLits func(parent *FuncNode, root ast.Node, initCtx bool)
	attachLits = func(parent *FuncNode, root ast.Node, initCtx bool) {
		ast.Inspect(root, func(m ast.Node) bool {
			lit, ok := m.(*ast.FuncLit)
			if !ok {
				return true
			}
			node := newNode(&FuncNode{
				Pkg: pkg, Lit: lit, Body: lit.Body,
				Encloser: parent, InitContext: initCtx,
			})
			node.paramObjs = fieldObjs(pkg, lit.Type.Params)
			attachLits(node, lit.Body, initCtx)
			return false
		})
	}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Body == nil {
					continue
				}
				obj, _ := pkg.Info.Defs[d.Name].(*types.Func)
				isInit := d.Recv == nil && d.Name.Name == "init"
				node := newNode(&FuncNode{
					Pkg: pkg, Obj: obj, Decl: d, Body: d.Body, InitContext: isInit,
				})
				if d.Recv != nil && len(d.Recv.List) > 0 && len(d.Recv.List[0].Names) > 0 {
					node.recvObj = pkg.Info.Defs[d.Recv.List[0].Names[0]]
				}
				node.paramObjs = fieldObjs(pkg, d.Type.Params)
				attachLits(node, d.Body, isInit)
			case *ast.GenDecl:
				// Package-level var initializers run at init time; any
				// literal inside is init context with no encloser.
				attachLits(nil, d, true)
			}
		}
	}
}

func fieldObjs(pkg *Package, fl *ast.FieldList) []types.Object {
	if fl == nil {
		return nil
	}
	var out []types.Object
	for _, f := range fl.List {
		if len(f.Names) == 0 {
			out = append(out, nil) // unnamed parameter still occupies an index
			continue
		}
		for _, name := range f.Names {
			out = append(out, pkg.Info.Defs[name])
		}
	}
	return out
}

// ---- call resolution ------------------------------------------------------

// StaticCallee resolves a call expression to the concrete function object
// it invokes: a package function, a concrete method, or nil for interface
// dispatch, function values, builtins, and conversions. Works without a
// Program — it only needs type information.
func StaticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := unparen(call.Fun).(type) {
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

// resolveCall is StaticCallee plus the in-program node for the resolved
// function — nil node when its body was not loaded (export-data-only
// dependency); an immediately invoked literal has a node but no
// *types.Func.
func (p *Program) resolveCall(info *types.Info, call *ast.CallExpr) (*types.Func, *FuncNode) {
	if lit, ok := unparen(call.Fun).(*ast.FuncLit); ok {
		return nil, p.byLit[lit]
	}
	fn := StaticCallee(info, call)
	if fn == nil {
		return nil, nil
	}
	return fn, p.nodeFor(fn)
}

func unparen(e ast.Expr) ast.Expr {
	for {
		pe, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = pe.X
	}
}

// inspectOwn walks a node's body without descending into nested function
// literals — their statements belong to their own nodes.
func inspectOwn(n *FuncNode, fn func(ast.Node) bool) {
	ast.Inspect(n.Body, func(m ast.Node) bool {
		if lit, ok := m.(*ast.FuncLit); ok && lit != n.Lit {
			return false
		}
		return fn(m)
	})
}

// scanCalls records the statically resolved callees of a node's own body.
func (p *Program) scanCalls(n *FuncNode) {
	inspectOwn(n, func(m ast.Node) bool {
		if call, ok := m.(*ast.CallExpr); ok {
			if _, cn := p.resolveCall(n.Pkg.Info, call); cn != nil {
				n.Callees = append(n.Callees, cn)
			}
		}
		return true
	})
}

// ---- SCCs (Tarjan) --------------------------------------------------------

func (p *Program) computeSCCs() {
	index := map[*FuncNode]int{}
	low := map[*FuncNode]int{}
	onStack := map[*FuncNode]bool{}
	var stack []*FuncNode
	next := 0

	var strongconnect func(n *FuncNode)
	strongconnect = func(n *FuncNode) {
		index[n] = next
		low[n] = next
		next++
		stack = append(stack, n)
		onStack[n] = true
		for _, c := range n.Callees {
			if _, seen := index[c]; !seen {
				strongconnect(c)
				if low[c] < low[n] {
					low[n] = low[c]
				}
			} else if onStack[c] && index[c] < low[n] {
				low[n] = index[c]
			}
		}
		if low[n] == index[n] {
			var scc []*FuncNode
			for {
				m := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[m] = false
				scc = append(scc, m)
				if m == n {
					break
				}
			}
			// Tarjan emits components in reverse topological order of the
			// condensation — i.e. callees' components complete before the
			// components that call them, which is exactly the bottom-up
			// order summary computation needs.
			p.sccs = append(p.sccs, scc)
		}
	}
	for _, n := range p.nodes {
		if _, seen := index[n]; !seen {
			strongconnect(n)
		}
	}
}

// ---- summaries ------------------------------------------------------------

func (p *Program) computeSummaries() {
	for _, scc := range p.sccs {
		// Within a component, iterate to a fixpoint: facts only ever turn
		// on, so the loop terminates after at most (members × facts)
		// rounds; mutual recursion converges here.
		for {
			changed := false
			for _, n := range scc {
				ns := p.computeSummary(n)
				if !ns.equal(p.summaries[n]) {
					p.summaries[n] = ns
					changed = true
				}
			}
			if !changed {
				break
			}
		}
	}
}

// paramIndex locates an object among a node's receiver and parameters:
// (-1, true) for the receiver, (i, false) for parameter i, (-2, false)
// when it is neither.
func (n *FuncNode) paramIndex(obj types.Object) (int, bool) {
	if obj == nil {
		return -2, false
	}
	if n.recvObj != nil && obj == n.recvObj {
		return -1, true
	}
	for i, po := range n.paramObjs {
		if po != nil && obj == po {
			return i, false
		}
	}
	return -2, false
}

func (p *Program) computeSummary(n *FuncNode) *Summary {
	s := &Summary{
		Releases:         make([]bool, len(n.paramObjs)),
		Sorts:            make([]bool, len(n.paramObjs)),
		ReachesGoroutine: make([]bool, len(n.paramObjs)),
	}
	info := n.Pkg.Info
	markRelease := func(obj types.Object) {
		if i, isRecv := n.paramIndex(obj); isRecv {
			s.RecvReleases = true
		} else if i >= 0 {
			s.Releases[i] = true
		}
	}
	argObj := func(e ast.Expr) types.Object {
		id, ok := unparen(e).(*ast.Ident)
		if !ok {
			return nil
		}
		return info.Uses[id]
	}
	inspectOwn(n, func(m ast.Node) bool {
		switch st := m.(type) {
		case *ast.GoStmt:
			// Anything of ours referenced under the go statement —
			// including captures inside a spawned literal — crosses the
			// goroutine boundary.
			ast.Inspect(st, func(g ast.Node) bool {
				id, ok := g.(*ast.Ident)
				if !ok {
					return true
				}
				if i, _ := n.paramIndex(info.Uses[id]); i >= 0 {
					s.ReachesGoroutine[i] = true
				}
				return true
			})
			return true
		case *ast.CallExpr:
			fn, cn := p.resolveCall(n.Pkg.Info, st)
			// Direct facts.
			if fn != nil && fn.Name() == "Release" && len(st.Args) == 0 {
				if sel, ok := unparen(st.Fun).(*ast.SelectorExpr); ok {
					if t := info.TypeOf(sel.X); t != nil && isPooledPtr(t) {
						markRelease(argObj(sel.X))
					}
				}
			}
			if emitsDirectly(n, st) {
				s.EmitsOutput = true
			}
			if strings.Contains(strings.ToLower(calleeName(st)), "sort") {
				for _, a := range st.Args {
					if i, _ := n.paramIndex(argObj(a)); i >= 0 {
						s.Sorts[i] = true
					}
				}
			}
			// Facts through resolved callees with computed summaries.
			cs := p.summaries[cn]
			if cs == nil {
				return true
			}
			if cs.EmitsOutput {
				s.EmitsOutput = true
			}
			if cn != nil && cs.RecvReleases {
				if sel, ok := unparen(st.Fun).(*ast.SelectorExpr); ok {
					markRelease(argObj(sel.X))
				}
			}
			for ai, a := range st.Args {
				i, isRecv := n.paramIndex(argObj(a))
				if isRecv {
					i = -1
				}
				if i == -2 || ai >= len(cn.paramObjs) {
					continue
				}
				set := func(fact []bool, mine *[]bool, recvFact *bool) {
					if ai < len(fact) && fact[ai] {
						if i >= 0 {
							(*mine)[i] = true
						} else if recvFact != nil {
							*recvFact = true
						}
					}
				}
				set(cs.Releases, &s.Releases, &s.RecvReleases)
				set(cs.Sorts, &s.Sorts, nil)
				set(cs.ReachesGoroutine, &s.ReachesGoroutine, nil)
			}
		}
		return true
	})
	return s
}

// emitsDirectly reports whether the call writes to an escaping output sink:
// fmt/log printing (Sprint* excluded — it escapes only if its result does,
// which other rules track), or a Write*/Encode method whose receiver is
// not a local of this very function. A strings.Builder local that is
// returned as a value does not leak iteration order by itself.
func emitsDirectly(n *FuncNode, call *ast.CallExpr) bool {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	info := n.Pkg.Info
	if fn, ok := info.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil {
		switch fn.Pkg().Path() {
		case "fmt":
			switch fn.Name() {
			case "Print", "Printf", "Println", "Fprint", "Fprintf", "Fprintln":
				return true
			}
		case "log":
			switch fn.Name() {
			case "Print", "Printf", "Println", "Fatal", "Fatalf", "Fatalln", "Panic", "Panicf", "Panicln":
				return true
			}
		}
	}
	if selinfo, ok := info.Selections[sel]; ok && selinfo.Kind() == types.MethodVal && writerMethods[sel.Sel.Name] {
		// Receiver root: a var declared inside this node's own body (and
		// not a parameter) is function-local; anything else — parameter,
		// capture, field, global — escapes.
		root := sel.X
		for {
			if s, ok := unparen(root).(*ast.SelectorExpr); ok {
				root = s.X
				continue
			}
			break
		}
		id, ok := unparen(root).(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		if obj == nil {
			return true
		}
		if i, _ := n.paramIndex(obj); i >= 0 || i == -1 {
			return true // parameter or receiver: caller-owned sink
		}
		if obj.Pos() >= n.Body.Pos() && obj.Pos() < n.Body.End() {
			return false // function-local sink
		}
		return true
	}
	return false
}

// ---- init-only code --------------------------------------------------------

// InitOnly reports whether a node can only ever run during package
// initialization: func init bodies, package-level var initializers, their
// nested literals, and unexported plain functions all of whose in-program
// callers are themselves init-only. Methods and exported functions are
// never init-only (interface dispatch and external callers are invisible
// to the static graph). Cycles resolve conservatively to false.
func (p *Program) InitOnly(n *FuncNode) bool {
	switch p.initOnlyMemo[n] {
	case 1: // in progress: a call cycle — conservative
		return false
	case 2:
		return true
	case 3:
		return false
	}
	p.initOnlyMemo[n] = 1
	res := p.initOnly(n)
	if res {
		p.initOnlyMemo[n] = 2
	} else {
		p.initOnlyMemo[n] = 3
	}
	return res
}

func (p *Program) initOnly(n *FuncNode) bool {
	if n.InitContext {
		return true
	}
	if n.Lit != nil {
		// A literal runs in (at most) its encloser's context as far as
		// this static view can tell.
		return n.Encloser != nil && p.InitOnly(n.Encloser)
	}
	if n.Decl.Recv != nil || ast.IsExported(n.Decl.Name.Name) {
		return false
	}
	callers := p.callers[n]
	if len(callers) == 0 {
		return false
	}
	for _, c := range callers {
		if !p.InitOnly(c) {
			return false
		}
	}
	return true
}
