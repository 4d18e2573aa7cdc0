package analysis

// Test hooks into the dataflow layer for the external test package.

// FuncNamed finds a declared function node by package path and name
// ("Helper" or "Type.Method").
func (p *Program) FuncNamed(pkgPath, name string) *FuncNode { return p.bySym[pkgPath+"."+name] }

// SCCs returns the strongly connected components of the call graph in
// bottom-up order (every resolved callee's component no later than its
// caller's).
func (p *Program) SCCs() [][]*FuncNode { return p.sccs }

// SummaryOf returns the computed summary for a node, or nil for unknown
// (nil node, or a node outside this program).
func (p *Program) SummaryOf(n *FuncNode) *Summary { return p.summaries[n] }
