// Package analysis is zhuge-lint: two static analyzers that keep the
// simulator's clock and randomness deterministic at compile time instead of
// discovering a violation at run time as a golden-table diff.
//
// The framework deliberately mirrors the golang.org/x/tools/go/analysis API
// (Analyzer, Pass, Diagnostic) so the analyzers could be ported to the real
// multichecker unchanged, but it is built purely on the standard library:
// packages are parsed with go/parser and type-checked with go/types, and
// dependency type information is imported from the build cache's export
// data (see load.go). That keeps the linter runnable in hermetic
// environments with nothing but the Go toolchain.
//
// Every analyzer is one walk per function: none follows a call into its
// callee (LINTING.md, "Scope and limitations").
//
// The analyzers and the invariants they protect:
//
//   - detclock: no wall-clock (time.Now/Since/Sleep/...) in deterministic
//     packages — the simulator's virtual clock is the only time source.
//   - detrand: no global math/rand state and no raw rand.NewSource in
//     deterministic packages — RNG streams must derive from the labeled
//     seed helpers (sim.LabeledRand / sim.Simulator.NewRand /
//     experiments.newRNG) so every stream is a pure function of
//     (root seed, component label).
//
// There is no suppression comment: a finding is fixed, not waived.
//
// The other rule families are not checked here because the program enforces
// them on itself: the shard layer's ownership protocol (who may produce onto
// an edge inbox, what may run inside a window) is asserted at runtime
// against one predicate in internal/shard; the costly observability hooks
// have no nil branch, so a call site without its nil test panics in every
// test that runs with obs off (internal/obs package comment); a pooled
// packet released while a hop holds it panics at that hop (netem.Held); map
// order that reaches output fails an order assert next to each exporter;
// and state shared between cells is reported by the race detector.
// LINTING.md's verdict table has the analyzers that used to police them.
//
// Run it with: go run ./cmd/zhuge-lint ./...
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics. It must be a valid
	// identifier.
	Name string

	// Doc is a one-paragraph description of what the analyzer checks and
	// which invariant it protects.
	Doc string

	// Run applies the analyzer to a single type-checked package, reporting
	// findings through pass.Reportf.
	Run func(pass *Pass) error
}

// A Pass provides one analyzer with the parsed, type-checked view of one
// package plus a sink for diagnostics.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags *[]Diagnostic
}

// A Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzers is the full zhuge-lint suite in the order cmd/zhuge-lint runs
// it.
var Analyzers = []*Analyzer{
	DetClock,
	DetRand,
}

// Run applies the given analyzers to one loaded package and returns their
// findings sorted by position.
func Run(pkg *Package, analyzers ...*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			diags:     &diags,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
		}
	}
	sortDiags(diags)
	return diags, nil
}

func sortDiags(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
}

// ---- package classification ----------------------------------------------
//
// The analyzers scope themselves by import path. Deterministic packages are
// the simulator datapath: everything that runs under the virtual clock and
// must be byte-identical across runs and across -j worker counts. The
// allowlist covers the components that legitimately touch the wall clock or
// process-global state: liveap (a real UDP relay), parallel (measures real
// elapsed time per cell), obs (export timing metadata), and the cmd/ and
// examples/ binaries. Classification looks at path *segments*, so the
// analysistest fixtures under testdata/src/<analyzer>/<pkg> land in the
// same buckets as the real packages they mimic.

var deterministicSegments = map[string]bool{
	"sim":         true,
	"wireless":    true,
	"core":        true,
	"queue":       true,
	"netem":       true,
	"cca":         true,
	"transport":   true,
	"tcpsim":      true,
	"quicsim":     true,
	"rtp":         true,
	"video":       true,
	"trace":       true,
	"experiments": true,
	"scenario":    true,
	"chaos":       true,
	"shard":       true,
	"baseline":    true,
	"packet":      true,
	"metrics":     true,
}

var allowlistedSegments = map[string]bool{
	"liveap":   true, // real-time UDP relay: wall clock is its job
	"parallel": true, // reports real elapsed time per cell
	"obs":      true, // export timing metadata is wall-clock by design
	"analysis": true, // this linter itself (shells out, walks the FS)
}

// DeterministicPkg reports whether the package at path is part of the
// deterministic simulator datapath, where detclock and detrand apply.
// cmd/ and examples/ binaries are always exempt, as is anything on the
// allowlist; otherwise the final path segment decides.
func DeterministicPkg(path string) bool {
	segs := strings.Split(path, "/")
	for _, s := range segs {
		if s == "cmd" || s == "examples" {
			return false
		}
	}
	last := segs[len(segs)-1]
	if allowlistedSegments[last] {
		return false
	}
	return deterministicSegments[last]
}
