// Package analysis is zhuge-lint: a suite of static analyzers that enforce
// the simulator's determinism and shared-state invariants at compile time
// instead of discovering violations at runtime through golden tests.
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
//   - maporder: no map-iteration order leaking into exports — ranging over
//     a map while printing, writing to an io.Writer, or accumulating an
//     unsorted slice is exactly the bug class the j=1-vs-j=8 golden tests
//     exist to catch.
//   - detshare: no mutable state shared across cells in deterministic
//     packages — global writes outside init, goroutine spawns, and
//     closures handed to package parallel that write captures.
//
// A diagnostic can be suppressed with a staticcheck-style comment on its
// line or the line above:
//
//	//lint:ignore detclock <reason>
//
// Three rule families are not checked here because the program enforces
// them on itself: the shard layer's ownership protocol (who may produce onto
// an edge inbox, what may run inside a window) is asserted at runtime
// against one predicate in internal/shard; the costly observability hooks
// have no nil branch, so a call site without its nil test panics in every
// test that runs with obs off (internal/obs package comment); and a pooled
// packet released while a hop holds it panics at that hop (netem.Held).
// LINTING.md's verdict table has the analyzers that used to police them.
//
// Run it with: go run ./cmd/zhuge-lint ./...
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// An Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:ignore comments. It must be a valid identifier.
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
	MapOrder,
	DetShare,
}

// Run applies one analyzer to one loaded package and returns its findings
// with //lint:ignore suppressions already applied, sorted by position.
func Run(a *Analyzer, pkg *Package) ([]Diagnostic, error) {
	diags, err := runRaw(a, pkg)
	if err != nil {
		return nil, err
	}
	diags = applySuppressions(diags, collectSuppressions(pkg), map[*suppressComment]bool{})
	sortDiags(diags)
	return diags, nil
}

// runRaw applies one analyzer with no suppression filtering.
func runRaw(a *Analyzer, pkg *Package) ([]Diagnostic, error) {
	var diags []Diagnostic
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
	return diags, nil
}

// RunAll applies the whole suite to one package and audits the package's
// //lint:ignore comments against the combined findings. A suppression that
// suppressed nothing is *stale* and is reported as a diagnostic under the
// pseudo-analyzer name "suppression" (stale ones rot the allowlists — an
// ignore comment that no longer fires is a license for the next real
// violation to hide under).
func RunAll(pkg *Package) ([]Diagnostic, error) {
	var raw []Diagnostic
	for _, a := range Analyzers {
		d, err := runRaw(a, pkg)
		if err != nil {
			return nil, err
		}
		raw = append(raw, d...)
	}
	sups := collectSuppressions(pkg)
	used := map[*suppressComment]bool{}
	diags := applySuppressions(raw, sups, used)
	for _, s := range sups {
		if !used[s] {
			diags = append(diags, Diagnostic{
				Pos:      s.pos,
				Analyzer: "suppression",
				Message: fmt.Sprintf(
					"stale suppression: //lint:ignore %s no longer suppresses any diagnostic; delete it or narrow it (stale allowlists hide the next real violation)",
					strings.Join(s.names, ",")),
			})
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

// MapOrderPkg reports whether maporder applies: the deterministic packages
// plus obs, whose JSONL/Chrome-trace/metrics exports are exactly where map
// order would leak into golden files.
func MapOrderPkg(path string) bool {
	if DeterministicPkg(path) {
		return true
	}
	segs := strings.Split(path, "/")
	return segs[len(segs)-1] == "obs"
}

// ---- suppression ----------------------------------------------------------

var ignoreRe = regexp.MustCompile(`^//\s*lint:ignore\s+(\S+)\s+\S`)

// A suppressComment is one //lint:ignore comment.
type suppressComment struct {
	pos   token.Position
	names []string // analyzers it names, in source order
}

// collectSuppressions gathers every suppression comment in the package.
// The comment requires a non-empty reason and takes a comma-separated
// analyzer list, e.g.:
//
//	//lint:ignore detclock,detrand test fixture exercising both
func collectSuppressions(pkg *Package) []*suppressComment {
	var out []*suppressComment
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := ignoreRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				s := &suppressComment{pos: pkg.Fset.Position(c.Pos())}
				for _, n := range strings.Split(m[1], ",") {
					if n = strings.TrimSpace(n); n != "" {
						s.names = append(s.names, n)
					}
				}
				out = append(out, s)
			}
		}
	}
	return out
}

// applySuppressions drops diagnostics covered by the given suppression
// comments. A //lint:ignore comment covers the line it sits on and the
// line below it (the staticcheck convention: the comment precedes the
// flagged statement). Every comment that suppressed at least one
// diagnostic is recorded in used — the stale-suppression audit's input.
func applySuppressions(diags []Diagnostic, sups []*suppressComment, used map[*suppressComment]bool) []Diagnostic {
	if len(diags) == 0 || len(sups) == 0 {
		return diags
	}
	covers := func(s *suppressComment, d Diagnostic) bool {
		if s.pos.Filename != d.Pos.Filename {
			return false
		}
		if s.pos.Line != d.Pos.Line && s.pos.Line != d.Pos.Line-1 {
			return false
		}
		for _, n := range s.names {
			if n == d.Analyzer {
				return true
			}
		}
		return false
	}
	kept := diags[:0]
	for _, d := range diags {
		suppressed := false
		for _, s := range sups {
			if covers(s, d) {
				used[s] = true
				suppressed = true
				// Keep scanning: another comment covering the same
				// diagnostic is also legitimately "used".
			}
		}
		if !suppressed {
			kept = append(kept, d)
		}
	}
	return kept
}
