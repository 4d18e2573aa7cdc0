// Package analysistest runs a zhuge-lint analyzer over fixture packages and
// checks its diagnostics against `// want` expectations embedded in the
// fixture source — a stdlib-only equivalent of
// golang.org/x/tools/go/analysis/analysistest.
//
// Expectation syntax, on the offending line (or standing alone on it):
//
//	time.Now() // want `time\.Now`
//	x, y := f() // want `first regex` `second regex`
//
// Every diagnostic must match a want on its line and every want must be
// matched by a diagnostic.
package analysistest

import (
	"go/ast"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"github.com/zhuge-project/zhuge/internal/analysis"
)

// wantRe matches one backquoted or double-quoted expectation.
var wantRe = regexp.MustCompile("`([^`]*)`|\"([^\"]*)\"")

type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// Run loads the fixture packages at the given module-root-relative
// directories (e.g. "./internal/analysis/testdata/src/detclock/sim") and
// applies the analyzer to each, comparing diagnostics against // want
// expectations. Fixture packages live under testdata/ so the normal build
// never sees them, but they must compile: the loader type-checks them with
// full imports, which is what lets fixtures exercise the real netem and
// obs types.
func Run(t *testing.T, moduleRoot string, a *analysis.Analyzer, dirs ...string) {
	t.Helper()
	pkgs, err := analysis.Load(moduleRoot, dirs...)
	if err != nil {
		t.Fatalf("loading fixtures %v: %v", dirs, err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("no fixture packages matched %v", dirs)
	}
	for _, pkg := range pkgs {
		diags, err := analysis.Run(pkg, a)
		if err != nil {
			t.Fatalf("%s on %s: %v", a.Name, pkg.Path, err)
		}
		checkExpectations(t, a, pkg, diags)
	}
}

func checkExpectations(t *testing.T, a *analysis.Analyzer, pkg *analysis.Package, diags []analysis.Diagnostic) {
	t.Helper()
	var wants []*expectation
	for _, f := range pkg.Files {
		filename := pkg.Fset.Position(f.Pos()).Filename
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				wants = append(wants, parseWants(t, pkg, filename, c)...)
			}
		}
	}
	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if w.hit || w.file != d.Pos.Filename || w.line != d.Pos.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s", a.Name, d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s: %s:%d: expected diagnostic matching %q, got none",
				a.Name, filepath.Base(w.file), w.line, w.re)
		}
	}
}

func parseWants(t *testing.T, pkg *analysis.Package, filename string, c *ast.Comment) []*expectation {
	t.Helper()
	text := c.Text
	idx := strings.Index(text, "// want ")
	if idx < 0 {
		return nil
	}
	rest := text[idx+len("// want "):]
	line := pkg.Fset.Position(c.Pos()).Line
	var out []*expectation
	for _, m := range wantRe.FindAllStringSubmatch(rest, -1) {
		pat := m[1]
		if pat == "" {
			pat = m[2]
		}
		re, err := regexp.Compile(pat)
		if err != nil {
			t.Fatalf("%s:%d: bad want pattern %q: %v", filename, line, pat, err)
		}
		out = append(out, &expectation{file: filename, line: line, re: re})
	}
	if len(out) == 0 {
		t.Fatalf("%s:%d: // want comment with no quoted patterns", filename, line)
	}
	return out
}

// MustBeLive asserts the analyzer produces at least one diagnostic across
// the given fixture dirs, i.e. the gate is live, not vacuous. It is used by
// the suite test to prove each analyzer actually fails on its negative
// fixtures.
func MustBeLive(t *testing.T, moduleRoot string, a *analysis.Analyzer, dirs ...string) {
	t.Helper()
	pkgs, err := analysis.Load(moduleRoot, dirs...)
	if err != nil {
		t.Fatalf("loading fixtures %v: %v", dirs, err)
	}
	total := 0
	for _, pkg := range pkgs {
		diags, err := analysis.Run(pkg, a)
		if err != nil {
			t.Fatalf("%s on %s: %v", a.Name, pkg.Path, err)
		}
		total += len(diags)
	}
	if total == 0 {
		t.Fatalf("%s reported no diagnostics on its negative fixtures %v: the gate is vacuous", a.Name, dirs)
	}
}
