package zhuge

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	docFence    = regexp.MustCompile("(?s)```.*?```")
	docSpan     = regexp.MustCompile("`([^`\n]+)`")
	docLink     = regexp.MustCompile(`\]\(([^)\s#]+)[^)\s]*\)`)
	docPath     = regexp.MustCompile(`^[\w.*/-]+$`)
	docBareFile = regexp.MustCompile(`^[A-Za-z0-9][\w.*-]*\.(go|md|json|txt|yml)$`)
	docCommand  = regexp.MustCompile(`\b(zhuge-(?:sim|bench|ap|trace))((?:\s+[^\s|;&>#]+)*)`)
	docFlag     = regexp.MustCompile(`\s-([a-z][a-z0-9-]*)`)
	flagDef     = regexp.MustCompile(`flag\.\w+\("([^"]+)"`)
)

// TestDocsResolve keeps the prose honest about the tree: in the user-facing
// documents every repo path must exist and every flag shown on a zhuge-*
// command line must be defined by that command.
//
// A backticked span or link target counts as a repo path when it is made of
// path characters only and either starts with a top-level entry of the repo
// (checked from the root) or is a bare .go/.md/.json/.txt/.yml file name
// (checked anywhere in the tree). Globs are allowed. Command lines are read
// from fenced blocks (backslash continuations joined) and backticked spans.
func TestDocsResolve(t *testing.T) {
	base := map[string]bool{}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == ".bench_build") {
			return filepath.SkipDir
		}
		base[d.Name()] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	exists := func(p string, anywhere bool) bool {
		if !anywhere {
			m, _ := filepath.Glob(p)
			return len(m) > 0
		}
		for b := range base {
			if ok, _ := filepath.Match(p, b); ok {
				return true
			}
		}
		return false
	}
	flags := map[string]map[string]bool{}
	for _, cmd := range []string{"zhuge-sim", "zhuge-bench", "zhuge-ap", "zhuge-trace"} {
		src, err := os.ReadFile(filepath.Join("cmd", cmd, "main.go"))
		if err != nil {
			t.Fatal(err)
		}
		flags[cmd] = map[string]bool{"h": true, "help": true} // package flag's own
		for _, m := range flagDef.FindAllSubmatch(src, -1) {
			flags[cmd][string(m[1])] = true
		}
	}

	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "OBSERVABILITY.md", "LINTING.md", "CONTROL_LOOP.md"} {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := strings.ReplaceAll(string(raw), "\\\n", " ")
		prose := docFence.ReplaceAllString(text, "")
		var spans []string
		for _, m := range docSpan.FindAllStringSubmatch(prose, -1) {
			spans = append(spans, m[1])
		}
		for _, m := range docLink.FindAllStringSubmatch(prose, -1) {
			if !strings.Contains(m[1], "://") && !exists(m[1], false) {
				t.Errorf("%s links to %q, which does not exist", doc, m[1])
			}
		}
		for _, s := range spans {
			if !docPath.MatchString(s) {
				continue
			}
			first, _, nested := strings.Cut(s, "/")
			if nested && exists(first, false) && !exists(strings.TrimSuffix(s, "/"), false) ||
				!nested && docBareFile.MatchString(s) && !exists(s, true) {
				t.Errorf("%s names `%s`, which does not exist", doc, s)
			}
		}
		lines := append(spans, strings.Split(strings.Join(docFence.FindAllString(text, -1), "\n"), "\n")...)
		for _, line := range lines {
			for _, m := range docCommand.FindAllStringSubmatch(line, -1) {
				for _, f := range docFlag.FindAllStringSubmatch(m[2], -1) {
					if !flags[m[1]][f[1]] {
						t.Errorf("%s shows `%s -%s`; cmd/%s/main.go defines no such flag", doc, m[1], f[1], m[1])
					}
				}
			}
		}
	}
}

// TestInventoryListsEveryPackage keeps DESIGN.md's system inventory in step
// with the tree: every package directory directly under internal/ and
// internal/transport/ must appear there as a backticked path, so adding or
// deleting a package turns the table red instead of stale. Nested helper
// directories (testdata, goldengen) are covered by their
// parents' rows.
func TestInventoryListsEveryPackage(t *testing.T) {
	raw, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, inventory, ok := strings.Cut(string(raw), "\n## System inventory")
	if !ok {
		t.Fatal("DESIGN.md has no \"## System inventory\" section")
	}
	inventory, _, _ = strings.Cut(inventory, "\n## ")
	for _, parent := range []string{"internal", "internal/transport"} {
		dirs, err := os.ReadDir(parent)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range dirs {
			pkg := parent + "/" + d.Name()
			if src, _ := filepath.Glob(pkg + "/*.go"); len(src) == 0 {
				continue // not a package (internal/transport itself)
			}
			if !strings.Contains(inventory, "`"+pkg+"`") {
				t.Errorf("DESIGN.md's system inventory does not list `%s`", pkg)
			}
		}
	}
}
