package zhuge

import (
	"bytes"
	"fmt"
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

var (
	ciProbe      = regexp.MustCompile(`(?m)^\s*probe\s+(.*)$`)
	shellWord    = regexp.MustCompile(`'[^']*'|\S+`)
	runFlag      = regexp.MustCompile(`-run\s+(\S+)`)
	probeFinding = regexp.MustCompile(`^(\S+\.go):(\d+):\d+: `)
)

// sedSubsts splits a sed script of s/pattern/replacement/ commands,
// separated by ";", into pattern and replacement pairs; ok is false for
// any other script.
func sedSubsts(script string) (subs [][2]string, ok bool) {
	s := script
	for {
		s = strings.TrimLeft(s, " ;")
		if s == "" {
			return subs, true
		}
		if !strings.HasPrefix(s, "s/") {
			return nil, false
		}
		s = s[2:]
		var f [2]string
		for i := range f {
			end := 0
			for ; end < len(s) && s[end] != '/'; end++ {
				if s[end] == '\\' {
					end++
				}
			}
			if end >= len(s) {
				return nil, false
			}
			f[i], s = s[:end], s[end+1:]
		}
		subs = append(subs, f)
		s = strings.TrimLeft(s, "g")
	}
}

// breToRE2 translates the basic regular expressions the probes' sed
// addresses use into RE2: an escaped character is a literal (\t a tab), and
// (, ), {, }, +, ? and |, plain characters in a BRE, are quoted.
func breToRE2(bre string) string {
	var b strings.Builder
	for i := 0; i < len(bre); i++ {
		switch c := bre[i]; {
		case c == '\\' && i+1 < len(bre):
			i++
			switch bre[i] {
			case 't':
				b.WriteString(`\t`)
			default:
				b.WriteString(regexp.QuoteMeta(bre[i : i+1]))
			}
		case strings.IndexByte("(){}+?|", c) >= 0:
			b.WriteString(`\` + string(c))
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

// TestCIProbesNameLiveTests keeps CI's seeded probes pointed at code that
// exists. Deleting or renaming a test a probe runs would otherwise break
// only CI. For every `probe` row of .github/workflows/ci.yml, each test a
// `-run` pattern names must be declared as `func <Test>(` in a _test.go
// file of the package the probe tests (the row's fifth argument, or else
// the edited file's directory), and the probe's ID must appear in
// LINTING.md, which describes it. The edit must still apply where it was
// meant to: each s/// address of the row's sed script, read as RE2, must
// match exactly one line of the edited file, and an expected message of the
// form path:line:col: must name that line (plus one per newline the
// replacement inserts, since the finding sits on its last line).
func TestCIProbesNameLiveTests(t *testing.T) {
	ci, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	linting, err := os.ReadFile("LINTING.md")
	if err != nil {
		t.Fatal(err)
	}
	rows := ciProbe.FindAllStringSubmatch(string(ci), -1)
	if len(rows) == 0 {
		t.Fatal("ci.yml has no probe rows")
	}
	for _, row := range rows {
		var args []string
		for _, w := range shellWord.FindAllString(row[1], -1) {
			args = append(args, strings.Trim(w, "'"))
		}
		if len(args) < 4 {
			t.Errorf("probe row %q has %d arguments, want at least 4", row[1], len(args))
			continue
		}
		id := args[0]
		if !regexp.MustCompile(`\b` + regexp.QuoteMeta(id) + `\b`).Match(linting) {
			t.Errorf("probe %s is not described in LINTING.md", id)
		}
		checkProbeEdit(t, id, args[1], args[2], args[3])
		pkg := filepath.Dir(args[2])
		if len(args) > 4 && args[4] != "" {
			pkg = args[4]
		}
		if len(args) < 6 {
			continue
		}
		m := runFlag.FindStringSubmatch(args[5])
		if m == nil {
			continue
		}
		files, _ := filepath.Glob(filepath.Join(pkg, "*_test.go"))
		var src []byte
		for _, f := range files {
			b, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			src = append(src, b...)
		}
		top, _, _ := strings.Cut(m[1], "/")
		for _, name := range strings.Split(top, "|") {
			name = strings.Trim(name, "^$()")
			if !bytes.Contains(src, []byte("func "+name+"(")) {
				t.Errorf("probe %s runs -run %s, but no _test.go file in %s declares func %s(", id, m[1], pkg, name)
			}
		}
	}
}

// checkProbeEdit holds one probe row's sed script to the file it edits; see
// TestCIProbesNameLiveTests.
func checkProbeEdit(t *testing.T, id, message, file, script string) {
	t.Helper()
	src, err := os.ReadFile(file)
	if err != nil {
		t.Errorf("probe %s edits %s: %v", id, file, err)
		return
	}
	subs, ok := sedSubsts(script)
	if !ok {
		t.Errorf("probe %s: sed script %q is not a list of s/pattern/replacement/ commands", id, script)
		return
	}
	lines := strings.Split(string(src), "\n")
	for _, sub := range subs {
		re, err := regexp.Compile(breToRE2(sub[0]))
		if err != nil {
			t.Errorf("probe %s: address %q: %v", id, sub[0], err)
			continue
		}
		var at []int
		for i, l := range lines {
			if re.MatchString(l) {
				at = append(at, i+1)
			}
		}
		if len(at) != 1 {
			t.Errorf("probe %s: address %q matches %d lines of %s %v, want exactly 1", id, sub[0], len(at), file, at)
			continue
		}
		m := probeFinding.FindStringSubmatch(message)
		if m == nil {
			continue
		}
		if want := fmt.Sprintf("%s:%d", file, at[0]+strings.Count(sub[1], `\n`)); m[1]+":"+m[2] != want {
			t.Errorf("probe %s expects %q, but its edit lands on %s", id, m[0], want)
		}
	}
}
