package zhuge

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// The golden tables are byte-identical at any -j and -shards only because
// the simulator takes time from its virtual clock alone and randomness from
// labeled seeds alone. Every package under internal/ keeps both rules except
// exemptPackages, which take the wall clock on purpose.
var exemptPackages = map[string]bool{
	"liveap":   true, // a real UDP relay: the wall clock is its job
	"parallel": true, // reports real elapsed time per cell
	"obs":      true, // export timing metadata is wall-clock by design
}

// wallClockFuncs read the host clock or arm runtime timers. Durations,
// constants and conversions carry no ambient state and stay legal.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true, "After": true,
	"Tick": true, "NewTimer": true, "NewTicker": true, "AfterFunc": true,
}

// globalRandFuncs are the math/rand and math/rand/v2 functions backed by the
// shared global source; methods on a *rand.Rand are the legal way to draw.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true, "Int63": true, "Int63n": true, "Uint32": true,
	"Uint64": true, "Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Seed": true, "Read": true, // and math/rand/v2's:
	"N": true, "IntN": true, "Int32": true, "Int32N": true, "Int64": true, "Int64N": true,
	"Uint": true, "UintN": true, "Uint32N": true, "Uint64N": true,
}

// blessedSources (package.function) alone may build a source from a raw seed:
// each stream they hand out is a pure function of (seed, label).
var blessedSources = map[string]bool{
	"sim.LabeledRand": true, "sim.NewRand": true, "experiments.newRNG": true,
}

// checkedImports maps the import paths the rules read to the name findings use.
var checkedImports = map[string]string{"time": "time", "math/rand": "rand", "math/rand/v2": "rand"}

// checkDeterminism returns one "file:line:col: message" finding per
// violation in f, a non-test file of the package in directory pkg. It reads
// the file's imports, not its types, so a local variable that shadows an
// import name is reported as if it were the import.
func checkDeterminism(fset *token.FileSet, pkg string, f *ast.File) []string {
	if exemptPackages[pkg] {
		return nil
	}
	var out []string
	report := func(pos token.Pos, format string, args ...any) {
		out = append(out, fmt.Sprintf("%s: %s", fset.Position(pos), fmt.Sprintf(format, args...)))
	}
	local := map[string]string{} // the name a file calls an import by → "time" or "rand"
	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		std := checkedImports[path]
		switch {
		case std == "": // a package the rules do not read
		case imp.Name == nil:
			local[std] = std
		case imp.Name.Name == ".":
			report(imp.Pos(), "dot import of %q hides its calls from this check; import it by name", path)
		default:
			local[imp.Name.Name] = std
		}
	}
	for _, decl := range f.Decls {
		enclosing := "" // package-level initializers are never a blessed context
		if fd, ok := decl.(*ast.FuncDecl); ok {
			enclosing = fd.Name.Name
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok || local[id.Name] == "" {
				return true
			}
			switch fn := sel.Sel.Name; {
			case local[id.Name] == "time":
				if wallClockFuncs[fn] {
					report(sel.Pos(), "time.%s is wall-clock and breaks simulation determinism in package %s; use the simulator's virtual clock (sim.Simulator.Now / Schedule)", fn, pkg)
				}
			case globalRandFuncs[fn]:
				report(sel.Pos(), "rand.%s draws from the process-global source and is nondeterministic under -j; use a *rand.Rand from sim.LabeledRand / sim.Simulator.NewRand / experiments.newRNG", fn)
			case (fn == "NewSource" || fn == "NewPCG") && !blessedSources[pkg+"."+enclosing]:
				report(sel.Pos(), "raw rand.%s seeds bypass the labeled-seed scheme; derive the RNG from sim.LabeledRand / sim.Simulator.NewRand / experiments.newRNG so the stream is a pure function of (seed, label)", fn)
			}
			return true
		})
	}
	return out
}

// TestDeterministicPackages holds both rules over every non-test file under
// internal/, and names each violation's file, line and rule.
func TestDeterministicPackages(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, finding := range checkDeterminism(fset, filepath.Base(filepath.Dir(path)), f) {
			t.Error(finding)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDeterminismCheckFlags keeps the check live: each flagged case must
// give exactly the one finding named, each clean case none. Subtests group
// the cases by rule, by how a file names its imports, and by package scope.
func TestDeterminismCheckFlags(t *testing.T) {
	const timeImp, randImp = `import "time"; `, `import "math/rand"; `
	type detCase struct{ pkg, src, want string }
	for _, group := range []struct {
		name  string
		cases []detCase
	}{
		{"detclock", []detCase{
			{"sim", timeImp + `func f() { t0 := time.Now() }`, "time.Now is wall-clock"},
			{"sim", timeImp + `func f() { time.Sleep(time.Millisecond) }`, "time.Sleep is wall-clock"},
			{"sim", timeImp + `func f() { return time.Since(t0) }`, "time.Since is wall-clock"},
			{"sim", timeImp + `func f() { _ = time.After(time.Second) }`, "time.After is wall-clock"},
			{"sim", timeImp + `func f() { _ = time.NewTimer(time.Second) }`, "time.NewTimer is wall-clock"},
			{"chaos", timeImp + `func f() { start := time.Now() }`, "time.Now is wall-clock"},
			{"chaos", timeImp + `func f() { return time.Since(start) }`, "time.Since is wall-clock"},
			{"chaos", timeImp + `func f() { time.Sleep(time.Second) }`, "time.Sleep is wall-clock"},
			{"sim", timeImp + `func f(d time.Duration) time.Duration { return d + 5*time.Millisecond }`, ""},
		}},
		{"detrand", []detCase{
			{"wireless", randImp + `func f() { a := rand.Intn(10) }`, "rand.Intn draws from the process-global source"},
			{"wireless", randImp + `func f() { b := rand.Float64() }`, "rand.Float64 draws from the process-global source"},
			{"wireless", randImp + `func f(xs []int) { rand.Shuffle(len(xs), swap) }`, "rand.Shuffle draws from the process-global source"},
			{"wireless", randImp + `func f(seed int64) { return rand.New(rand.NewSource(seed)) }`, "raw rand.NewSource seeds bypass the labeled-seed scheme"},
			{"sim", randImp + `func rogue(seed int64) { return rand.NewSource(seed) }`, "raw rand.NewSource seeds bypass the labeled-seed scheme"},
			{"chaos", randImp + `func f(prob float64) bool { return rand.Float64() < prob }`, "rand.Float64 draws from the process-global source"},
			{"chaos", randImp + `func f(seed int64) { return rand.New(rand.NewSource(seed)) }`, "raw rand.NewSource seeds bypass the labeled-seed scheme"},
			{"sim", randImp + `var global = rand.NewSource(1)`, "raw rand.NewSource seeds bypass the labeled-seed scheme"},
			{"wireless", randImp + `func f(rng *rand.Rand) float64 { return rng.Float64() + rng.ExpFloat64() }`, ""},
			{"sim", randImp + `func LabeledRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }`, ""},
			{"experiments", randImp + `func newRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }`, ""},
		}},
		{"imports", []detCase{
			{"sim", `import wall "time"; func f() { _ = wall.Now() }`, "time.Now is wall-clock"},
			{"sim", `import . "time"; func f() { _ = Now() }`, `dot import of "time" hides its calls`},
			{"sim", `import . "math/rand/v2"; func f() {}`, `dot import of "math/rand/v2" hides its calls`},
			{"sim", `import "math/rand/v2"; func f() { _ = rand.IntN(3) }`, "rand.IntN draws from the process-global source"},
			{"sim", `import "math/rand/v2"; func f() { _ = rand.NewPCG(1, 2) }`, "raw rand.NewPCG seeds bypass the labeled-seed scheme"},
		}},
		{"scope", []detCase{
			{"ackclock", timeImp + `func f() { _ = time.Now() }`, "time.Now is wall-clock"},
			{"liveap", timeImp + `func f() { t0 := time.Now(); time.Sleep(time.Millisecond); _ = time.Since(t0) }`, ""},
			{"parallel", timeImp + `func f() { _ = time.Since(time.Now()) }`, ""},
			{"obs", timeImp + `func f() { _ = time.Now() }`, ""},
		}},
	} {
		t.Run(group.name, func(t *testing.T) {
			for _, c := range group.cases {
				fset := token.NewFileSet()
				f, err := parser.ParseFile(fset, "case.go", "package p; "+c.src, parser.SkipObjectResolution)
				if err != nil {
					t.Fatalf("%s: %v", c.src, err)
				}
				got := checkDeterminism(fset, c.pkg, f)
				if c.want == "" && len(got) != 0 || c.want != "" && (len(got) != 1 || !strings.Contains(got[0], c.want)) {
					t.Errorf("package %s, %s:\n got %q\nwant one finding %q", c.pkg, c.src, got, c.want)
				}
			}
		})
	}
}
