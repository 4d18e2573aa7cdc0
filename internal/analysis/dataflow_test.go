package analysis_test

import (
	"strings"
	"testing"

	"github.com/zhuge-project/zhuge/internal/analysis"
)

const dataflowFixture = "github.com/zhuge-project/zhuge/internal/analysis/testdata/src/dataflow/sim"

// loadDataflowFixture loads the dataflow fixture package and returns it
// with its Program.
func loadDataflowFixture(t *testing.T) *analysis.Package {
	t.Helper()
	pkgs, err := analysis.Load(moduleRoot(t), "./internal/analysis/testdata/src/dataflow/sim")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(pkgs))
	}
	return pkgs[0]
}

// TestSummaryFacts pins the summary layer's facts on the fixture: release
// chains compose bottom-up, output and sort facts see through one level of
// helpers, goroutine crossings are recorded, and unknown stays nil.
func TestSummaryFacts(t *testing.T) {
	prog := loadDataflowFixture(t).Prog

	summary := func(name string) *analysis.Summary {
		t.Helper()
		n := prog.FuncNamed(dataflowFixture, name)
		if n == nil {
			t.Fatalf("FuncNamed(%q) = nil", name)
		}
		s := prog.SummaryOf(n)
		if s == nil {
			t.Fatalf("SummaryOf(%s) = nil", name)
		}
		return s
	}

	for _, name := range []string{"c1", "c2", "c3", "relA", "relB"} {
		s := summary(name)
		if len(s.Releases) == 0 || !s.Releases[0] {
			t.Errorf("%s: Releases[0] = false, want true", name)
		}
	}
	for _, name := range []string{"emit", "emitVia"} {
		if !summary(name).EmitsOutput {
			t.Errorf("%s: EmitsOutput = false, want true", name)
		}
	}
	if summary("renderLocal").EmitsOutput {
		t.Error("renderLocal: EmitsOutput = true, want false (local Builder sink)")
	}
	for _, name := range []string{"dedupe", "dedupeVia"} {
		s := summary(name)
		if len(s.Sorts) == 0 || !s.Sorts[0] {
			t.Errorf("%s: Sorts[0] = false, want true", name)
		}
	}
	runOn := summary("runOn")
	if len(runOn.ReachesGoroutine) == 0 || !runOn.ReachesGoroutine[0] {
		t.Error("runOn: ReachesGoroutine[0] = false, want true")
	}

	if prog.SummaryOf(nil) != nil {
		t.Error("SummaryOf(nil) must be nil (unknown callee)")
	}
}

// TestSCCOrdering pins the bottom-up guarantee analyzers and the summary
// fixpoint rely on: a callee's component comes no later than its caller's,
// and mutually recursive functions share one component.
func TestSCCOrdering(t *testing.T) {
	prog := loadDataflowFixture(t).Prog

	compOf := map[*analysis.FuncNode]int{}
	for i, scc := range prog.SCCs() {
		for _, n := range scc {
			compOf[n] = i
		}
	}
	idx := func(name string) int {
		t.Helper()
		n := prog.FuncNamed(dataflowFixture, name)
		if n == nil {
			t.Fatalf("FuncNamed(%q) = nil", name)
		}
		c, ok := compOf[n]
		if !ok {
			t.Fatalf("%s missing from SCCs()", name)
		}
		return c
	}

	if !(idx("c3") < idx("c2") && idx("c2") < idx("c1")) {
		t.Errorf("SCC order not bottom-up: c3=%d c2=%d c1=%d", idx("c3"), idx("c2"), idx("c1"))
	}
	if idx("relA") != idx("relB") {
		t.Errorf("mutual recursion split across components: relA=%d relB=%d", idx("relA"), idx("relB"))
	}
}

// TestPoolSafeCrossPackageNeedsProgram pins what the Program buys poolsafe:
// a use-after-Release and a double release whose Release lives in another
// package, visible only through the callee's summary.
func TestPoolSafeCrossPackageNeedsProgram(t *testing.T) {
	pkgs, err := analysis.Load(moduleRoot(t),
		"./internal/analysis/testdata/src/poolsafe/xpool/helper",
		"./internal/analysis/testdata/src/poolsafe/xpool/core",
	)
	if err != nil {
		t.Fatal(err)
	}
	var core *analysis.Package
	for _, p := range pkgs {
		if p.Types.Name() == "core" {
			core = p
		}
	}
	if core == nil {
		t.Fatal("core fixture package not loaded")
	}

	diags, err := analysis.Run(analysis.PoolSafe, core)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 2 {
		t.Fatalf("%d findings, want 2 (use-after-release + double release):\n%v", len(diags), diags)
	}
}

// TestSuppressionAudit pins the stale-suppression rules: a used comment is
// kept silent, a live-analyzer comment that suppresses nothing is stale, and
// an unknown analyzer name is always stale.
func TestSuppressionAudit(t *testing.T) {
	pkgs, err := analysis.Load(moduleRoot(t), "./internal/analysis/testdata/src/suppression/sim")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(pkgs))
	}
	diags, err := analysis.RunAll(pkgs[0])
	if err != nil {
		t.Fatal(err)
	}
	wantSubstrings := []string{
		"//lint:ignore detclock",
		"//lint:ignore nosuchcheck",
	}
	if len(diags) != len(wantSubstrings) {
		t.Fatalf("%d diagnostics, want %d:\n%v", len(diags), len(wantSubstrings), diags)
	}
	for _, d := range diags {
		if d.Analyzer != "suppression" {
			t.Errorf("unexpected non-audit diagnostic: %s", d)
		}
	}
	for _, want := range wantSubstrings {
		found := false
		for _, d := range diags {
			if strings.Contains(d.Message, want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no stale report mentioning %q in:\n%v", want, diags)
		}
	}
}
