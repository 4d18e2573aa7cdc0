package analysis_test

import (
	"path/filepath"
	"testing"

	"github.com/zhuge-project/zhuge/internal/analysis"
	"github.com/zhuge-project/zhuge/internal/analysis/analysistest"
)

// moduleRoot locates the repository root (the package lives two levels
// below it).
func moduleRoot(t *testing.T) string {
	t.Helper()
	abs, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	return abs
}

func TestDetClock(t *testing.T) {
	analysistest.Run(t, moduleRoot(t), analysis.DetClock,
		"./internal/analysis/testdata/src/detclock/sim",
		// The allowlist boundary: same code, liveap package, zero findings.
		"./internal/analysis/testdata/src/detclock/liveap",
		// The chaos segment classifies as deterministic too.
		"./internal/analysis/testdata/src/detclock/chaos",
	)
}

func TestDetRand(t *testing.T) {
	analysistest.Run(t, moduleRoot(t), analysis.DetRand,
		"./internal/analysis/testdata/src/detrand/wireless",
		// The blessed-helper boundary: LabeledRand clean, rogue flagged.
		"./internal/analysis/testdata/src/detrand/sim",
		// Injector loss draws: injected *rand.Rand legal, global flagged.
		"./internal/analysis/testdata/src/detrand/chaos",
	)
}

// TestAnalyzersAreLive proves the gate is not vacuous: each analyzer must
// produce at least one diagnostic on its negative fixtures. A refactor
// that silently turns an analyzer into a no-op fails here even if the
// expectation matching above were also broken.
func TestAnalyzersAreLive(t *testing.T) {
	root := moduleRoot(t)
	fixtures := map[string]string{
		"detclock": "./internal/analysis/testdata/src/detclock/sim",
		"detrand":  "./internal/analysis/testdata/src/detrand/wireless",
	}
	if len(fixtures) != len(analysis.Analyzers) {
		t.Fatalf("fixture map covers %d analyzers, suite has %d", len(fixtures), len(analysis.Analyzers))
	}
	for _, a := range analysis.Analyzers {
		dir, ok := fixtures[a.Name]
		if !ok {
			t.Fatalf("no negative fixture registered for analyzer %s", a.Name)
		}
		analysistest.MustBeLive(t, root, a, dir)
	}
}

// TestTreeIsClean is the local twin of the CI gate: the whole repository
// must pass the full suite with zero findings.
func TestTreeIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	pkgs, err := analysis.Load(moduleRoot(t), "./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		diags, err := analysis.Run(pkg, analysis.Analyzers...)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range diags {
			t.Errorf("%s", d)
		}
	}
}

func TestDeterministicPkgClassification(t *testing.T) {
	cases := []struct {
		path string
		det  bool
	}{
		{"github.com/zhuge-project/zhuge/internal/sim", true},
		{"github.com/zhuge-project/zhuge/internal/wireless", true},
		{"github.com/zhuge-project/zhuge/internal/core", true},
		{"github.com/zhuge-project/zhuge/internal/queue", true},
		{"github.com/zhuge-project/zhuge/internal/netem", true},
		{"github.com/zhuge-project/zhuge/internal/cca", true},
		{"github.com/zhuge-project/zhuge/internal/transport/quicsim", true},
		{"github.com/zhuge-project/zhuge/internal/transport/tcpsim", true},
		{"github.com/zhuge-project/zhuge/internal/transport/rtp", true},
		{"github.com/zhuge-project/zhuge/internal/video", true},
		{"github.com/zhuge-project/zhuge/internal/trace", true},
		{"github.com/zhuge-project/zhuge/internal/experiments", true},
		{"github.com/zhuge-project/zhuge/internal/scenario", true},
		{"github.com/zhuge-project/zhuge/internal/chaos", true},
		{"github.com/zhuge-project/zhuge/internal/shard", true},

		{"github.com/zhuge-project/zhuge/internal/liveap", false},
		{"github.com/zhuge-project/zhuge/internal/parallel", false},
		{"github.com/zhuge-project/zhuge/internal/obs", false},
		{"github.com/zhuge-project/zhuge/internal/analysis", false},
		{"github.com/zhuge-project/zhuge/cmd/zhuge-sim", false},
		{"github.com/zhuge-project/zhuge/examples/quickstart", false},

		// Fixtures classify by their final segment.
		{"github.com/zhuge-project/zhuge/internal/analysis/testdata/src/detclock/sim", true},
		{"github.com/zhuge-project/zhuge/internal/analysis/testdata/src/detclock/liveap", false},
	}
	for _, c := range cases {
		if got := analysis.DeterministicPkg(c.path); got != c.det {
			t.Errorf("DeterministicPkg(%q) = %v, want %v", c.path, got, c.det)
		}
	}
}
