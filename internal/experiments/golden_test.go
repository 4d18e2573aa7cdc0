package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"testing"
)

// goldenRuns holds each experiment's table at the golden scale, 0.02, one
// entry per seed and worker count. Seed 1 is the golden configuration.
var goldenRuns sync.Map // "<id>/<seed>/<workers>" → *goldenRun

type goldenRun struct {
	once sync.Once
	tab  *Table
}

// goldenTable renders e at the golden scale with the given seed and
// workers. Each configuration runs once per test binary: the golden,
// parallelism and table-shape tests, TestClaims and the table checks all
// read the same tables, whichever of them asks first.
func goldenTable(e Experiment, seed int64, workers int) *Table {
	v, _ := goldenRuns.LoadOrStore(fmt.Sprintf("%s/%d/%d", e.ID, seed, workers), new(goldenRun))
	r := v.(*goldenRun)
	r.once.Do(func() { r.tab = e.Run(Config{Seed: seed, Scale: 0.02, Workers: workers}) })
	return r.tab
}

// TestBuilderPreservesSeedTables checks every experiment in All() against
// the fingerprint captured in testdata/golden_tables.json (regenerate with
// internal/experiments/goldengen after an intentional output change). Each
// table is rendered at Config{Seed: 1, Scale: 0.02} with Workers 1 and 8,
// through goldenTable, and both must match. The single-AP tables were
// captured before the topology-graph refactor, so a match proves the
// scenario builder reconstructs the original hard-wired paths
// byte-identically. A miss names the command that renders the table.
func TestBuilderPreservesSeedTables(t *testing.T) {
	if testing.Short() {
		t.Skip("golden sweep is slow; skipped in -short")
	}
	raw, err := os.ReadFile("testdata/golden_tables.json")
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string]string{}
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	ids := map[string]bool{}
	for _, e := range All() {
		e := e
		ids[e.ID] = true
		want, ok := golden[e.ID]
		if !ok {
			t.Errorf("%s: no golden fingerprint; run goldengen and commit the update", e.ID)
			continue
		}
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			for _, workers := range []int{1, 8} {
				sum := sha256.Sum256([]byte(goldenTable(e, 1, workers).String()))
				if got := hex.EncodeToString(sum[:]); got != want {
					t.Errorf("fingerprint %s at -j %d, want %s; `zhuge-bench -exp %s -scale 0.02 -seed 1 -j %d` prints the table", got, workers, want, e.ID, workers)
				}
			}
		})
	}
	// The reverse direction: a stale golden entry for a deleted experiment
	// would silently shrink coverage.
	for id := range golden {
		if !ids[id] {
			t.Errorf("golden entry %q has no registered experiment", id)
		}
	}
}
