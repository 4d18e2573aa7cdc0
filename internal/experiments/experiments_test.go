package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// TestAllExperimentsProduceRows checks that every experiment's Workers 1
// table at the golden configuration is well formed. At a larger scale the
// tables would be the same for all but fig3b and campus-sharded, because
// Config.dur floors each run.
func TestAllExperimentsProduceRows(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tab := goldenTable(e, 1, 1)
			if tab.ID != e.ID {
				t.Errorf("table ID %q != experiment ID %q", tab.ID, e.ID)
			}
			if len(tab.Rows) == 0 {
				t.Fatal("no rows")
			}
			for _, r := range tab.Rows {
				if len(r) > len(tab.Header) {
					t.Fatalf("row wider than header: %v", r)
				}
			}
			if tab.String() == "" {
				t.Error("empty rendering")
			}
		})
	}
}

func TestByID(t *testing.T) {
	if ByID("fig11") == nil {
		t.Error("fig11 missing")
	}
	if ByID("nope") != nil {
		t.Error("unknown ID should be nil")
	}
}

func TestWriteCSV(t *testing.T) {
	tab := &Table{
		ID:     "x",
		Header: []string{"a", "b"},
		Rows:   [][]string{{"1", "two, quoted \"here\""}},
	}
	var sb strings.Builder
	if err := tab.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	want := "a,b\n1,\"two, quoted \"\"here\"\"\"\n"
	if sb.String() != want {
		t.Errorf("csv = %q, want %q", sb.String(), want)
	}
}

// TestFig13CCDFMonotone checks that the golden fig13-ccdf table is well
// formed: twelve curves, each a decreasing step function.
func TestFig13CCDFMonotone(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	tab := goldenTable(*ByID("fig13-ccdf"), 1, 1)
	// Per (trace, solution, metric) group the fractions must decrease as
	// values increase.
	lastVal := map[string]float64{}
	lastFrac := map[string]float64{}
	for _, r := range tab.Rows {
		key := r[0] + "/" + r[1] + "/" + r[2]
		v, _ := strconv.ParseFloat(r[3], 64)
		f, _ := strconv.ParseFloat(r[4], 64)
		if prev, ok := lastVal[key]; ok {
			if v <= prev {
				t.Fatalf("%s: values not increasing (%v after %v)", key, v, prev)
			}
			if f > lastFrac[key] {
				t.Fatalf("%s: fractions not decreasing", key)
			}
		}
		lastVal[key], lastFrac[key] = v, f
	}
	if len(lastVal) != 12 { // 2 traces x 3 solutions x 2 metrics
		t.Errorf("curve groups = %d, want 12", len(lastVal))
	}
}

// TestCampusShardedMigrates keeps the campus-sharded invariance rows from
// going vacuous: at golden scale every row must agree on every metric
// column, and the 2-shard dynamic row must have migrated at least one cell
// (migration is the only thing that moves a cell off the contiguous split).
func TestCampusShardedMigrates(t *testing.T) {
	tab := goldenTable(*ByID("campus-sharded"), 1, 1)
	migrated, want := false, strings.Join(tab.Rows[0][2:], " ")
	for _, r := range tab.Rows {
		if got := strings.Join(r[2:], " "); got != want {
			t.Errorf("row %s/%s = %s, want %s", r[0], r[1], got, want)
		}
		if r[0] == "2" && strings.HasPrefix(r[1], "dynamic(") && r[1] != "dynamic(0)" {
			migrated = true
		}
	}
	if !migrated {
		t.Errorf("no 2-shard dynamic(N>0) row in:\n%s", tab.String())
	}
}
