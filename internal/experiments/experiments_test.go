package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// tiny returns a configuration small enough for unit tests.
func tiny() Config { return Config{Seed: 1, Scale: 0.05} }

func parsePct(s string) float64 {
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		return -1
	}
	return v / 100
}

func parseSecs(s string) float64 {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return -1
	}
	return v
}

// rowsBy indexes table rows by the first n columns joined with "/".
func rowsBy(t *Table, n int) map[string][]string {
	m := make(map[string][]string)
	for _, r := range t.Rows {
		m[strings.Join(r[:n], "/")] = r
	}
	return m
}

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
			tab := goldenTable(e, 1)
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

// TestFig2Shape pins the paper's motivation claim: wireless tails are far
// worse than Ethernet's while medians stay comparable.
func TestFig2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	tab := Fig2(Config{Seed: 1, Scale: 0.25})
	rows := rowsBy(tab, 1)
	wifi, eth := rows["WiFi"], rows["Ethernet"]
	if wifi == nil || eth == nil {
		t.Fatal("missing rows")
	}
	if parsePct(wifi[3]) <= parsePct(eth[3]) {
		t.Errorf("WiFi tail %s should exceed Ethernet %s", wifi[3], eth[3])
	}
}

// TestFig3aShape: the queue builds after the drop and drains later.
func TestFig3aShape(t *testing.T) {
	tab := Fig3a(tiny())
	maxKB, atStart := 0.0, 0.0
	for i, r := range tab.Rows {
		kb := parseSecs(r[1])
		if i == 0 {
			atStart = kb
		}
		if kb > maxKB {
			maxKB = kb
		}
	}
	if maxKB <= atStart+10 {
		t.Errorf("queue never built: start %.1fKB max %.1fKB", atStart, maxKB)
	}
}

// TestFig7Shape pins the estimator story: right after the drop, qShort
// dominates the increase; later qLong takes over.
func TestFig7Shape(t *testing.T) {
	tab := Fig7(Config{Seed: 1})
	get := func(row int, col int) float64 { return parseSecs(tab.Rows[row][col]) }
	// Row index == millisecond. At t=8ms (3ms after drop) qShort should
	// already exceed its pre-drop value and dominate qLong's increase.
	preQShort := get(4, 2)
	postQShort := get(8, 2)
	if postQShort <= preQShort {
		t.Errorf("qShort did not react: %.2f -> %.2f", preQShort, postQShort)
	}
	// By t=25ms total delay must be well above pre-drop.
	if get(25, 4) < 2*get(4, 4)+1 {
		t.Errorf("total prediction did not grow: %v -> %v", get(4, 4), get(25, 4))
	}
}

// TestFig11Shape pins the headline: on every trace Zhuge beats the best
// baseline on the RTT tail (the paper reports 45-75% reductions).
func TestFig11Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	tab := Fig11(Config{Seed: 1, Scale: 0.2})
	rows := rowsBy(tab, 2)
	traces := map[string]bool{}
	for _, r := range tab.Rows {
		traces[r[0]] = true
	}
	wins := 0
	total := 0
	for tr := range traces {
		fifo := parsePct(rows[tr+"/Gcc+FIFO"][2])
		codel := parsePct(rows[tr+"/Gcc+CoDel"][2])
		zhuge := parsePct(rows[tr+"/Gcc+Zhuge"][2])
		best := fifo
		if codel < best {
			best = codel
		}
		total++
		if zhuge <= best {
			wins++
		}
		t.Logf("%s: fifo=%.3f codel=%.3f zhuge=%.3f", tr, fifo, codel, zhuge)
	}
	if wins < total-1 { // allow one trace of noise at reduced scale
		t.Errorf("Zhuge won on %d/%d traces; expected near-sweep", wins, total)
	}
}

// TestFig14Shape: Zhuge shortens RTP degradation durations versus FIFO for
// the mid-range drops the paper highlights (k in [5, 20]).
func TestFig14Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	tab := ByID("fig14").Run(Config{Seed: 1, Scale: 0.34})
	rows := rowsBy(tab, 2)
	better := 0
	checked := 0
	for _, k := range []string{"5x", "10x", "20x"} {
		fifo := parseSecs(rows["Gcc+FIFO/"+k][2])
		zhuge := parseSecs(rows["Gcc+Zhuge/"+k][2])
		checked++
		if zhuge < fifo {
			better++
		}
		t.Logf("k=%s: fifo=%.2fs zhuge=%.2fs", k, fifo, zhuge)
	}
	if better < checked-1 {
		t.Errorf("Zhuge shortened degradation in %d/%d mid-range drops", better, checked)
	}
}

// TestFig20Shape: external fairness — with one of two identical flows
// optimised, goodputs stay close (paper: <3% difference).
func TestFig20Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	tab := Fig20(Config{Seed: 1, Scale: 0.2})
	for _, r := range tab.Rows {
		if r[1] != "b(one)" {
			continue
		}
		diff := parsePct(r[6])
		if diff > 0.20 {
			t.Errorf("%s bar b goodput difference %.1f%%, want small", r[0], diff*100)
		}
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

func TestFig13CCDFMonotone(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	tab := Fig13CCDF(tiny())
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
	tab := CampusSharded(Config{Seed: 1, Scale: 0.02})
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
