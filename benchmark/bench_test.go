package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

const contractFile = "../BENCHMARK.json"

var (
	nameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRe = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestContractMatchesCatalogue pins BENCHMARK.json to the catalogue the
// benchmark reports from: same workloads, same metrics, same units,
// directions and bounds, and every limit the contract's format sets.
func TestContractMatchesCatalogue(t *testing.T) {
	raw, err := os.ReadFile(contractFile)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("BENCHMARK.json lacks %q", k)
		}
		delete(keys, k)
	}
	for k := range keys {
		t.Errorf("BENCHMARK.json has unexpected key %q", k)
	}
	c, err := readContract(contractFile)
	if err != nil {
		t.Fatal(err)
	}

	if got, want := strings.Join(c.Command, " "), "bash benchmark/run.sh"; got != want {
		t.Errorf("command %q, want %q", got, want)
	}
	if len(c.Paths) != 1 || c.Paths[0] != "benchmark" {
		t.Errorf("paths %v, want [benchmark]", c.Paths)
	}
	if c.RunSeconds < 1 || c.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", c.RunSeconds)
	}

	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRe.MatchString(n) {
			t.Errorf("name %q does not match %s", n, nameRe)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(c.Workloads) != len(workloadWhy) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the catalogue", len(c.Workloads), len(workloadWhy))
	}
	for i, w := range c.Workloads {
		name(w.Name)
		if w.Name != workloadWhy[i].name || w.Why != workloadWhy[i].why {
			t.Errorf("workload %d is %+v, catalogue has %+v", i, w, workloadWhy[i])
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
		if _, err := newWorkload(config{workload: w.Name, nproc: 1}); err != nil {
			t.Errorf("workload %s: %v", w.Name, err)
		}
	}

	if len(c.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the catalogue", len(c.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, m := range c.EndToEnd {
		name(m.Name)
		d := endToEnd[i]
		if m.Bound == nil {
			t.Fatalf("end-to-end metric %s has no bound", m.Name)
		}
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || *m.Bound != d.bound {
			t.Errorf("end-to-end metric %d is %s %s %s %v, catalogue has %+v", i, m.Name, m.Unit, m.Better, *m.Bound, d)
		}
		if *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, *m.Bound)
		}
		if !unitRe.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if d.on != "all" {
			t.Errorf("%s: an end-to-end metric must be measured on every workload", d.name)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}

	var listed []metricDef
	for _, d := range perLayer {
		if !nameRe.MatchString(d.name) || !unitRe.MatchString(d.unit) {
			t.Errorf("per-layer metric %q unit %q: bad name or unit", d.name, d.unit)
		}
		if d.better != "lower" && d.better != "higher" {
			t.Errorf("%s: better is %q", d.name, d.better)
		}
		for _, w := range strings.Split(d.on, ",") {
			if w != "all" && !seen[w] {
				t.Errorf("%s: measured on unknown workload %q", d.name, w)
			}
		}
		if d.driver {
			listed = append(listed, d)
			// A listed metric is printed on every workload; one with a time
			// unit that some workload cannot measure would read a constant 0.
			if timeUnit(d.unit) && d.on != "all" {
				t.Errorf("%s: a listed metric in %s must be measured on every workload", d.name, d.unit)
			}
		}
	}
	if len(c.PerLayer) != len(listed) || len(listed) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d listed in the catalogue (limit 128)", len(c.PerLayer), len(listed))
	}
	for i, m := range c.PerLayer {
		name(m.Name)
		d := listed[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != nil {
			t.Errorf("per-layer metric %d is %+v, catalogue has %+v", i, m, d)
		}
	}
}

// TestReadmeNamesEveryMetric keeps README.md's catalogue complete: every
// workload and metric the benchmark can print is named there in backticks
// (the per-experiment wall times as `experiments.<id>.wall_s` plus the id).
func TestReadmeNamesEveryMetric(t *testing.T) {
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(raw)
	named := func(n string) bool { return strings.Contains(readme, "`"+n+"`") }
	for _, w := range workloadNames() {
		if !named(w) {
			t.Errorf("README.md does not name workload %s", w)
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if id, ok := strings.CutPrefix(d.name, "experiments."); ok && strings.HasSuffix(id, ".wall_s") {
			if !named("experiments.<id>.wall_s") || !named(strings.TrimSuffix(id, ".wall_s")) {
				t.Errorf("README.md does not name %s", d.name)
			}
			continue
		}
		if !named(d.name) {
			t.Errorf("README.md does not name metric %s", d.name)
		}
	}
}

func timeUnit(u string) bool {
	switch u {
	case "s", "ms", "us", "ns":
		return true
	}
	return false
}

// TestSmokeEveryWorkload runs each workload at its tiny size, untraced and
// traced, and checks the plumbing: the run is correct, the driver's line
// carries exactly the names BENCHMARK.json lists, the report carries exactly
// the per-layer metrics declared for the workload, and the traced run's span
// tree is well-formed.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload; skipped in -short")
	}
	if err := os.Chdir(".."); err != nil { // the suite reads the golden tables relative to the root
		t.Fatal(err)
	}
	defer os.Chdir("benchmark")
	c, err := readContract("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	t.Setenv("CARGO_TARGET_DIR", t.TempDir()) // where the traced runs write their traces
	measured := map[string]bool{}
	for _, w := range workloadNames() {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: w, seed: 1, smoke: true, traced: traced, nproc: 2}
			rep, err := runWorkload(cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				var buf bytes.Buffer
				rep.print(&buf)
				t.Errorf("%s traced=%v is not correct:\n%s", w, traced, buf.String())
			}
			want := c.EndToEnd
			if traced {
				want = c.PerLayer
			}
			line := rep.driverSummary()
			if len(line.Metrics) != len(want) {
				t.Errorf("%s traced=%v: driver line has %d metrics, BENCHMARK.json lists %d", w, traced, len(line.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := line.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s traced=%v: metric %s is %+v (present %v), want a finite number in %s", w, traced, m.Name, got, ok, m.Unit)
				}
				if !traced && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v, must be positive", w, m.Name, got.Value)
				}
			}
			if raw, err := json.Marshal(line); err != nil || bytes.Contains(raw, []byte("\n")) {
				t.Errorf("%s: driver line does not encode on one line: %v", w, err)
			}
			for n := range rep.Metrics {
				measured[n] = true
			}
			if !traced {
				continue
			}
			for _, d := range perLayer {
				if _, ok := rep.Metrics[d.name]; ok != d.measuredOn(w) {
					t.Errorf("%s: per-layer metric %s present %v, declared %v", w, d.name, ok, d.measuredOn(w))
				}
			}
			checkChromeTrace(t, rep.TraceFile)
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !measured[d.name] {
			t.Errorf("no workload measured %s", d.name)
		}
	}
}

// checkChromeTrace re-reads a written trace the way a viewer would: every
// event is complete, every parent exists and encloses its child, and no self
// time is negative.
func checkChromeTrace(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Args struct {
				ID     int     `json:"id"`
				Parent int     `json:"parent"`
				SelfUS float64 `json:"self_us"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatalf("%s: no events", path)
	}
	const slack = 1e-3 // us: float rounding of nanosecond offsets
	for i, e := range doc.TraceEvents {
		if e.Ph != "X" || e.Args.ID != i || e.Dur < 0 {
			t.Errorf("%s: event %d %q is malformed: %+v", path, i, e.Name, e)
		}
		if e.Args.SelfUS < -slack {
			t.Errorf("%s: event %q has self time %v us", path, e.Name, e.Args.SelfUS)
		}
		if p := e.Args.Parent; p != int(noSpan) {
			if p < 0 || p >= i {
				t.Errorf("%s: event %q has no earlier parent %d", path, e.Name, p)
				continue
			}
			pe := doc.TraceEvents[p]
			if e.Ts < pe.Ts-slack || e.Ts+e.Dur > pe.Ts+pe.Dur+slack {
				t.Errorf("%s: event %q escapes its parent %q", path, e.Name, pe.Name)
			}
		}
	}
}

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "root", Start: 0, End: 100 * ms, Parent: noSpan},
		{Name: "a", Start: 10 * ms, End: 60 * ms, Parent: 0},
		{Name: "b", Start: 40 * ms, End: 80 * ms, Parent: 0}, // overlaps a by 20 ms
		{Name: "a1", Start: 20 * ms, End: 30 * ms, Parent: 1},
	}
	if err := checkTree(spans); err != nil {
		t.Fatal(err)
	}
	self := selfTimes(spans)
	for i, want := range []time.Duration{30 * ms, 40 * ms, 40 * ms, 10 * ms} {
		if self[i] != want {
			t.Errorf("self time of %s is %v, want %v", spans[i].Name, self[i], want)
		}
	}
	if l := lanes(spans); l[1] == l[2] || l[3] != l[1] {
		t.Errorf("lanes %v: overlapping siblings must not share a track, a child keeps its parent's", l)
	}
	spans[3].End = 70 * ms // escapes a
	if checkTree(spans) == nil {
		t.Error("checkTree accepted a child that outlives its parent")
	}
}

// TestStalledCellFails gives cells a budget their flows can never spend: each
// must stop at its limit of simulated time and count as a failed operation,
// not spin for ever.
func TestStalledCellFails(t *testing.T) {
	for _, wl := range []string{"call-rtp", "stream-quic"} {
		w := newCellWorkload(config{workload: wl, seed: 1, smoke: true, nproc: 1})
		w.budget, w.nominal = math.MaxUint64, 250*time.Millisecond
		w.cells = w.cells[:2]
		if err := w.prepare(nil, noSpan); err != nil {
			t.Fatal(err)
		}
		out, err := w.repeat(nil, noSpan)
		if err != nil {
			t.Fatal(err)
		}
		if out.failed != 2 || len(out.problems) != 2 || !strings.Contains(out.problems[0], "stalled") {
			t.Errorf("%s: failed %d, problems %q; want both cells stalled", wl, out.failed, out.problems)
		}
		for _, res := range w.last {
			if limit := stallFactor * w.nominal; !res.stalled || res.simulated > limit+budgetStep {
				t.Errorf("%s: cell stalled %v after %v simulated, limit %v", wl, res.stalled, res.simulated, limit)
			}
		}
	}
}

// TestSuiteReportsTheSeedItUsed: the sweep runs at the pinned seed whatever
// --seed says, and the report says so, so that -compare checks the tables of
// any two suite runs for equality.
func TestSuiteReportsTheSeedItUsed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the smoke suite; skipped in -short")
	}
	rep, err := runWorkload(config{workload: "suite", seed: 7, smoke: true, nproc: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Seed != suiteSeed {
		t.Errorf("suite run with --seed 7 is stamped seed %d, want %d", rep.Seed, suiteSeed)
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4) == [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 37, 2, 29, 4, 22, 7, 16, 11})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles %v %v, want 3.5 31", q1, q3)
	}
	// statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
	if q1, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || q3 != 3 {
		t.Errorf("quartiles of three %v %v, want 1 3", q1, q3)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median %v, want 2.5", m)
	}
}

// TestCompare drives -compare over two written report files: a slowdown
// beyond the bound, a changed simulated count and a failed operation each
// breach; noise within the bound does not.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, wall, events float64, failed int) string {
		r := &report{Workload: "call-rtp", Seed: 1, Fingerprint: "f", Failed: failed, Metrics: map[string]sample{}}
		r.set("setup_s", 1)
		r.set("wall_s", wall)
		r.set("cpu_s", wall)
		r.set("sim.events", events)
		r.finish()
		path := filepath.Join(dir, name)
		if err := r.mergeInto(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", 2.0, 1000, 0)
	for _, tc := range []struct {
		name     string
		wall     float64
		events   float64
		failed   int
		breaches int
	}{
		{"same.json", 2.0, 1000, 0, 0},
		{"noise.json", 2.1, 1000, 0, 0},
		{"faster.json", 1.0, 1000, 0, 0},
		{"slower.json", 3.0, 1000, 0, 1},
		{"changed.json", 2.0, 1001, 0, 1},
		{"failed.json", 2.0, 1000, 2, 1},
	} {
		var out bytes.Buffer
		got, err := compareReports(&out, base, write(tc.name, tc.wall, tc.events, tc.failed), contractFile)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.breaches {
			t.Errorf("%s: %d breaches, want %d\n%s", tc.name, got, tc.breaches, out.String())
		}
	}
}
