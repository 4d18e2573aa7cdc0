package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"sort"
)

// sample is one reported metric: a single value, or the median of several
// with their quartiles and count.
type sample struct {
	Value      float64   `json:"value"`
	Unit       string    `json:"unit"`
	Q1         float64   `json:"q1,omitempty"`
	Q3         float64   `json:"q3,omitempty"`
	N          int       `json:"n,omitempty"`
	Samples    []float64 `json:"samples,omitempty"` // every repeat, in the order made
	Exact      bool      `json:"exact,omitempty"`
	Unresolved bool      `json:"unresolved,omitempty"`
}

// report is everything one run of one workload measured.
type report struct {
	Workload    string            `json:"workload"`
	Seed        int64             `json:"seed"`
	Seconds     float64           `json:"seconds"`
	Traced      bool              `json:"traced"`
	Smoke       bool              `json:"smoke,omitempty"`
	Machine     machineStamp      `json:"machine"`
	Correct     bool              `json:"correct"`
	Attempted   int               `json:"attempted"`
	Failed      int               `json:"failed"`
	Fingerprint string            `json:"fingerprint_sha256,omitempty"`
	Problems    []string          `json:"problems,omitempty"`
	TraceFile   string            `json:"trace_file,omitempty"`
	Metrics     map[string]sample `json:"metrics"`
}

// problem records a failed correctness check; any problem makes the run
// incorrect and the command exit non-zero.
func (r *report) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// account adds one pass's operations and failed checks to the run's.
func (r *report) account(out outcome, what string) {
	r.Attempted += out.ops
	r.Failed += out.failed
	for _, p := range out.problems {
		r.problem("%s: %s", what, p)
	}
}

func (r *report) put(name string, s sample) {
	d, ok := findMetric(name)
	switch {
	case !ok:
		r.problem("benchmark bug: metric %q is not in the catalogue", name)
		return
	case !d.measuredOn(r.Workload):
		r.problem("benchmark bug: metric %q is not declared for workload %s", name, r.Workload)
		return
	}
	if _, dup := r.Metrics[name]; dup {
		r.problem("benchmark bug: metric %q reported twice", name)
		return
	}
	s.Unit, s.Exact = d.unit, d.exact
	r.Metrics[name] = s
}

// set reports a single value.
func (r *report) set(name string, v float64) { r.put(name, sample{Value: v}) }

// setFrom reports v, estimated from the repeats vs, with their quartiles and
// count. A metric that has a bound and whose repeats' quartile spread exceeds
// it is marked unresolved: this run cannot settle a comparison at that bound.
func (r *report) setFrom(name string, v float64, vs []float64) {
	q1, q3 := quartiles(vs)
	s := sample{Value: v, Q1: q1, Q3: q3, N: len(vs), Samples: vs}
	if d, ok := findMetric(name); ok && d.bound > 0 && iqrShare(vs) > d.bound {
		s.Unresolved = true
	}
	r.put(name, s)
}

// setMedian reports the median of vs.
func (r *report) setMedian(name string, vs []float64) { r.setFrom(name, median(vs), vs) }

// driverLine is the one-object summary the driver reads from the last line
// of standard output.
type driverLine struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// declared is what this kind of run must measure: the end-to-end metrics
// untraced, the per-layer ones traced.
func (r *report) declared() []metricDef {
	if r.Traced {
		return perLayer
	}
	return endToEnd
}

// driverSummary picks the metrics BENCHMARK.json lists for this kind of
// run: every end-to-end metric untraced, every listed per-layer metric
// traced. A listed per-layer metric this workload does not measure reads 0.
func (r *report) driverSummary() driverLine {
	out := driverLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed,
		Metrics: map[string]driverMetric{}}
	for _, d := range r.declared() {
		if r.Traced && !d.driver {
			continue
		}
		out.Metrics[d.name] = driverMetric{Value: r.Metrics[d.name].Value, Unit: d.unit}
	}
	return out
}

// finish settles correctness: declared metrics must all be present, and no
// problem may have been recorded.
func (r *report) finish() {
	for _, d := range r.declared() {
		if _, ok := r.Metrics[d.name]; !ok && d.measuredOn(r.Workload) {
			r.problem("benchmark bug: metric %q was not measured", d.name)
		}
	}
	r.Correct = len(r.Problems) == 0 && r.Failed == 0
}

// print writes the human-readable report.
func (r *report) print(w io.Writer) {
	m := r.Machine
	kind := "untraced (end-to-end)"
	if r.Traced {
		kind = "traced (per-layer)"
	}
	fmt.Fprintf(w, "workload %s  seed %d  %s  measuring %.0f s\n", r.Workload, r.Seed, kind, r.Seconds)
	fmt.Fprintf(w, "machine  commit %s  %s  cpu %q  nproc %d  GOMAXPROCS %d  load1 %.2f  %s\n",
		m.Commit, m.GoVersion, m.CPU, m.NProc, m.GOMAXPROCS, m.LoadAvg1, m.Network)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s := r.Metrics[n]
		line := fmt.Sprintf("  %-36s %16.6g %-6s", n, s.Value, s.Unit)
		if s.N > 1 {
			line += fmt.Sprintf("  q1 %.6g  q3 %.6g  n %d", s.Q1, s.Q3, s.N)
		}
		if s.Exact {
			line += "  exact"
		}
		if s.Unresolved {
			line += "  UNRESOLVED (quartile spread of the repeats exceeds the bound)"
		}
		fmt.Fprintln(w, line)
	}
	if r.Fingerprint != "" {
		fmt.Fprintf(w, "fingerprint sha256 %s\n", r.Fingerprint)
	}
	if r.TraceFile != "" {
		fmt.Fprintf(w, "trace written to %s (open at https://ui.perfetto.dev)\n", r.TraceFile)
	}
	fmt.Fprintf(w, "operations attempted %d  failed %d\n", r.Attempted, r.Failed)
	for _, p := range r.Problems {
		fmt.Fprintf(w, "FAILED CHECK: %s\n", p)
	}
}

// reportFile is what -report writes: the runs of one set, keyed so that a
// workload's untraced and traced runs sit side by side.
type reportFile struct {
	Runs map[string]*report `json:"runs"`
}

func (r *report) key() string {
	if r.Traced {
		return r.Workload + "/traced"
	}
	return r.Workload
}

func readReportFile(path string) (*reportFile, error) {
	rf := &reportFile{Runs: map[string]*report{}}
	raw, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return rf, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(raw, rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rf.Runs == nil {
		rf.Runs = map[string]*report{}
	}
	return rf, nil
}

// mergeInto adds r to the report file at path, replacing an earlier run of
// the same workload and kind.
func (r *report) mergeInto(path string) error {
	rf, err := readReportFile(path)
	if err != nil {
		return err
	}
	rf.Runs[r.key()] = r
	raw, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
