package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// contract mirrors the parts of BENCHMARK.json the benchmark itself reads.
type contract struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []contractLoad   `json:"workloads"`
	EndToEnd   []contractMetric `json:"end_to_end"`
	PerLayer   []contractMetric `json:"per_layer"`
}

type contractLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type contractMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readContract(path string) (*contract, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &c, nil
}

// compareReports prints one row per (end-to-end metric, workload) both
// files hold: the relative difference of the medians, b against a, in the
// direction that is worse, against the metric's bound in the contract. Exact
// metrics and fingerprints of runs with the same seed are compared for
// equality. It returns how many rows breach.
func compareReports(w io.Writer, aPath, bPath, contractPath string) (int, error) {
	c, err := readContract(contractPath)
	if err != nil {
		return 0, fmt.Errorf("contract: %w", err)
	}
	a, err := readReportFile(aPath)
	if err != nil {
		return 0, err
	}
	b, err := readReportFile(bPath)
	if err != nil {
		return 0, err
	}
	keys := make([]string, 0, len(a.Runs))
	for k := range a.Runs {
		if _, ok := b.Runs[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	if len(keys) == 0 {
		return 0, fmt.Errorf("%s and %s share no run", aPath, bPath)
	}

	breaches := 0
	fmt.Fprintf(w, "%-20s %-14s %14s %14s %9s %7s  %s\n", "run", "metric", "a", "b", "worse by", "bound", "verdict")
	for _, k := range keys {
		ra, rb := a.Runs[k], b.Runs[k]
		if ra.Failed+rb.Failed > 0 || !ra.Correct || !rb.Correct {
			breaches++
			fmt.Fprintf(w, "%-20s operations failed: a %d, b %d  BREACH\n", k, ra.Failed, rb.Failed)
		}
		for _, m := range c.EndToEnd {
			sa, okA := ra.Metrics[m.Name]
			sb, okB := rb.Metrics[m.Name]
			if !okA || !okB || m.Bound == nil {
				continue
			}
			worse := 0.0
			if sa.Value != 0 {
				worse = (sb.Value - sa.Value) / sa.Value
				if m.Better == "higher" {
					worse = -worse
				}
			}
			verdict := "within"
			switch {
			case worse > *m.Bound:
				verdict = "BREACH"
				breaches++
			case sa.Unresolved || sb.Unresolved:
				verdict = "unresolved (spread exceeds the bound)"
			}
			fmt.Fprintf(w, "%-20s %-14s %14.6g %14.6g %+8.1f%% %6.0f%%  %s\n",
				k, m.Name, sa.Value, sb.Value, worse*100, *m.Bound*100, verdict)
		}
		if ra.Seed != rb.Seed {
			fmt.Fprintf(w, "%-20s seeds differ (%d, %d): simulated results not compared\n", k, ra.Seed, rb.Seed)
			continue
		}
		names := make([]string, 0, len(ra.Metrics))
		for n, s := range ra.Metrics {
			if s.Exact {
				names = append(names, n)
			}
		}
		sort.Strings(names)
		for _, n := range names {
			sb, ok := rb.Metrics[n]
			if !ok {
				continue
			}
			if sa := ra.Metrics[n]; sa.Value != sb.Value {
				breaches++
				fmt.Fprintf(w, "%-20s %-34s %.12g != %.12g  BREACH (exact)\n", k, n, sa.Value, sb.Value)
			}
		}
		if ra.Fingerprint != rb.Fingerprint {
			breaches++
			fmt.Fprintf(w, "%-20s fingerprint %s != %s  BREACH (exact)\n", k, ra.Fingerprint, rb.Fingerprint)
		} else if ra.Fingerprint != "" {
			fmt.Fprintf(w, "%-20s fingerprint and %d exact metrics identical\n", k, len(names))
		}
	}
	fmt.Fprintf(w, "%d breach(es)\n", breaches)
	return breaches, nil
}
