package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/zhuge-project/zhuge/internal/obs"
	"github.com/zhuge-project/zhuge/internal/scenario"
	"github.com/zhuge-project/zhuge/internal/trace"
)

// goldenSweep runs a 4-cell Zhuge sweep through runCells with full
// observability, writing per-cell Chrome traces into dir and returning each
// cell's JSONL packet trace. Everything but wall-clock timing must be
// byte-identical at any worker count.
func goldenSweep(t *testing.T, workers int, dir string) (jsonl [][]byte, sweep *obs.Sweep) {
	t.Helper()
	sweep = obs.NewSweep(dir)
	cfg := Config{Seed: 1, Scale: 1, Workers: workers, Obs: sweep}
	tab := &Table{ID: "golden", Header: []string{"cell"}}
	const n = 4
	jsonl = make([][]byte, n)
	runCells(cfg, tab, n, func(i int, o *obs.Obs) [][]string {
		tr := trace.Constant("golden", 10e6, 5*time.Second)
		p := scenario.NewPath(scenario.Options{
			Obs: o, Seed: cfg.Seed + int64(i), Trace: tr,
			Solution: scenario.SolutionZhuge,
		})
		p.AddFlow(scenario.FlowSpec{Kind: "rtp"})
		p.Run(5 * time.Second)
		var buf bytes.Buffer
		if err := o.Trace().WriteJSONL(&buf); err != nil {
			t.Error(err)
		}
		jsonl[i] = buf.Bytes()
		return [][]string{{fmt.Sprint(i)}}
	})
	return jsonl, sweep
}

// TestObsGoldenParallelism is the observability half of the -j contract:
// per-cell JSONL packet traces, per-cell Chrome trace files and per-cell
// metrics snapshots are byte-identical whether the sweep runs on 1 worker or
// 8.
func TestObsGoldenParallelism(t *testing.T) {
	dirSeq, dirPar := t.TempDir(), t.TempDir()
	seqJSONL, seqSweep := goldenSweep(t, 1, dirSeq)
	parJSONL, parSweep := goldenSweep(t, 8, dirPar)

	for i := range seqJSONL {
		if len(seqJSONL[i]) == 0 {
			t.Fatalf("cell %d recorded no events", i)
		}
		if !bytes.Equal(seqJSONL[i], parJSONL[i]) {
			t.Errorf("cell %d JSONL differs between -j 1 and -j 8", i)
		}
	}

	for i := 0; i < len(seqJSONL); i++ {
		name := fmt.Sprintf("golden-cell%d.trace.json", i)
		seq, err := os.ReadFile(filepath.Join(dirSeq, name))
		if err != nil {
			t.Fatalf("missing sequential trace file: %v", err)
		}
		par, err := os.ReadFile(filepath.Join(dirPar, name))
		if err != nil {
			t.Fatalf("missing parallel trace file: %v", err)
		}
		if !bytes.Equal(seq, par) {
			t.Errorf("%s differs between -j 1 and -j 8", name)
		}
		if !json.Valid(seq) {
			t.Errorf("%s is not valid JSON", name)
		}
	}

	if !bytes.Equal(sweepStable(t, seqSweep, dirSeq), sweepStable(t, parSweep, dirPar)) {
		t.Error("per-cell metrics snapshots differ between -j 1 and -j 8")
	}
}

// sweepStable renders a sweep's JSON with the run-dependent parts (elapsed
// wall-clock, absolute trace paths) normalised away.
func sweepStable(t *testing.T, s *obs.Sweep, dir string) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var cells []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &cells); err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		delete(c, "elapsed_ms")
		if f, ok := c["trace_file"].(string); ok {
			c["trace_file"] = filepath.Base(f)
		}
	}
	out, err := json.Marshal(cells)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestObsPredErrReported pins the acceptance criterion that a Zhuge run
// joins predictions against actual latencies: the sweep's prediction-error
// rows carry per-flow quantiles and the feedback-mode label.
func TestObsPredErrReported(t *testing.T) {
	_, sweep := goldenSweep(t, 2, "")
	var buf bytes.Buffer
	if err := sweep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var cells []obs.SweepCell
	if err := json.Unmarshal(buf.Bytes(), &cells); err != nil {
		t.Fatal(err)
	}
	if len(cells) != 4 {
		t.Fatalf("cells = %d, want 4", len(cells))
	}
	for _, c := range cells {
		if len(c.PredErr) == 0 {
			t.Fatalf("cell %d has no prediction-error rows", c.Cell)
		}
		row := c.PredErr[0]
		if row.N == 0 || row.P95 < row.P50 || row.P99 < row.P95 {
			t.Errorf("cell %d malformed quantiles: %+v", c.Cell, row)
		}
		if row.Mode != "inband" {
			t.Errorf("cell %d mode = %q, want inband (RTP flow)", c.Cell, row.Mode)
		}
		if c.Metrics.Counters["ft.predictions"] == 0 {
			t.Errorf("cell %d did not export Fortune Teller counters", c.Cell)
		}
		if c.Metrics.Counters["downlink.delivered"] == 0 {
			t.Errorf("cell %d did not export wireless counters", c.Cell)
		}
	}
}

// TestRecordFailureGoesToStderr pins where runCells reports a cell whose
// trace file cannot be written: on stderr, never on stdout, which is the
// table zhuge-bench is streaming.
func TestRecordFailureGoesToStderr(t *testing.T) {
	dir := t.TempDir()
	blocker := filepath.Join(dir, "not-a-dir")
	if err := os.WriteFile(blocker, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	capture := func(name string, std **os.File) func() string {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		orig := *std
		*std = f
		return func() string {
			*std = orig
			f.Close()
			b, _ := os.ReadFile(f.Name())
			return string(b)
		}
	}
	stdout, stderr := capture("stdout", &os.Stdout), capture("stderr", &os.Stderr)
	cfg := Config{Seed: 1, Scale: 1, Workers: 1, Obs: obs.NewSweep(filepath.Join(blocker, "traces"))}
	runCells(cfg, &Table{ID: "boom"}, 1, func(int, *obs.Obs) [][]string { return nil })
	out, errOut := stdout(), stderr()
	if out != "" {
		t.Errorf("stdout got %q, want nothing", out)
	}
	if !bytes.Contains([]byte(errOut), []byte("warning: obs record boom cell 0:")) {
		t.Errorf("stderr got %q, want the record warning", errOut)
	}
}

// TestFig19RecordsEveryCell pins that Fig. 19 runs through runCells: with
// Config.Obs set, each of its five trace cells is recorded, and the
// recorded bundle is the one its Zhuge AP reported into.
func TestFig19RecordsEveryCell(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run")
	}
	sweep := obs.NewSweep("")
	Fig19(Config{Seed: 1, Scale: 0.02, Workers: 2, Obs: sweep})
	var buf bytes.Buffer
	if err := sweep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var cells []obs.SweepCell
	if err := json.Unmarshal(buf.Bytes(), &cells); err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, c := range cells {
		if c.Experiment != "fig19" {
			continue
		}
		n++
		if c.Metrics.Counters["ft.predictions"] == 0 {
			t.Errorf("fig19 cell %d recorded no Fortune Teller predictions", c.Cell)
		}
	}
	if n != 5 {
		t.Fatalf("recorded %d fig19 cells, want 5", n)
	}
}
