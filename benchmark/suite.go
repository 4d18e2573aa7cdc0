package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/zhuge-project/zhuge/internal/experiments"
	"github.com/zhuge-project/zhuge/internal/parallel"
)

// goldenPath holds the pinned sha256 of every experiment table at seed 1,
// scale 0.02, relative to the root of the checkout.
const goldenPath = "internal/experiments/testdata/golden_tables.json"

// suiteSeed is the seed every sweep runs the experiments at, whatever --seed
// says. What a sweep costs depends on the experiments' seed far more than on
// the code: over seeds 1 to 10 the same commit's sweep took 6.9 to 9.3 CPU
// seconds (ext-quic alone 0.8 to 1.8, quicsim being quadratic in the packets
// a flow happens to send), a quartile spread of 20 % that no amount of
// repeating takes out. At the pinned seed every sweep of every run is also
// checked against the golden tables. The four simulator workloads beside
// this one are where --seed varies the inputs.
const suiteSeed = 1

// spannedExperiments are the experiments whose wall time is a metric of its
// own; all of them have a span in the trace.
var spannedExperiments = []string{
	"fig4", "fig12", "fig15", "fig16", "fig22", "ext-quic", "chaos-matrix", "campus-sharded",
}

// suiteWorkload runs every registered experiment the way `zhuge-bench -exp
// all` does: experiments fanned over the worker pool on top of each
// experiment's own cell-level parallelism.
type suiteWorkload struct {
	cfg    config
	scale  float64
	exps   []experiments.Experiment
	golden map[string]string // nil at the smoke size, which the golden file does not pin

	// Of the last repeat.
	cells      int64
	mismatches int
	sums       []string
}

func newSuiteWorkload(cfg config) *suiteWorkload {
	w := &suiteWorkload{cfg: cfg, scale: 0.02, exps: experiments.All()}
	if cfg.smoke {
		w.scale = 0.005
		w.exps = nil
		for _, id := range []string{"fig2", "fig7", "ext-selective"} {
			w.exps = append(w.exps, *experiments.ByID(id))
		}
	}
	return w
}

func (w *suiteWorkload) prepare(tr *tracer, parent spanID) error {
	w.golden = nil
	if w.cfg.smoke {
		return nil // the golden file pins scale 0.02 only
	}
	id := tr.begin(parent, "experiments.golden-load")
	defer tr.end(id)
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		return fmt.Errorf("golden tables: %w", err)
	}
	if err := json.Unmarshal(raw, &w.golden); err != nil {
		return fmt.Errorf("golden tables: %s: %w", goldenPath, err)
	}
	return nil
}

// sweep runs every experiment over the given worker count and returns the
// table hashes in registry order.
func (w *suiteWorkload) sweep(tr *tracer, parent spanID, workers int) []string {
	cfg := experiments.Config{Seed: suiteSeed, Scale: w.scale, Workers: workers}
	sums := make([]string, len(w.exps))
	id := tr.begin(parent, "parallel.map")
	parallel.Map(workers, len(w.exps), func(i int) {
		e := tr.begin(id, "experiments."+w.exps[i].ID)
		sums[i] = sha(w.exps[i].Run(cfg).String())
		tr.end(e)
	})
	tr.end(id)
	return sums
}

func (w *suiteWorkload) repeat(tr *tracer, parent spanID) (outcome, error) {
	before := experiments.CellsRun()
	sums := w.sweep(tr, parent, w.cfg.nproc)
	w.sums = sums
	w.cells = experiments.CellsRun() - before
	out := outcome{ops: len(w.exps)}
	var fp strings.Builder
	w.mismatches = 0
	for i, e := range w.exps {
		fmt.Fprintf(&fp, "%s %s\n", e.ID, sums[i])
		if w.golden == nil {
			continue
		}
		if want, ok := w.golden[e.ID]; !ok || want != sums[i] {
			w.mismatches++
			out.failed++
			out.problems = append(out.problems, fmt.Sprintf("table %s is %s, golden %q", e.ID, sums[i], want))
		}
	}
	out.fingerprint = fp.String()
	return out, nil
}

func (w *suiteWorkload) results(r *report) {
	r.set("parallel.cells", float64(w.cells))
	r.set("experiments.golden_mismatches", float64(w.mismatches))
}

func (w *suiteWorkload) layers(rc *runCtx) error {
	r, spans := rc.rep, rc.spans
	for _, id := range spannedExperiments {
		if vs := dursByName(spans, "experiments."+id); len(vs) > 0 {
			r.setMedian("experiments."+id+".wall_s", vs)
		} else if !rc.cfg.smoke {
			return fmt.Errorf("experiment %q is not registered", id)
		} else {
			r.set("experiments."+id+".wall_s", 0) // the smoke size runs three other experiments
		}
	}
	r.set("parallel.efficiency", rc.cpu/(float64(rc.cfg.nproc)*rc.wall))

	// The same sweep on one worker: what the pool buys on these cores.
	id := rc.tr.begin(rc.parent, "suite.one-worker")
	t0 := time.Now()
	sums := w.sweep(nil, noSpan, 1)
	one := time.Since(t0)
	rc.tr.end(id)
	for i, e := range w.exps {
		if sums[i] != w.sums[i] {
			r.Failed++
			r.problem("table %s differs between 1 worker and %d", e.ID, rc.cfg.nproc)
		}
	}
	r.set("parallel.suite_speedup", one.Seconds()/rc.wall)
	return nil
}

func (w *suiteWorkload) close() {}
