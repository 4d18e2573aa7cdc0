// Command zhuge-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	zhuge-bench -list
//	zhuge-bench -exp fig11
//	zhuge-bench -exp all -scale 0.2 -seed 7 -j 8
//
// Every experiment is deterministic for a given (seed, scale) pair,
// regardless of -j: parallelism only changes how cells are scheduled onto
// CPUs, never what they compute. Scale shrinks run durations proportionally
// (1.0 reproduces the full-length runs used in EXPERIMENTS.md; 0.05 gives a
// quick smoke pass).
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"github.com/zhuge-project/zhuge/internal/experiments"
	"github.com/zhuge-project/zhuge/internal/obs"
	"github.com/zhuge-project/zhuge/internal/parallel"
)

func main() {
	var (
		exp     = flag.String("exp", "", "comma-separated experiment IDs to run, or 'all'")
		scale   = flag.Float64("scale", 1.0, "duration scale factor")
		seed    = flag.Int64("seed", 1, "root random seed")
		workers = flag.Int("j", runtime.NumCPU(), "worker count for parallel cells (1 = sequential)")
		list    = flag.Bool("list", false, "list experiment IDs and exit")
		format  = flag.String("format", "table", "output format: table|csv")
		outDir  = flag.String("o", "", "write each table to <dir>/<id>.<ext> instead of stdout")

		matrix      = flag.Bool("matrix", false, "run the full chaos scenario matrix (every solution×fault cell)")
		cellsFilter = flag.String("cells", "", "with -matrix: comma-separated substrings filtering cell IDs (e.g. 'rtp/,loss-50%')")

		metricsOut = flag.String("metrics", "", "write per-cell metrics/prediction-error snapshots (JSON) to this file")
		traceDir   = flag.String("trace", "", "write per-cell Chrome packet traces into this directory (use with small -scale)")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
		statsAddr  = flag.String("stats", "", "serve live run progress (JSON over HTTP) on this address (e.g. localhost:8077)")
	)
	flag.Parse()

	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "zhuge-bench: pprof:", err)
			}
		}()
	}

	if *list || (*exp == "" && !*matrix) {
		fmt.Println("available experiments:")
		for _, e := range experiments.All() {
			fmt.Printf("  %-22s %s\n", e.ID, e.Brief)
		}
		if *exp == "" && !*matrix && !*list {
			os.Exit(2)
		}
		return
	}

	cfg := experiments.Config{Seed: *seed, Scale: *scale, Workers: *workers}
	if *metricsOut != "" || *traceDir != "" {
		cfg.Obs = obs.NewSweep(*traceDir)
	}

	if *matrix {
		runMatrix(cfg, *cellsFilter, *format, *outDir)
		writeSweep(cfg.Obs, *metricsOut)
		return
	}

	if *exp == "all" {
		prog := startProgress(*statsAddr, len(experiments.All()))
		runAll(cfg, *format, *outDir, prog)
		prog.close()
		writeSweep(cfg.Obs, *metricsOut)
		return
	}

	// One or more comma-separated experiment IDs, run in the order given.
	var exps []*experiments.Experiment
	for _, id := range strings.Split(*exp, ",") {
		id = strings.TrimSpace(id)
		if id == "" {
			continue
		}
		e := experiments.ByID(id)
		if e == nil {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", id)
			os.Exit(2)
		}
		exps = append(exps, e)
	}
	if len(exps) == 0 {
		fmt.Fprintln(os.Stderr, "no experiment IDs given; use -list")
		os.Exit(2)
	}
	prog := startProgress(*statsAddr, len(exps))
	for _, e := range exps {
		start := time.Now()
		table := e.Run(cfg)
		prog.completed(e.ID)
		if err := emit(table, *format, *outDir, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "zhuge-bench:", err)
			os.Exit(1)
		}
		fmt.Printf("(%s completed in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	prog.close()
	writeSweep(cfg.Obs, *metricsOut)
}

// runMatrix executes the chaos scenario matrix (optionally filtered) and
// reports cells/sec.
func runMatrix(cfg experiments.Config, filter, format, outDir string) {
	start := time.Now()
	table := experiments.MatrixTable(cfg, filter)
	if err := emit(table, format, outDir, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "zhuge-bench:", err)
		os.Exit(1)
	}
	elapsed := time.Since(start)
	n := len(table.Rows)
	fmt.Printf("matrix done: %d cells, %d workers, %v total (%.2f cells/sec)\n",
		n, parallel.Workers(cfg.Workers), elapsed.Round(time.Millisecond),
		float64(n)/elapsed.Seconds())
}

// benchProgress publishes live sweep progress over the stats plane while
// experiments run: which tables have completed, the global cell counter,
// and elapsed wall time. All methods are nil-safe so the no-stats path
// costs nothing.
type benchProgress struct {
	srv   *obs.StatsServer
	mu    sync.Mutex
	total int
	done  []string
	start time.Time
	quit  chan struct{}
}

func startProgress(addr string, total int) *benchProgress {
	if addr == "" {
		return nil
	}
	srv, err := obs.NewStatsServer(addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "zhuge-bench: stats:", err)
		os.Exit(1)
	}
	p := &benchProgress{srv: srv, total: total, start: time.Now(), quit: make(chan struct{})}
	fmt.Fprintf(os.Stderr, "zhuge-bench: live stats on http://%s\n", srv.Addr())
	p.publish()
	go func() {
		t := time.NewTicker(500 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				p.publish()
			case <-p.quit:
				return
			}
		}
	}()
	return p
}

func (p *benchProgress) publish() {
	if p == nil {
		return
	}
	p.mu.Lock()
	page := map[string]any{
		"experiments_total": p.total,
		"experiments_done":  len(p.done),
		"completed":         append([]string(nil), p.done...),
		"cells_run":         experiments.CellsRun(),
		"elapsed_ms":        time.Since(p.start).Milliseconds(),
	}
	p.mu.Unlock()
	p.srv.Publish("progress", page)
}

// completed records one finished experiment and pushes a fresh page.
func (p *benchProgress) completed(id string) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.done = append(p.done, id)
	p.mu.Unlock()
	p.publish()
}

// close publishes the final page and shuts the listener down.
func (p *benchProgress) close() {
	if p == nil {
		return
	}
	close(p.quit)
	p.publish()
	p.srv.Close()
}

// writeSweep exports the per-cell observability snapshots collected during
// the run. Per-cell Chrome traces (when -trace is set) were already written
// as each cell finished; this adds the -metrics JSON index over all cells.
func writeSweep(s *obs.Sweep, metricsOut string) {
	if s == nil || metricsOut == "" {
		return
	}
	f, err := os.Create(metricsOut)
	if err == nil {
		err = s.WriteJSON(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "zhuge-bench: metrics:", err)
		os.Exit(1)
	}
	fmt.Printf("per-cell metrics written to %s\n", metricsOut)
}

// runAll executes every experiment, fanning them across the worker pool on
// top of each experiment's own cell-level parallelism, and streams results
// in registry order as they complete.
func runAll(cfg experiments.Config, format, outDir string, prog *benchProgress) {
	all := experiments.All()
	start := time.Now()

	type result struct {
		out     []byte
		err     error
		elapsed time.Duration
	}
	results := make([]result, len(all))
	done := make([]chan struct{}, len(all))
	for i := range done {
		done[i] = make(chan struct{})
	}

	go parallel.Map(cfg.Workers, len(all), func(i int) {
		defer close(done[i])
		t0 := time.Now()
		table := all[i].Run(cfg)
		var buf bytes.Buffer
		err := emit(table, format, outDir, &buf)
		results[i] = result{out: buf.Bytes(), err: err, elapsed: time.Since(t0)}
	})

	for i, e := range all {
		<-done[i]
		r := results[i]
		if r.err != nil {
			fmt.Fprintln(os.Stderr, "zhuge-bench:", r.err)
			os.Exit(1)
		}
		os.Stdout.Write(r.out)
		prog.completed(e.ID)
		fmt.Printf("(%s completed in %v)\n\n", e.ID, r.elapsed.Round(time.Millisecond))
	}

	fmt.Printf("all done: %d experiments, %d cells, %d workers, %v total\n",
		len(all), experiments.CellsRun(), parallel.Workers(cfg.Workers),
		time.Since(start).Round(time.Millisecond))
}

// emit writes one result table in the chosen format: to a file under dir
// when dir is set, otherwise to stdout (which callers may buffer).
func emit(t *experiments.Table, format, dir string, stdout io.Writer) error {
	ext := "txt"
	if format == "csv" {
		ext = "csv"
	}
	w := stdout
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		f, err := os.Create(filepath.Join(dir, t.ID+"."+ext))
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if format == "csv" {
		return t.WriteCSV(w)
	}
	_, err := fmt.Fprintln(w, t)
	return err
}
