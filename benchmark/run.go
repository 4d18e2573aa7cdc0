package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// setupBudget bounds the set-up rounds: no new round starts once they have
// taken this long together.
const setupBudget = 3 * time.Second

// config is one invocation of the benchmark.
type config struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	smoke    bool
	// nproc is the shards and workers the parallel workloads use: every
	// core of the machine. Only the tests set another value.
	nproc int
}

// outcome is what one repeat of a workload produced.
type outcome struct {
	ops    int // operations attempted: cells, tables or packets
	failed int // operations whose own check failed
	// parts splits the repeat's wall seconds into the pieces that are timed
	// one by one (the cells of a scenario workload); nil means one piece.
	parts []float64
	// fingerprint covers every simulated output of the repeat; repeats of
	// one seed must agree on it. Empty for the relay, whose outputs are
	// wall-clock measurements.
	fingerprint string
	problems    []string
}

// workload is one named load. The runner owns timing, repetition and the
// reference fingerprint; the workload owns its inputs and its layers.
type workload interface {
	// prepare builds the inputs from the seed, replacing earlier ones.
	prepare(tr *tracer, parent spanID) error
	// repeat runs the load once. With a tracer it records spans around the
	// calls into each package and whatever else its layers need.
	repeat(tr *tracer, parent spanID) (outcome, error)
	// results reports what the repeats produced apart from their timing:
	// simulated results and counts.
	results(r *report)
	// layers makes the traced run's extra passes and reports the
	// workload's own timed per-layer metrics.
	layers(rc *runCtx) error
	close()
}

// runCtx is what a workload's layers sees of the traced run.
type runCtx struct {
	cfg    config
	rep    *report
	tr     *tracer
	parent spanID // the span extra passes and drills nest under
	spans  []span // snapshot taken after the repeats
	runs   []int  // run ids of the traced repeats
	// Floor wall and CPU seconds of the untraced repeats made between them.
	wall, cpu float64
}

// perRun evaluates f on each traced repeat and returns the values.
func (rc *runCtx) perRun(f func(run int) float64) []float64 {
	out := make([]float64, len(rc.runs))
	for i, r := range rc.runs {
		out[i] = f(r)
	}
	return out
}

func newWorkload(cfg config) (workload, error) {
	switch cfg.workload {
	case "call-rtp", "stream-tcp", "stream-quic":
		return newCellWorkload(cfg), nil
	case "campus":
		return newCampusWorkload(cfg), nil
	case "suite":
		return newSuiteWorkload(cfg), nil
	case "relay-flood", "relay-shaped":
		return newRelayWorkload(cfg), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", cfg.workload, strings.Join(workloadNames(), ", "))
}

func sha(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// measured is one repeat with its wall and CPU seconds.
type measured struct {
	outcome
	wall, cpu float64
}

// timed runs one repeat. A workload that does not split its repeat into
// parts has one part: the whole repeat.
func timed(w workload, tr *tracer, parent spanID) (measured, error) {
	cpu0, t0 := cpuTime(), time.Now()
	out, err := w.repeat(tr, parent)
	m := measured{outcome: out, wall: time.Since(t0).Seconds(), cpu: (cpuTime() - cpu0).Seconds()}
	if m.parts == nil {
		m.parts = []float64{m.wall}
	}
	return m, err
}

// floor is the benchmark's estimate of what a repeat costs on an undisturbed
// host. Noise on a shared machine only ever adds time, and it comes and goes
// within a run, so the fastest observation of each part, summed over the
// parts, is far steadier from run to run than the median repeat (README.md
// has the measurements behind that choice). Every repeat of a seed does
// identical work, so nothing but the host differs between the observations.
type floor struct {
	parts []float64 // fastest wall seconds seen per part
	cpu   float64   // least CPU seconds seen for a whole repeat
	walls []float64 // every repeat's wall seconds, for the spread
}

func (f *floor) add(m measured) {
	if f.parts == nil {
		f.parts = append([]float64(nil), m.parts...)
		f.cpu = m.cpu
	}
	for i, p := range m.parts {
		if p < f.parts[i] {
			f.parts[i] = p
		}
	}
	if m.cpu < f.cpu {
		f.cpu = m.cpu
	}
	f.walls = append(f.walls, m.wall)
}

func (f *floor) wall() float64 {
	var s float64
	for _, p := range f.parts {
		s += p
	}
	return s
}

// runWorkload measures one workload and returns its report. An error means
// the benchmark could not run; failed checks are in the report.
func runWorkload(cfg config) (*report, error) {
	if cfg.workload == "suite" {
		// The sweep's inputs do not depend on --seed (see suiteSeed). The
		// report is stamped with the seed that was used, so that -compare
		// checks the tables of any two suite runs for equality.
		cfg.seed = suiteSeed
	}
	rep := &report{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds,
		Traced: cfg.traced, Smoke: cfg.smoke, Machine: stampMachine(),
		Metrics: map[string]sample{},
	}
	w, err := newWorkload(cfg)
	if err != nil {
		return nil, err
	}
	defer w.close()

	var tr *tracer
	if cfg.traced {
		tr = newTracer()
	}

	// Set-up, several times over: build the inputs from the seed and run the
	// load once on them. The first round also pays the process's own lazy
	// initialisation and heap growth, so it doubles as the warm-up; the
	// median round is the set-up time. The first round's fingerprint is the
	// reference every later repeat must reproduce.
	rounds := 3
	if cfg.smoke || cfg.traced {
		rounds = 1
	}
	setupStart := time.Now()
	setupSpan := tr.begin(noSpan, "setup")
	var setups []float64
	var firsts []measured
	var ref outcome
	account := func(out outcome, what string) {
		rep.account(out, what)
		if out.fingerprint != ref.fingerprint {
			rep.Failed++
			rep.problem("%s: fingerprint %s differs from the first repeat's %s", what, sha(out.fingerprint), sha(ref.fingerprint))
		}
	}
	for i := 0; i < rounds; i++ {
		t0 := time.Now()
		if err := w.prepare(tr, setupSpan); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", cfg.workload, err)
		}
		id := tr.begin(setupSpan, "first-repeat")
		m, err := timed(w, nil, noSpan)
		tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up round %d: %w", cfg.workload, i+1, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		firsts = append(firsts, m)
		if i == 0 {
			ref = m.outcome
			if ref.fingerprint != "" {
				rep.Fingerprint = sha(ref.fingerprint)
			}
		}
		account(m.outcome, fmt.Sprintf("set-up round %d", i+1))
		if time.Since(setupStart) > setupBudget {
			break // the time cap allows no more samples of a set-up this long
		}
	}
	tr.end(setupSpan)
	started := time.Now()
	budget := time.Duration(cfg.seconds * float64(time.Second))

	if !cfg.traced {
		minRepeats := 5
		if cfg.smoke {
			minRepeats = 1
		}
		rep.setMedian("setup_s", setups)
		// The set-up rounds' repeats did the same work, if colder; the floor
		// only ever takes the fastest, so they count as observations too.
		var f floor
		var cpus []float64
		for _, m := range firsts {
			f.add(m)
			cpus = append(cpus, m.cpu)
		}
		for n := 0; n < minRepeats || time.Since(started) < budget; n++ {
			m, err := timed(w, nil, noSpan)
			if err != nil {
				return nil, fmt.Errorf("%s: repeat %d: %w", cfg.workload, n+1, err)
			}
			account(m.outcome, fmt.Sprintf("repeat %d", n+1))
			f.add(m)
			cpus = append(cpus, m.cpu)
		}
		rep.setFrom("wall_s", f.wall(), f.walls)
		rep.setFrom("cpu_s", f.cpu, cpus)
		w.results(rep)
		rep.finish()
		return rep, nil
	}

	// Traced run: traced and untraced repeats alternate, so the overhead
	// ratio compares neighbours in time rather than two separate processes.
	rc := &runCtx{cfg: cfg, rep: rep, tr: tr}
	var traced, plain floor
	var plainCPUs []float64
	minPairs := 2
	if cfg.smoke {
		minPairs = 1
	}
	for pair := 0; pair < minPairs || time.Since(started) < budget; pair++ {
		run := pair + 1
		tr.setRun(run)
		id := tr.begin(noSpan, "repeat")
		m, err := timed(w, tr, id)
		tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("%s: traced repeat %d: %w", cfg.workload, run, err)
		}
		account(m.outcome, fmt.Sprintf("traced repeat %d", run))
		rc.runs = append(rc.runs, run)
		traced.add(m)

		m, err = timed(w, nil, noSpan)
		if err != nil {
			return nil, fmt.Errorf("%s: untraced repeat %d: %w", cfg.workload, run, err)
		}
		account(m.outcome, fmt.Sprintf("untraced repeat %d", run))
		plain.add(m)
		plainCPUs = append(plainCPUs, m.cpu)
	}
	tr.setRun(0)
	rc.spans = tr.snapshot()
	rc.wall, rc.cpu = plain.wall(), plain.cpu
	w.results(rep)

	rep.set("bench.trace_overhead_ratio", traced.wall()/plain.wall())
	rep.set("bench.repeats", float64(len(traced.walls)+len(plain.walls)))
	rep.set("bench.wall_iqr_share", iqrShare(plain.walls))
	rep.set("bench.unattributed_share", unattributedShare(rc.spans))

	rc.parent = tr.begin(noSpan, "layers")
	if err := w.layers(rc); err != nil {
		return nil, fmt.Errorf("%s: layers: %w", cfg.workload, err)
	}
	tr.end(rc.parent)
	rc.parent = tr.begin(noSpan, "drills")
	runDrills(rc)
	tr.end(rc.parent)
	rep.set("bench.max_rss_mb", maxRSSMB())
	rep.setFrom("cpu_s", plain.cpu, plainCPUs)

	spans := tr.snapshot()
	if err := checkTree(spans); err != nil {
		rep.problem("span tree: %v", err)
	}
	path := filepath.Join(buildDir(), "trace-"+cfg.workload+".json")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	meta := map[string]any{"workload": cfg.workload, "seed": cfg.seed, "machine": rep.Machine}
	if err := writeChromeTrace(path, spans, meta); err != nil {
		return nil, err
	}
	rep.TraceFile = path
	rep.finish()
	return rep, nil
}

// unattributedShare is the part of the traced repeats' wall time that no
// layer-named span covers: the self time of the structural spans ("repeat"
// and "cell:...") as a share of the repeats' duration.
func unattributedShare(spans []span) float64 {
	self := selfTimes(spans)
	var loose, total time.Duration
	for i, s := range spans {
		if s.Run == 0 {
			continue
		}
		if s.Name == "repeat" {
			total += s.dur()
		}
		if s.Name == "repeat" || strings.HasPrefix(s.Name, "cell:") {
			loose += self[i]
		}
	}
	if total == 0 {
		return 0
	}
	return float64(loose) / float64(total)
}

// buildDir is where the benchmark leaves its binary, traces and reports:
// the directory the driver names, or .bench_build in the working directory.
func buildDir() string {
	if d := os.Getenv("CARGO_TARGET_DIR"); d != "" {
		return d
	}
	return ".bench_build"
}
