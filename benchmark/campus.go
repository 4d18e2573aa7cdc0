package main

import (
	"fmt"
	"time"

	"github.com/zhuge-project/zhuge/internal/scenario"
	"github.com/zhuge-project/zhuge/internal/shard"
)

// campusWorkload builds one campus topology over nproc shards and runs it on
// nproc workers: the only workload where the window protocol does the work.
type campusWorkload struct {
	cfg  config
	ccfg scenario.CampusConfig
	spec scenario.Spec

	// Of the last repeat.
	events, windows uint64
	// Per traced repeat, from the wall-clock profiler.
	profiles []campusProfile
	// Cluster.Run wall seconds of the unprofiled nproc-shard repeats.
	plainRuns []float64
}

type campusProfile struct {
	serial, critical, runWall time.Duration
	stall                     time.Duration
	allocs                    allocSnap
}

func newCampusWorkload(cfg config) *campusWorkload {
	w := &campusWorkload{cfg: cfg, ccfg: scenario.CampusConfig{
		APs: 32, Stations: 320, Roams: 32,
		Duration: 5 * time.Second, Solution: scenario.SolutionZhuge,
	}}
	if cfg.smoke {
		w.ccfg.APs, w.ccfg.Stations, w.ccfg.Roams, w.ccfg.Duration = 4, 16, 4, 5*time.Second
	}
	return w
}

func (w *campusWorkload) prepare(tr *tracer, parent spanID) error {
	id := tr.begin(parent, "scenario.campus")
	w.spec = scenario.Campus(w.cfg.seed, w.ccfg)
	tr.end(id)
	return nil
}

// pass builds the topology over the given shard count, runs it and
// fingerprints it. With a tracer the run goes through the shard profiler on
// a wall clock, which is how the shard layer is traced from outside.
func (w *campusWorkload) pass(tr *tracer, parent spanID, shards int, rebalance bool) (string, *scenario.ShardedPath, campusProfile, error) {
	var prof campusProfile
	id := tr.begin(parent, "scenario.buildsharded")
	spd, err := scenario.BuildSharded(w.spec, scenario.ShardedOptions{
		Shards: shards, CutDelay: scenario.CampusCutDelay, Rebalance: rebalance,
	})
	tr.end(id)
	if err != nil {
		return "", nil, prof, fmt.Errorf("BuildSharded: %w", err)
	}

	id = tr.begin(parent, "shard.run")
	t0 := time.Now()
	if tr != nil {
		p := spd.NewProfiler()
		p.Clock = func() time.Duration { return time.Since(t0) }
		before := readAllocs()
		spd.RunProfiled(w.ccfg.Duration, shards, p)
		prof.allocs = readAllocs().since(before)
		prof.serial, prof.critical = p.Serial(), p.Critical()
		for _, l := range p.Loads() {
			prof.stall += time.Duration(l.StallNS)
		}
	} else {
		spd.Run(w.ccfg.Duration, shards)
	}
	prof.runWall = time.Since(t0)
	tr.end(id)

	id = tr.begin(parent, "scenario.fingerprint")
	fp := spd.Fingerprint()
	tr.end(id)
	return fp, spd, prof, nil
}

func (w *campusWorkload) repeat(tr *tracer, parent spanID) (outcome, error) {
	fp, spd, prof, err := w.pass(tr, parent, w.cfg.nproc, false)
	if err != nil {
		return outcome{}, err
	}
	w.events, w.windows = spd.Cluster.Fired(), spd.Cluster.Windows()
	if tr != nil {
		w.profiles = append(w.profiles, prof)
	} else {
		w.plainRuns = append(w.plainRuns, prof.runWall.Seconds())
	}
	out := outcome{ops: len(spd.Cells), fingerprint: fp}
	if w.events == 0 {
		out.failed = out.ops
		out.problems = append(out.problems, "campus fired no events")
	}
	return out, nil
}

func (w *campusWorkload) results(r *report) {
	r.set("sim.events", float64(w.events))
	r.set("shard.windows", float64(w.windows))
	r.set("shard.events_per_window", float64(w.events)/float64(w.windows))
}

func (w *campusWorkload) layers(rc *runCtx) error {
	r, spans := rc.rep, rc.spans
	ms := func(name string) []float64 { return scaled(dursByName(spans, name), 1e3) }
	r.setMedian("scenario.campus_spec_ms", ms("scenario.campus"))
	r.setMedian("scenario.buildsharded_ms", ms("scenario.buildsharded"))
	r.setMedian("scenario.fingerprint_ms", ms("scenario.fingerprint"))
	r.setMedian("scenario.run_share", rc.perRun(func(run int) float64 {
		return float64(sumByName(spans, "shard.run", run)) / float64(sumByName(spans, "repeat", run))
	}))

	if len(w.profiles) == 0 {
		return fmt.Errorf("no traced campus repeat was profiled")
	}
	var ceiling, stall, overhead, perWindow, nsPerEvent, objs, bytes []float64
	for _, p := range w.profiles {
		ceiling = append(ceiling, float64(p.serial)/float64(p.critical))
		stall = append(stall, float64(p.stall)/(float64(p.runWall)*float64(w.cfg.nproc)))
		overhead = append(overhead, 1-float64(p.critical)/float64(p.runWall))
		perWindow = append(perWindow, float64(p.runWall-p.critical)/float64(w.windows))
		nsPerEvent = append(nsPerEvent, float64(p.runWall)/float64(w.events))
		objs = append(objs, float64(p.allocs.objects)/float64(w.events))
		bytes = append(bytes, float64(p.allocs.bytes)/float64(w.events))
	}
	r.setMedian("shard.par_ceiling", ceiling)
	r.setMedian("shard.stall_share", stall)
	r.setMedian("shard.barrier_overhead_share", overhead)
	r.setFrom("shard.overhead_ns_per_window", minOf(perWindow), perWindow)
	r.setFrom("sim.wall_ns_per_event", minOf(nsPerEvent), nsPerEvent)
	r.setMedian("sim.allocs_per_event", objs)
	r.setMedian("sim.alloc_bytes_per_event", bytes)

	// One shard on one worker: the serial reference the speed-up divides by,
	// and the proof that shard count is invisible in the outputs.
	passes := 3
	if rc.cfg.smoke {
		passes = 1
	}
	var one []float64
	for i := 0; i < passes; i++ {
		id := rc.tr.begin(rc.parent, "campus.one-shard")
		fp, _, prof, err := w.pass(nil, noSpan, 1, false)
		rc.tr.end(id)
		if err != nil {
			return err
		}
		one = append(one, prof.runWall.Seconds())
		if got := sha(fp); got != r.Fingerprint {
			r.Failed++
			r.problem("1-shard fingerprint %s differs from the %d-shard one %s", got, w.cfg.nproc, r.Fingerprint)
		}
	}
	r.setFrom("shard.wall_1shard_s", minOf(one), one)
	r.set("shard.speedup", minOf(one)/minOf(w.plainRuns))

	id := rc.tr.begin(rc.parent, "campus.rebalance")
	fp, spd, prof, err := w.pass(nil, noSpan, w.cfg.nproc, true)
	rc.tr.end(id)
	if err != nil {
		return err
	}
	if got := sha(fp); got != r.Fingerprint {
		r.Failed++
		r.problem("rebalanced fingerprint %s differs from the static one %s", got, r.Fingerprint)
	}
	r.set("shard.rebalance_wall_s", prof.runWall.Seconds())
	r.set("shard.migrations", float64(migrations(spd.Rebalancer)))
	return nil
}

func migrations(rb *shard.Rebalancer) int {
	if rb == nil {
		return 0 // a single-shard build has nothing to rebalance
	}
	return rb.Migrations()
}

func (w *campusWorkload) close() {}
