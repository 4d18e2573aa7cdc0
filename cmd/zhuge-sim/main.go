// Command zhuge-sim runs one end-to-end RTC scenario and prints its
// metrics: the quickest way to poke at a configuration.
//
// Usage:
//
//	zhuge-sim -trace w1 -proto rtp -solution zhuge -dur 2m
//	zhuge-sim -trace drop10 -proto tcp -cca copa -solution none
//	zhuge-sim -trace w2 -proto rtp -solution none -qdisc codel -interferers 20
//	zhuge-sim -trace w1 -solution zhuge -dur 10s -trace-out run.trace.json -metrics run.metrics.json
//	zhuge-sim -aps 2 -solution zhuge -handover-at 40s,80s -handover-policy migrate
//	zhuge-sim -campus 16 -shards 8 -rebalance -dur 5s
//
// Trace names: w1 w2 c1 c2 c3 ethernet abc, dropK (e.g. drop10 = 30 Mbps
// dropping K-fold mid-run), a CSV file path, or constN (N Mbps constant).
// (-trace names the bandwidth trace; -trace-out writes the packet-lifecycle
// trace and -series-out the telemetry series — open the .json form of either
// in chrome://tracing or Perfetto, or name the file .jsonl for JSON lines.)
//
// -aps builds a multi-AP topology (each AP on its own channel with an
// independent trace realisation and its own solution instance); -handover-at
// schedules station roams round-robin across the APs, with -handover-policy
// picking what happens to the per-flow Zhuge state. -campus switches to the
// sharded campus workload, which takes its own flags (-shards, -rebalance,
// -profile-out, -stats) and none of the single-path ones. Experiment tables are
// zhuge-bench's job: go run ./cmd/zhuge-bench -exp control-loop|ext-handover.
package main

import (
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	_ "net/http/pprof"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"github.com/zhuge-project/zhuge/internal/obs"
	"github.com/zhuge-project/zhuge/internal/scenario"
	"github.com/zhuge-project/zhuge/internal/shard"
	"github.com/zhuge-project/zhuge/internal/sim"
	"github.com/zhuge-project/zhuge/internal/trace"
)

func main() {
	var (
		traceName   = flag.String("trace", "w1", "trace: w1|w2|c1|c2|c3|ethernet|abc|dropK|constN|file.csv")
		proto       = flag.String("proto", "rtp", "protocol: rtp|tcp|quic")
		ccaName     = flag.String("cca", "", "congestion control: copa|cubic|bbr|abc (tcp), +pcc (quic), gcc|nada (rtp); default copa, gcc for rtp")
		solution    = flag.String("solution", "none", "AP solution: none|zhuge|fastack|abc")
		qdisc       = flag.String("qdisc", "fifo", "queue discipline: fifo|codel|fqcodel")
		dur         = flag.Duration("dur", 2*time.Minute, "simulated duration")
		seed        = flag.Int64("seed", 1, "random seed")
		interferers = flag.Int("interferers", 0, "contending stations on the channel")
		bulk        = flag.Int("bulk", 0, "competing CUBIC bulk flows")
		aps         = flag.Int("aps", 1, "number of APs (each on its own channel, with its own solution instance)")
		handoverAt  = flag.String("handover-at", "", "comma-separated roam times (e.g. 40s,80s); roams go round-robin across APs")
		handoverPol = flag.String("handover-policy", "migrate", "per-flow Zhuge state across a roam: migrate|reset")
		campus      = flag.Int("campus", 0, "run the sharded campus workload with this many APs (10 stations each); prints the determinism fingerprint; uses -shards, -j, -dur, -seed")
		shards      = flag.Int("shards", 1, "with -campus: partition the topology over this many shard simulators")
		rebalance   = flag.Bool("rebalance", false, "with -campus: migrate cells between shards at barriers when load imbalance persists (outputs stay byte-identical)")
		workers     = flag.Int("j", runtime.NumCPU(), "with -campus: worker count for the shard simulators")
		traceOut    = flag.String("trace-out", "", "write a packet-lifecycle trace to this file (.jsonl = JSONL, else Chrome trace_event for Perfetto)")
		metricsOut  = flag.String("metrics", "", "write a metrics + prediction-error + control-loop JSON report to this file")
		seriesOut   = flag.String("series-out", "", "write virtual-time telemetry series to this file (.jsonl = JSONL, else Chrome counter tracks for Perfetto; see OBSERVABILITY.md)")
		seriesEvery = flag.Duration("series-every", 100*time.Millisecond, "virtual-time sampling interval for -series-out")
		profileOut  = flag.String("profile-out", "", "with -campus: write the per-cell load profile (JSON) to this file")
		statsAddr   = flag.String("stats", "", "with -campus: serve the live stats plane (shard load, run progress) on this HTTP address (e.g. localhost:8377)")
		pprofAddr   = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	)
	flag.Parse()
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	err := checkFlags(*proto, *ccaName, *solution, *qdisc, *seriesOut, *aps, *campus, *dur, *seriesEvery, set)
	var sp scenario.Spec
	if err == nil && *campus == 0 {
		sp, err = singlePathSpec(pathFlags{
			trace: *traceName, proto: *proto, cca: *ccaName, solution: *solution, qdisc: *qdisc,
			dur: *dur, seed: *seed, interferers: *interferers, bulk: *bulk, aps: *aps,
			handoverAt: *handoverAt, handoverPolicy: *handoverPol,
		})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "zhuge-sim:", err)
		os.Exit(2)
	}

	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "zhuge-sim: pprof:", err)
			}
		}()
	}

	if *campus > 0 {
		runCampus(campusRun{
			aps: *campus, shards: *shards, workers: *workers, seed: *seed, dur: *dur,
			rebalance: *rebalance, profileOut: *profileOut, seriesOut: *seriesOut, statsAddr: *statsAddr,
		})
		return
	}

	o := obs.New(obs.Options{
		Trace:   *traceOut != "",
		Metrics: *metricsOut != "" || *seriesOut != "",
		PredErr: *metricsOut != "",
		Series:  *seriesOut != "",
		Loop:    *metricsOut != "",
	})

	sp.Obs = o
	p := sp.Build()
	if o != nil {
		obs.StartSampler(p.S, o.Series, o.Reg, *seriesEvery)
	}
	defer writeObs(o, *traceOut, *metricsOut, *seriesOut)

	fmt.Printf("trace=%s proto=%s solution=%s qdisc=%s dur=%v seed=%d aps=%d\n\n",
		sp.APs[0].Trace.Name, *proto, *solution, *qdisc, *dur, *seed, *aps)
	p.Run(*dur)
	printSummary(p.Flows[*bulk], *dur)
}

// The values the enumerated flags accept. -cca depends on -proto, and ""
// (the flag's default) means the protocol's own default controller.
var (
	solutions = map[string]scenario.Solution{
		"none": scenario.SolutionNone, "zhuge": scenario.SolutionZhuge,
		"fastack": scenario.SolutionFastAck, "abc": scenario.SolutionABC,
	}
	qdiscs = []string{"fifo", "codel", "fqcodel"}
	ccas   = map[string][]string{
		"rtp":  {"gcc", "nada"},
		"tcp":  {"copa", "cubic", "bbr", "abc"},
		"quic": {"copa", "cubic", "bbr", "abc", "pcc"},
	}
)

// The flags only one of the two modes reads. Given in the other mode they
// are refused, not ignored: -campus 4 -metrics m.json would write no file.
var (
	singlePathFlags = []string{
		"proto", "cca", "solution", "qdisc", "trace", "interferers", "bulk", "aps",
		"handover-at", "handover-policy", "trace-out", "metrics", "series-every",
	}
	campusFlags = []string{"shards", "rebalance", "profile-out", "j", "stats"}
)

// checkFlags rejects the values the builders below would otherwise panic
// on (-qdisc, -aps 0 with roams), silently replace with a default
// (-solution, -proto, -cca, a negative -campus), divide by (-dur 0s), write
// in a format the file name does not say (-series-out x.csv) or never read
// (a flag of the other mode; set holds the names given on the command line).
// The error names the flag and what it accepts or the mode it belongs to.
// What only the single-path mode reads is singlePathSpec's.
func checkFlags(proto, ccaName, solution, qdisc, seriesOut string, aps, campus int, dur, seriesEvery time.Duration, set map[string]bool) error {
	if campus < 0 {
		return fmt.Errorf("bad -campus %d (want a positive AP count)", campus)
	}
	if dur <= 0 {
		return fmt.Errorf("bad -dur %v (want a positive duration)", dur)
	}
	if campus > 0 {
		for _, name := range singlePathFlags {
			if set[name] {
				return fmt.Errorf("-%s applies to a single-path run, not to -campus", name)
			}
		}
	} else {
		for _, name := range campusFlags {
			if set[name] {
				return fmt.Errorf("-%s needs -campus", name)
			}
		}
	}
	if seriesEvery <= 0 {
		return fmt.Errorf("bad -series-every %v (want a positive interval)", seriesEvery)
	}
	if strings.HasSuffix(seriesOut, ".csv") {
		// A name that promises CSV would get a Chrome trace_event file;
		// refusing is the smaller surprise.
		return fmt.Errorf("bad -series-out %q (writes .jsonl as JSON lines, any other name as Chrome trace_event JSON; there is no CSV form)", seriesOut)
	}
	if aps < 1 {
		return fmt.Errorf("bad -aps %d (want at least 1)", aps)
	}
	if _, ok := solutions[solution]; !ok {
		return fmt.Errorf("bad -solution %q (want none|zhuge|fastack|abc)", solution)
	}
	if !slices.Contains(qdiscs, qdisc) {
		return fmt.Errorf("bad -qdisc %q (want %s)", qdisc, strings.Join(qdiscs, "|"))
	}
	accepted, ok := ccas[proto]
	if !ok {
		return fmt.Errorf("bad -proto %q (want rtp|tcp|quic)", proto)
	}
	if ccaName != "" && !slices.Contains(accepted, ccaName) {
		return fmt.Errorf("bad -cca %q for -proto %s (want %s)", ccaName, proto, strings.Join(accepted, "|"))
	}
	return nil
}

// pathFlags are the parsed flags the single-path mode builds its scenario
// from, already through checkFlags.
type pathFlags struct {
	trace, proto, cca, solution, qdisc string
	dur                                time.Duration
	seed                               int64
	interferers, bulk, aps             int
	handoverAt, handoverPolicy         string
}

// singlePathSpec declares the single-path run: one AP per -aps, each with an
// independent realisation of the trace profile (generators draw from seed+i;
// constant and file traces repeat), the -bulk competitors and then the
// measured flow, and the -handover-at roams of the default station,
// round-robin across ap1..apN-1 and back. It refuses what the run would
// ignore or panic on.
func singlePathSpec(f pathFlags) (scenario.Spec, error) {
	sp := scenario.Spec{Seed: f.seed}
	if f.interferers < 0 {
		return sp, fmt.Errorf("bad -interferers %d (want 0 or more)", f.interferers)
	}
	if f.bulk < 0 {
		return sp, fmt.Errorf("bad -bulk %d (want 0 or more)", f.bulk)
	}
	var pol scenario.HandoverPolicy
	switch f.handoverPolicy {
	case "migrate":
		pol = scenario.HandoverMigrate
	case "reset":
		pol = scenario.HandoverReset
	default:
		return sp, fmt.Errorf("bad -handover-policy %q (want migrate|reset)", f.handoverPolicy)
	}
	if f.handoverAt != "" {
		if f.aps <= 1 {
			return sp, errors.New("-handover-at needs -aps > 1")
		}
		if f.solution == "fastack" {
			// FastAck taps the shared delivery demux; Path.Handover panics.
			return sp, errors.New("-handover-at does not work with -solution fastack (FastAck APs cannot hand a flow over)")
		}
		for i, part := range strings.Split(f.handoverAt, ",") {
			at, err := time.ParseDuration(strings.TrimSpace(part))
			if err != nil {
				return sp, fmt.Errorf("bad -handover-at entry %q: %v", part, err)
			}
			if at < 0 || at >= f.dur {
				return sp, fmt.Errorf("bad -handover-at entry %q (want a time in [0s, -dur %v))", part, f.dur)
			}
			sp.Handovers = append(sp.Handovers, scenario.HandoverSpec{
				Station: scenario.DefaultStation,
				To:      fmt.Sprintf("ap%d", (i+1)%f.aps),
				At:      at,
				Policy:  pol,
			})
		}
	}
	for i := 0; i < f.aps; i++ {
		tr, err := resolveTrace(f.trace, f.dur, f.seed+int64(i))
		if err != nil {
			return sp, err
		}
		sp.APs = append(sp.APs, scenario.APSpec{
			Name: fmt.Sprintf("ap%d", i), Trace: tr,
			Qdisc: f.qdisc, Interferers: f.interferers, Solution: solutions[f.solution],
		})
	}
	for i := 0; i < f.bulk; i++ {
		sp.Flows = append(sp.Flows, scenario.FlowSpec{Kind: "bulk"})
	}
	// With roams scheduled, the RTP sender must infer losses from feedback
	// gaps (reset-on-handover discards fortunes silently otherwise).
	sp.Flows = append(sp.Flows, scenario.FlowSpec{
		Kind: f.proto, CCA: f.cca, GapLoss: f.proto == "rtp" && len(sp.Handovers) > 0,
	})
	return sp, nil
}

// printSummary prints the measured flow's result block. Every protocol
// prints the same lines except its transport's own counters in the middle.
func printSummary(f *scenario.BuiltFlow, dur time.Duration) {
	m := f.Metrics()
	fmt.Printf("network RTT:   %s\n", m.RTT)
	fmt.Printf("frame delay:   %s\n", m.FrameDelay)
	fmt.Printf("P(rtt>200ms):     %.3f%%\n", 100*m.RTT.FractionAbove(200*time.Millisecond))
	fmt.Printf("P(fdelay>400ms):  %.3f%%\n", 100*m.FrameDelay.FractionAbove(400*time.Millisecond))
	fmt.Printf("P(fps<10):        %.3f%%\n", 100*m.LowFrameRateRatio(dur, 10))
	switch {
	case f.RTP != nil:
		r := f.RTP
		fmt.Printf("frames decoded/skipped: %d/%d  retransmits=%d\nfinal rate: %.2f Mbps\n",
			r.Decoder.Decoded, r.Decoder.Skipped, r.Sender.Retransmits(), r.Sender.Controller().Rate()/1e6)
	case f.TCP != nil:
		t := f.TCP
		fmt.Printf("frames sent/dropped: %d/%d  retransmits=%d  timeouts=%d\n",
			t.FramesSent, t.FramesDropped, t.Sender.Retransmits(), t.Sender.Timeouts())
	case f.QUIC != nil:
		q := f.QUIC
		fmt.Printf("frames sent/dropped: %d/%d  lost=%d  pto=%d\n",
			q.FramesSent, q.FramesDropped, q.Sender.LostPackets(), q.Sender.Timeouts())
	}
	fmt.Printf("goodput: %.2f Mbps\n", m.DeliveredBytes*8/dur.Seconds()/1e6)
}

// campusRun bundles the -campus mode's flags.
type campusRun struct {
	aps, shards, workers             int
	seed                             int64
	dur                              time.Duration
	rebalance                        bool
	profileOut, seriesOut, statsAddr string
}

// runCampus builds the campus workload, partitions it over -shards shard
// simulators, runs it on -j workers, and prints the per-flow fingerprint on
// stdout. The fingerprint covers every flow's RTT distribution, frame
// counts, delivered bytes and the cluster's event total, so CI proves the
// shard-count-invariance contract by diffing the stdout of two invocations
// (`-shards 1` vs `-shards 8 -rebalance`) byte for
// byte; the human-facing summary goes to stderr to keep stdout diff-clean.
func runCampus(r campusRun) {
	aps, shards, workers, seed, dur := r.aps, r.shards, r.workers, r.seed, r.dur
	cfg := scenario.CampusConfig{
		APs: aps, Stations: 10 * aps, Roams: aps,
		Duration: dur, Solution: scenario.SolutionZhuge,
	}
	spd, err := scenario.BuildSharded(scenario.Campus(seed, cfg), scenario.ShardedOptions{
		Shards:    shards,
		CutDelay:  scenario.CampusCutDelay,
		Rebalance: r.rebalance,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "zhuge-sim:", err)
		os.Exit(2)
	}

	profiling := r.profileOut != "" || r.seriesOut != "" || r.statsAddr != ""
	var pf *shardProfile
	if profiling {
		pf = newShardProfile(spd, r.profileOut != "", r.seriesOut != "", r.statsAddr)
		defer pf.close()
	}

	start := time.Now()
	if pf != nil {
		pf.start = start
		spd.RunProfiled(dur, workers, pf.p)
	} else {
		spd.Run(dur, workers)
	}
	wall := time.Since(start)
	fmt.Fprintf(os.Stderr, "campus aps=%d stations=%d shards=%d workers=%d dur=%v seed=%d\n",
		aps, 10*aps, len(spd.Cluster.Shards()), workers, dur, seed)
	fmt.Fprintf(os.Stderr, "events=%d windows=%d wall=%v (%.0f events/sec)\n",
		spd.Cluster.Fired(), spd.Cluster.Windows(),
		wall.Round(time.Millisecond), float64(spd.Cluster.Fired())/wall.Seconds())
	if rb := spd.Rebalancer; rb != nil {
		fmt.Fprintf(os.Stderr, "rebalancer: %d migrations\n", rb.Migrations())
		for _, m := range rb.Moves() {
			fmt.Fprintf(os.Stderr, "  window %d t=%v: %s %s -> %s\n", m.Window, m.At, m.Cell, m.From, m.To)
		}
	}
	if pf != nil {
		pf.finish(fmt.Sprintf("campus-%dap", aps), r.profileOut, r.seriesOut)
	}
	fmt.Print(spd.Fingerprint())
}

// shardProfile bundles the campus run's load profiler with its optional
// telemetry series and live stats plane. All human/diagnostic output goes
// to stderr or files — stdout stays byte-diff-clean for the CI shard
// invariance gate.
type shardProfile struct {
	spd     *scenario.ShardedPath
	p       *shard.Profiler
	set     *obs.SeriesSet
	stats   *obs.StatsServer
	start   time.Time
	lastEnd sim.Time
}

func newShardProfile(spd *scenario.ShardedPath, wallClock, series bool, statsAddr string) *shardProfile {
	pf := &shardProfile{spd: spd, p: spd.NewProfiler()}
	if wallClock || statsAddr != "" {
		// internal/shard is a deterministic package and cannot read wall
		// time itself; the clock is injected here, at the cmd layer.
		pf.p.Clock = func() time.Duration { return time.Since(pf.start) }
	}
	if series {
		pf.set = obs.NewSeriesSet()
		pf.p.Series = pf.set
	}
	if statsAddr != "" {
		stats, err := obs.NewStatsServer(statsAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "zhuge-sim: stats:", err)
			os.Exit(2)
		}
		pf.stats = stats
		fmt.Fprintf(os.Stderr, "zhuge-sim: live stats on http://%s/\n", stats.Addr())
		// Publish from the profiler's barrier hook: it runs single-threaded
		// between windows, so it can read profiler state without racing the
		// shard workers. Every window is too chatty at campus event rates;
		// every 32nd keeps the page fresh at negligible cost.
		pf.p.OnWindow = func(end sim.Time) {
			pf.lastEnd = end
			if pf.p.Windows()%32 != 0 {
				return
			}
			pf.publish(end)
		}
	}
	return pf
}

func (pf *shardProfile) publish(end sim.Time) {
	if err := pf.stats.Publish("shards", pf.p.Loads()); err != nil {
		fmt.Fprintln(os.Stderr, "zhuge-sim: stats:", err)
	}
	err := pf.stats.Publish("campus", map[string]any{
		"events":           pf.spd.Cluster.Fired(),
		"windows":          pf.p.Windows(),
		"virtual_ns":       int64(end),
		"serial_ns":        int64(pf.p.Serial()),
		"critical_path_ns": int64(pf.p.Critical()),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "zhuge-sim: stats:", err)
	}
}

func (pf *shardProfile) finish(workload, profileOut, seriesOut string) {
	if pf.stats != nil {
		pf.publish(pf.lastEnd)
	}
	lp := pf.spd.LoadProfile(pf.p, workload)
	fmt.Fprintf(os.Stderr, "load: critical=%v serial=%v heaviest/lightest=%.2f\n",
		pf.p.Critical().Round(time.Millisecond), pf.p.Serial().Round(time.Millisecond),
		lp.MaxMinEventRatio)
	if profileOut != "" {
		f, err := os.Create(profileOut)
		if err == nil {
			err = lp.WriteJSON(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "zhuge-sim: profile-out:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "load profile written to %s\n", profileOut)
	}
	if seriesOut != "" {
		if err := obs.WriteTraceFile(seriesOut, nil, pf.set); err != nil {
			fmt.Fprintln(os.Stderr, "zhuge-sim: series-out:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "telemetry series written to %s\n", seriesOut)
	}
}

func (pf *shardProfile) close() {
	if pf.stats != nil {
		pf.stats.Close()
	}
}

// writeObs flushes the observability outputs after the run: the packet
// trace (when -trace-out is set), the metrics/prediction-error report (when
// -metrics is set), the telemetry series (when -series-out is set), and —
// whenever samples were collected — the prediction-error and control-loop
// tables on stdout.
func writeObs(o *obs.Obs, traceOut, metricsOut, seriesOut string) {
	if o == nil {
		return
	}
	if rows := o.Errs().Rows(); len(rows) > 0 {
		fmt.Printf("\nprediction error (predicted vs actual AP->client latency):\n%s", o.Errs().Table())
	}
	if lt := o.ControlLoop(); lt != nil {
		if m, _ := lt.Matched(); m > 0 {
			fmt.Printf("\ncontrol-loop decomposition (AP observation -> new rate on air):\n%s", lt.Table())
		}
	}
	if seriesOut != "" {
		if err := obs.WriteTraceFile(seriesOut, nil, o.Series); err != nil {
			fmt.Fprintln(os.Stderr, "zhuge-sim: series-out:", err)
			os.Exit(1)
		}
		fmt.Printf("telemetry series written to %s\n", seriesOut)
	}
	if traceOut != "" {
		if err := obs.WriteTraceFile(traceOut, o.Tracer, nil); err != nil {
			fmt.Fprintln(os.Stderr, "zhuge-sim: trace-out:", err)
			os.Exit(1)
		}
		fmt.Printf("\npacket trace written to %s\n", traceOut)
	}
	if metricsOut != "" {
		f, err := os.Create(metricsOut)
		if err == nil {
			err = o.WriteMetricsJSON(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "zhuge-sim: metrics:", err)
			os.Exit(1)
		}
		fmt.Printf("metrics report written to %s\n", metricsOut)
	}
}

// resolveTrace builds the -trace argument: a name internal/trace knows
// (generators draw from this AP's seed), else a CSV file path.
func resolveTrace(name string, dur time.Duration, seed int64) (*trace.Trace, error) {
	tr, err := trace.Named(name, dur, rand.New(rand.NewSource(seed)))
	if !errors.Is(err, trace.ErrUnknownName) {
		return tr, err
	}
	f, err := os.Open(name)
	if err != nil {
		return nil, fmt.Errorf("unknown trace %q (and not a readable file: %v)", name, err)
	}
	defer f.Close()
	return trace.Load(name, f)
}
