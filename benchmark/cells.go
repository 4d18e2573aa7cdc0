package main

import (
	"fmt"
	"math"
	"strings"
	"time"

	"github.com/zhuge-project/zhuge/internal/obs"
	"github.com/zhuge-project/zhuge/internal/scenario"
	"github.com/zhuge-project/zhuge/internal/sim"
	"github.com/zhuge-project/zhuge/internal/trace"
)

// traceFamilies are the paper's W1, W2 and C1-C3.
var traceFamilies = []func() trace.GenParams{
	trace.RestaurantWiFi, trace.OfficeWiFi, trace.IndoorMixed45G, trace.City4G, trace.City5G,
}

// cellSpec is one single-path scenario: a trace (index into the workload's
// generated traces), a transport with its controller, and the AP solution.
type cellSpec struct {
	trace int
	cca   string // "gcc" for RTP
	sol   scenario.Solution
}

// cellResult is what one cell's run read out. Everything but allocs is
// simulated and repeats exactly for a seed.
type cellResult struct {
	events, packets            uint64
	simulated                  time.Duration
	p50, p99                   time.Duration
	tail, delivered            float64
	resent                     int // tcpsim retransmits or quicsim lost packets
	predictions, cacheHits     int
	constructed, clientDropped int
	allocs                     allocSnap // around Path.Run; traced repeats only
	// stalled is set when the cell was stopped at its limit of simulated
	// time with the budget unspent: the flow had stopped making progress.
	stalled bool
}

// cellWorkload is call-rtp, stream-tcp or stream-quic: every trace family
// crossed with the transport's controllers and {none, zhuge}, one flow per
// cell, run back to back on one goroutine.
//
// A cell runs until it has fired a fixed number of events, not for a fixed
// simulated time: how many events a simulated minute holds depends on the
// seed's traces (a deep fade starves the flow), and that input variance
// would sit on top of every host-time metric. With an event budget the seed
// changes which events fire, not how many. quicsim's cost grows with the
// square of the packets sent, not with the events fired, so stream-quic
// budgets delivered packets instead.
type cellWorkload struct {
	cfg       config
	transport string // "rtp", "tcpsim" or "quicsim"
	budget    uint64 // events a cell fires (packets it delivers, for quicsim) before it stops
	instances int    // independent traces per family, to average the seed's luck
	// nominal is about how much simulated time the budget takes; traces are
	// generated twice that long and wrap beyond.
	nominal time.Duration
	cells   []cellSpec
	traces  []*trace.Trace
	last    []cellResult
	// allocs holds, per traced repeat, the allocations inside Path.Run.
	allocs []allocSnap
}

func newCellWorkload(cfg config) *cellWorkload {
	w := &cellWorkload{cfg: cfg}
	ccas := []string{"copa"}
	switch cfg.workload {
	case "call-rtp":
		w.transport, w.budget, w.instances, w.nominal, ccas = "rtp", 200_000, 1, 140*time.Second, []string{"gcc"}
	case "stream-tcp":
		w.transport, w.budget, w.instances, w.nominal, ccas = "tcpsim", 30_000, 2, 15*time.Second, []string{"copa", "bbr"}
	case "stream-quic":
		w.transport, w.budget, w.instances, w.nominal = "quicsim", 2000, 2, 15*time.Second
	}
	if cfg.smoke {
		w.budget, w.instances, w.nominal = 5000, 1, 5*time.Second
		if w.transport == "quicsim" {
			w.budget = 500
		}
	}
	for t := 0; t < len(traceFamilies)*w.instances; t++ {
		for _, c := range ccas {
			for _, sol := range []scenario.Solution{scenario.SolutionNone, scenario.SolutionZhuge} {
				w.cells = append(w.cells, cellSpec{t, c, sol})
			}
		}
	}
	return w
}

func (w *cellWorkload) prepare(tr *tracer, parent spanID) error {
	w.traces = w.traces[:0]
	for i := 0; i < len(traceFamilies)*w.instances; i++ {
		id := tr.begin(parent, "trace.generate")
		rng := sim.LabeledRand(w.cfg.seed, fmt.Sprintf("bench.trace.%d", i))
		w.traces = append(w.traces, trace.Generate(traceFamilies[i/w.instances](), 2*w.nominal, rng))
		tr.end(id)
	}
	return nil
}

func (w *cellWorkload) label(c cellSpec) string {
	return fmt.Sprintf("%s#%d/%s/%s", w.traces[c.trace].Name, c.trace%w.instances, c.cca, c.sol)
}

// budgetStep is the simulated time a cell advances between looks at its
// progress; it overshoots the budget by less than one step's worth.
const budgetStep = 50 * time.Millisecond

// stallFactor bounds a cell's simulated time, in units of the time its
// budget nominally takes. A flow that stops making progress (an empty event
// queue returns from Run at once) would otherwise spin the cell for ever.
// Over seeds 1 to 40 the slowest healthy cell, a TCP stream behind a long
// fade, needed 5.3 times the nominal.
const stallFactor = 20

// runCell builds one path with its flow, runs it until the budget is spent
// and reads the metrics out, under three spans when traced.
func (w *cellWorkload) runCell(tr *tracer, parent spanID, c cellSpec, t *trace.Trace, budget uint64, o *obs.Obs) cellResult {
	var res cellResult
	id := tr.begin(parent, "scenario.build")
	p := scenario.NewPath(scenario.Options{Seed: w.cfg.seed, Trace: t, Solution: c.sol, Obs: o})
	var m *scenario.FlowMetrics
	var resent func() int
	switch w.transport {
	case "rtp":
		m = p.AddRTPFlow(scenario.RTPFlowConfig{}).Metrics
		resent = func() int { return 0 }
	case "tcpsim":
		f := p.AddTCPVideoFlow(scenario.TCPFlowConfig{CCA: c.cca})
		m, resent = f.Metrics, f.Sender.Retransmits
	case "quicsim":
		f := p.AddQUICVideoFlow(scenario.TCPFlowConfig{CCA: c.cca})
		m, resent = f.Metrics, f.Sender.LostPackets
	}
	tr.end(id)

	id = tr.begin(parent, "sim.run")
	var before allocSnap
	if tr != nil {
		before = readAllocs()
	}
	progress := p.S.Fired
	if w.transport == "quicsim" {
		progress = m.RTT.Count
	}
	limit := time.Duration(stallFactor * float64(w.nominal) * float64(budget) / float64(w.budget))
	for at := budgetStep; progress() < budget; at += budgetStep {
		if at > limit {
			res.stalled = true
			break
		}
		p.Run(at)
	}
	if tr != nil {
		res.allocs = readAllocs().since(before)
	}
	tr.end(id)

	id = tr.begin(parent, "metrics.readout")
	res.events = p.S.Fired()
	res.simulated = p.S.Now()
	res.packets = m.RTT.Count()
	res.p50, res.p99 = m.RTT.Quantile(0.50), m.RTT.Quantile(0.99)
	res.tail = m.RTT.FractionAbove(200 * time.Millisecond)
	res.delivered = m.DeliveredBytes
	res.resent = resent()
	if p.AP != nil {
		ft, ib := p.AP.FortuneTeller(), p.AP.Inband()
		res.predictions, res.cacheHits = ft.Predictions(), ft.CacheHits()
		res.constructed, res.clientDropped = ib.Constructed(), ib.DroppedClientFeedback()
	}
	tr.end(id)
	return res
}

func (w *cellWorkload) repeat(tr *tracer, parent spanID) (outcome, error) {
	out := outcome{ops: len(w.cells)}
	w.last = w.last[:0]
	var fp strings.Builder
	var allocs allocSnap
	for _, c := range w.cells {
		t0 := time.Now()
		id := tr.begin(parent, "cell:"+w.label(c))
		res := w.runCell(tr, id, c, w.traces[c.trace], w.budget, nil)
		tr.end(id)
		out.parts = append(out.parts, time.Since(t0).Seconds())
		w.last = append(w.last, res)
		allocs.objects += res.allocs.objects
		allocs.bytes += res.allocs.bytes
		fmt.Fprintf(&fp, "cell=%s events=%d simulated=%d packets=%d rtt_p50=%d rtt_p99=%d tail=%.9f delivered=%.0f\n",
			w.label(c), res.events, int64(res.simulated), res.packets, int64(res.p50), int64(res.p99), res.tail, res.delivered)
		switch {
		case res.stalled:
			out.failed++
			out.problems = append(out.problems, fmt.Sprintf("cell %s stalled: budget unspent after %v simulated (%d events, %d packets)",
				w.label(c), res.simulated, res.events, res.packets))
		case res.packets == 0:
			out.failed++
			out.problems = append(out.problems, fmt.Sprintf("cell %s delivered no packets", w.label(c)))
		}
	}
	if tr != nil {
		w.allocs = append(w.allocs, allocs)
	}
	out.fingerprint = fp.String()
	return out, nil
}

// tailRatio is the mean P(RTT > 200 ms) of the Zhuge cells over that of the
// plain cells; 0 when the plain cells never exceed it (smoke sizes).
func (w *cellWorkload) tailRatio() float64 {
	var zhuge, none float64
	for i, c := range w.cells {
		if c.sol == scenario.SolutionZhuge {
			zhuge += w.last[i].tail
		} else {
			none += w.last[i].tail
		}
	}
	if none == 0 {
		return 0
	}
	return zhuge / none
}

// totals sums the last repeat's events fired and data packets delivered.
func (w *cellWorkload) totals() (events, packets uint64) {
	for _, res := range w.last {
		events += res.events
		packets += res.packets
	}
	return events, packets
}

func (w *cellWorkload) results(r *report) {
	events, packets := w.totals()
	var resent, pred, hits, built, dropped int
	for _, res := range w.last {
		resent += res.resent
		pred += res.predictions
		hits += res.cacheHits
		built += res.constructed
		dropped += res.clientDropped
	}
	r.set("tail_rtt_ratio", w.tailRatio())
	r.set("sim.events", float64(events))
	switch w.transport {
	case "tcpsim":
		r.set("tcpsim.retransmit_share", float64(resent)/float64(packets))
	case "quicsim":
		r.set("quicsim.lost_share", float64(resent)/float64(packets))
	}
	if w.transport != "quicsim" {
		r.set("core.predictions", float64(pred))
		share := 0.0
		if pred > 0 {
			share = float64(hits) / float64(pred)
		}
		r.set("core.cache_hit_share", share)
		r.set("core.feedback_constructed", float64(built))
		r.set("core.client_feedback_dropped", float64(dropped))
	}
}

func (w *cellWorkload) layers(rc *runCtx) error {
	r, spans := rc.rep, rc.spans
	events, packets := w.totals()
	nsPerEvent := rc.perRun(func(run int) float64 {
		return float64(sumByName(spans, "sim.run", run)) / float64(events)
	})
	r.setFrom("sim.wall_ns_per_event", minOf(nsPerEvent), nsPerEvent)
	objs, bytes := make([]float64, len(w.allocs)), make([]float64, len(w.allocs))
	for i, a := range w.allocs {
		objs[i] = float64(a.objects) / float64(events)
		bytes[i] = float64(a.bytes) / float64(events)
	}
	r.setMedian("sim.allocs_per_event", objs)
	r.setMedian("sim.alloc_bytes_per_event", bytes)
	r.setMedian("scenario.run_share", rc.perRun(func(run int) float64 {
		return float64(sumByName(spans, "sim.run", run)) / float64(sumByName(spans, "repeat", run))
	}))
	r.setMedian("scenario.build_ms", scaled(dursByName(spans, "scenario.build"), 1e3))
	// Per 10 simulated minutes, whatever length this workload generates.
	r.setMedian("trace.generate_ms", scaled(dursByName(spans, "trace.generate"),
		1e3*(10*time.Minute).Seconds()/(2*w.nominal).Seconds()))

	// Cell spans by controller, and the transport's cost per delivered packet.
	byCCA := map[string][]float64{}
	var perPacket []float64
	for _, run := range rc.runs {
		sums := map[string]float64{}
		var all float64
		for _, s := range spans {
			if s.Run != run || !strings.HasPrefix(s.Name, "cell:") {
				continue
			}
			all += s.dur().Seconds()
			for _, c := range []string{"gcc", "copa", "bbr"} {
				if strings.Contains(s.Name, "/"+c+"/") {
					sums[c] += s.dur().Seconds()
				}
			}
		}
		for c, v := range sums {
			byCCA[c] = append(byCCA[c], v)
		}
		perPacket = append(perPacket, all*1e6/float64(packets))
	}
	r.setFrom(w.transport+".wall_us_per_packet", minOf(perPacket), perPacket)
	if w.transport != "quicsim" {
		for _, c := range []string{"gcc", "copa", "bbr"} {
			if vs := byCCA[c]; len(vs) > 0 {
				r.setFrom("cca."+c+".cell_wall_s", minOf(vs), vs)
			}
		}
	}

	// Extra W1 Zhuge cells, each timed three times and the fastest kept.
	w1 := cellSpec{trace: 0, cca: w.cells[0].cca, sol: scenario.SolutionZhuge}
	extra := func(name string, budget uint64, o func() *obs.Obs) float64 {
		best := math.Inf(1)
		for i := 0; i < 3; i++ {
			id := rc.tr.begin(rc.parent, name)
			res := w.runCell(nil, noSpan, w1, w.traces[0], budget, o())
			best = math.Min(best, rc.tr.end(id).Seconds())
			if res.stalled {
				r.Failed++
				r.problem("%s: cell stalled: budget unspent after %v simulated", name, res.simulated)
			}
		}
		return best
	}
	none := func() *obs.Obs { return nil }
	if w.transport == "rtp" {
		// The same call with every instrument on and with none.
		full := func() *obs.Obs {
			return obs.New(obs.Options{Trace: true, Metrics: true, PredErr: true, Series: true, Loop: true})
		}
		r.set("obs.enabled_overhead_ratio",
			extra("obs.cell-enabled", w.budget, full)/extra("obs.cell-disabled", w.budget, none))
		return nil
	}
	// How the transport's cost grows with flow length: a cell of twice the
	// budget against one of the budget. 1 is linear, 2 quadratic.
	r.set(w.transport+".scaling_exponent", math.Log2(
		extra(w.transport+".cell-long", 2*w.budget, none)/extra(w.transport+".cell-short", w.budget, none)))
	return nil
}

func (w *cellWorkload) close() {}
