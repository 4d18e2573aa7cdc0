// Package zhuge's root benchmark harness: one testing.B benchmark per table
// and figure of the paper, wrapping the generators in internal/experiments
// at a reduced scale, plus the AP-datapath microbenchmarks behind the
// Figure 21 CPU-overhead evaluation and the ablation benches called out in
// DESIGN.md. Run everything with:
//
//	go test -bench=. -benchmem
//
// Figure/table benches report headline metrics via b.ReportMetric (tail
// ratios, degradation seconds) so regressions in reproduction quality show
// up alongside timing regressions. Full-scale tables come from
// cmd/zhuge-bench.
package zhuge

import (
	"container/heap"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/zhuge-project/zhuge/internal/cca"
	"github.com/zhuge-project/zhuge/internal/core"
	"github.com/zhuge-project/zhuge/internal/experiments"
	"github.com/zhuge-project/zhuge/internal/netem"
	"github.com/zhuge-project/zhuge/internal/obs"
	"github.com/zhuge-project/zhuge/internal/packet"
	"github.com/zhuge-project/zhuge/internal/parallel"
	"github.com/zhuge-project/zhuge/internal/queue"
	"github.com/zhuge-project/zhuge/internal/scenario"
	"github.com/zhuge-project/zhuge/internal/sim"
	"github.com/zhuge-project/zhuge/internal/trace"
	"github.com/zhuge-project/zhuge/internal/transport/quicsim"
	"github.com/zhuge-project/zhuge/internal/transport/tcpsim"
)

// benchCfg is the reduced scale used by figure benches.
var benchCfg = experiments.Config{Seed: 1, Scale: 0.05}

// runExperiment runs one experiment per iteration and reports a named
// metric extracted from its table.
func runExperiment(b *testing.B, id string, metric func(*experiments.Table) map[string]float64) {
	b.Helper()
	e := experiments.ByID(id)
	if e == nil {
		b.Fatalf("unknown experiment %q", id)
	}
	var last *experiments.Table
	for i := 0; i < b.N; i++ {
		last = e.Run(benchCfg)
	}
	if metric != nil && last != nil {
		for name, v := range metric(last) {
			b.ReportMetric(v, name)
		}
	}
}

// pctCell parses "12.34%" into 0.1234; returns -1 on failure.
func pctCell(s string) float64 {
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		return -1
	}
	return v / 100
}

// cellBy returns the first row whose leading columns match keys.
func cellBy(t *experiments.Table, keys ...string) []string {
	for _, r := range t.Rows {
		ok := true
		for i, k := range keys {
			if i >= len(r) || r[i] != k {
				ok = false
				break
			}
		}
		if ok {
			return r
		}
	}
	return nil
}

func BenchmarkFig02AccessComparison(b *testing.B) {
	runExperiment(b, "fig2", func(t *experiments.Table) map[string]float64 {
		m := map[string]float64{}
		if r := cellBy(t, "WiFi"); r != nil {
			m["wifi-rtt-tail"] = pctCell(r[3])
		}
		if r := cellBy(t, "Ethernet"); r != nil {
			m["eth-rtt-tail"] = pctCell(r[3])
		}
		return m
	})
}

func BenchmarkFig03aQueueBuildup(b *testing.B) { runExperiment(b, "fig3a", nil) }

func BenchmarkFig03bABWReduction(b *testing.B) {
	runExperiment(b, "fig3b", func(t *experiments.Table) map[string]float64 {
		m := map[string]float64{}
		if r := cellBy(t, "W1-restaurant-wifi"); r != nil {
			m["w1-over10x"] = pctCell(r[7])
		}
		return m
	})
}

func BenchmarkFig04Convergence(b *testing.B) { runExperiment(b, "fig4", nil) }
func BenchmarkFig07Estimators(b *testing.B)  { runExperiment(b, "fig7", nil) }

func BenchmarkFig11TraceRTP(b *testing.B) {
	runExperiment(b, "fig11", func(t *experiments.Table) map[string]float64 {
		m := map[string]float64{}
		if r := cellBy(t, "W1-restaurant-wifi", "Gcc+FIFO"); r != nil {
			m["w1-fifo-tail"] = pctCell(r[2])
		}
		if r := cellBy(t, "W1-restaurant-wifi", "Gcc+Zhuge"); r != nil {
			m["w1-zhuge-tail"] = pctCell(r[2])
		}
		return m
	})
}

func BenchmarkFig12TraceTCP(b *testing.B) {
	runExperiment(b, "fig12", func(t *experiments.Table) map[string]float64 {
		m := map[string]float64{}
		if r := cellBy(t, "W1-restaurant-wifi", "Copa"); r != nil {
			m["w1-copa-tail"] = pctCell(r[2])
		}
		if r := cellBy(t, "W1-restaurant-wifi", "Copa+Zhuge"); r != nil {
			m["w1-zhuge-tail"] = pctCell(r[2])
		}
		return m
	})
}

func BenchmarkFig13Distributions(b *testing.B) { runExperiment(b, "fig13", nil) }

func BenchmarkFig14DropRTP(b *testing.B) {
	runExperiment(b, "fig14", func(t *experiments.Table) map[string]float64 {
		m := map[string]float64{}
		if r := cellBy(t, "Gcc+FIFO", "10x"); r != nil {
			m["fifo-10x-degr-s"], _ = strconv.ParseFloat(r[2], 64)
		}
		if r := cellBy(t, "Gcc+Zhuge", "10x"); r != nil {
			m["zhuge-10x-degr-s"], _ = strconv.ParseFloat(r[2], 64)
		}
		return m
	})
}

func BenchmarkFig15DropTCP(b *testing.B)      { runExperiment(b, "fig15", nil) }
func BenchmarkFig16Competition(b *testing.B)  { runExperiment(b, "fig16", nil) }
func BenchmarkFig17Interference(b *testing.B) { runExperiment(b, "fig17", nil) }
func BenchmarkFig18Testbed(b *testing.B)      { runExperiment(b, "fig18", nil) }
func BenchmarkFig19Prediction(b *testing.B)   { runExperiment(b, "fig19", nil) }
func BenchmarkFig20Fairness(b *testing.B)     { runExperiment(b, "fig20", nil) }
func BenchmarkFig22FrameRates(b *testing.B)   { runExperiment(b, "fig22", nil) }
func BenchmarkTable3ABCTraces(b *testing.B)   { runExperiment(b, "table3", nil) }

func BenchmarkAblationEstimators(b *testing.B) { runExperiment(b, "ablation-estimators", nil) }
func BenchmarkAblationFeedback(b *testing.B)   { runExperiment(b, "ablation-feedback", nil) }

// BenchmarkSuite runs every experiment once per iteration at the golden
// configuration (seed 1, scale 0.02) on one worker: the suite zhuge-bench
// -exp all runs, without the fan-out. What it allocates depends on the host
// only through sync.Pool misses, so its B/op and allocs/op settle a perf
// claim the suite's noisy wall clock cannot, and CI bounds both.
func BenchmarkSuite(b *testing.B) {
	b.ReportAllocs()
	cfg := experiments.Config{Seed: 1, Scale: 0.02, Workers: 1}
	for i := 0; i < b.N; i++ {
		for _, e := range experiments.All() {
			e.Run(cfg)
		}
	}
}

// --- Figure 21: AP datapath CPU overhead ---------------------------------
//
// The paper measures CPU load of decade-old OpenWrt routers running 1-5
// concurrent Zhuge flows. The equivalent question here is the per-packet
// cost of the Zhuge datapath: Fortune Teller prediction plus Feedback
// Updater bookkeeping, reported as ns/op and B/op. A 2 Mbps RTC flow is
// ~220 pkt/s each way, so budget-per-packet = CPU_share / 440 per flow.

func benchmarkDatapath(b *testing.B, nFlows int) {
	s := sim.New(1)
	q := queue.NewFIFO(0)
	ft := core.NewFortuneTeller(q, core.FortuneTellerConfig{})
	oob := core.NewOOBUpdater(s, netem.Sink, s.NewRand("bench"), 0)

	flows := make([]netem.FlowKey, nFlows)
	acks := make([]*netem.Packet, nFlows)
	for i := range flows {
		flows[i] = netem.FlowKey{SrcIP: 1, DstIP: 2, SrcPort: uint16(1000 + i), DstPort: 80, Proto: 6}
		acks[i] = &netem.Packet{Flow: flows[i].Reverse(), Kind: netem.KindAck, Size: 64}
	}
	// Keep a modest standing queue so Predict exercises all terms.
	for i := 0; i < 20; i++ {
		q.Enqueue(0, &netem.Packet{Flow: flows[i%nFlows], Size: 1200})
	}
	now := sim.Time(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += 4 * time.Millisecond
		f := flows[i%nFlows]
		// Per data packet: a dequeue observation, a prediction, a delta.
		ft.OnDequeue(now, &netem.Packet{Flow: f, Size: 1200})
		pred := ft.Predict(now, f)
		oob.OnDataPacket(now, f, pred)
		// Per ACK: the Algorithm 2 path.
		oob.OnAckPacket(now, f, acks[i%nFlows])
		// Drain the scheduler so delayed-ack events do not accumulate.
		s.RunUntil(now)
	}
}

func BenchmarkFig21Datapath(b *testing.B) {
	for _, n := range []int{1, 2, 3, 4, 5} {
		b.Run(fmt.Sprintf("flows-%d", n), func(b *testing.B) { benchmarkDatapath(b, n) })
	}
}

// BenchmarkFig21WireFormats measures the in-band path's real parsing and
// construction costs: RTP header decode and TWCC feedback build+marshal, the
// dominant per-packet work of the live AP in cmd/zhuge-ap.
func BenchmarkFig21WireFormats(b *testing.B) {
	hdr := packet.RTPHeader{PayloadType: 96, Seq: 7, SSRC: 1, HasTWCC: true, TWCCSeq: 77}
	wire := hdr.Marshal(nil, make([]byte, 1200))
	b.Run("rtp-parse", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var h packet.RTPHeader
			if _, err := h.Unmarshal(wire); err != nil {
				b.Fatal(err)
			}
		}
	})
	arrivals := make([]packet.TWCCArrival, 50)
	for i := range arrivals {
		arrivals[i] = packet.TWCCArrival{Seq: uint16(i), At: time.Duration(i) * 4 * time.Millisecond}
	}
	b.Run("twcc-build", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fb := packet.BuildTWCC(1, 1, uint8(i), arrivals)
			if fb.Marshal(nil) == nil {
				b.Fatal("empty marshal")
			}
		}
	})
	twccWire := packet.BuildTWCC(1, 1, 0, arrivals).Marshal(nil)
	b.Run("twcc-parse", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := packet.UnmarshalTWCC(twccWire); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSimulatorCore measures raw event throughput of the discrete
// event engine, the scaling limit for large experiments. The handle-less
// sub-bench is the hot path every datapath component uses; its Timer comes
// from the simulator's free list, so it must run allocation-free. So must
// the deque every datapath queue is: one push and one pop per op at a
// standing depth of 100, so that the array fills and is compacted, not
// regrown, every 150 or so ops. And so must moving a deadline: rearm is one
// Reset per op of a timer queued among 128 others, the heap depth a
// TCP stream keeps, as a transport re-arms its retransmission timeout on
// every send and ACK. And so must a delay line: line is one Push and one
// firing per op behind a standing backlog of 64 values, a link's packets in
// flight, which re-arms the line's one timer for the next head each time.
func BenchmarkSimulatorCore(b *testing.B) {
	b.Run("deque", func(b *testing.B) {
		b.ReportAllocs()
		var q sim.Deque[*netem.Packet]
		p := &netem.Packet{}
		for i := 0; i < 1000; i++ {
			q.PushBack(p)
			if i >= 100 {
				q.PopFront()
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q.PushBack(p)
			q.PopFront()
		}
	})
	b.Run("schedule", func(b *testing.B) {
		b.ReportAllocs()
		s := sim.New(1)
		var at sim.Time
		fn := func() {}
		for i := 0; i < b.N; i++ {
			at += time.Microsecond
			s.Schedule(at, fn)
			s.Step()
		}
	})
	b.Run("rearm", func(b *testing.B) {
		b.ReportAllocs()
		s := sim.New(1)
		fn := func() {}
		for i := 0; i < 128; i++ {
			s.Schedule(sim.Time(i)*time.Millisecond, fn)
		}
		tm := s.NewTimer(fn)
		tm.Reset(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tm.Reset(sim.Time(i%128) * time.Millisecond)
		}
	})
	b.Run("line", func(b *testing.B) {
		b.ReportAllocs()
		s := sim.New(1)
		l := sim.NewLine(s, func(*netem.Packet) {})
		p := &netem.Packet{}
		var at sim.Time
		for i := 0; i < 64; i++ {
			at += time.Microsecond
			l.Push(at, p)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			at += time.Microsecond
			l.Push(at, p)
			s.Step()
		}
	})
	b.Run("at-retained", func(b *testing.B) {
		b.ReportAllocs()
		s := sim.New(1)
		var at sim.Time
		fn := func() {}
		for i := 0; i < b.N; i++ {
			// A retained timer stays registered while its simulator
			// lives, so a fresh simulator every 4096 events bounds memory.
			if i%4096 == 4095 {
				s, at = sim.New(1), 0
			}
			at += time.Microsecond
			s.At(at, fn)
			s.Step()
		}
	})
}

// --- Event core: 4-ary flat heap vs the container/heap it replaced -------

// benchTimer and benchHeap reproduce the event queue the simulator used
// before the flat 4-ary heap: a container/heap over boxed *benchTimer with
// index maintenance in Swap, plus the same free-list recycling the old
// Step loop performed. Keeping the baseline faithful makes the sub-bench
// pair measure exactly the data-structure change.
type benchTimer struct {
	at    sim.Time
	seq   uint64
	fn    func()
	index int
}

type benchHeap []*benchTimer

func (h benchHeap) Len() int { return len(h) }
func (h benchHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h benchHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *benchHeap) Push(x any) {
	t := x.(*benchTimer)
	t.index = len(*h)
	*h = append(*h, t)
}
func (h *benchHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return t
}

// BenchmarkEventCore measures steady-state event throughput: a standing set
// of self-rescheduling events whose offsets repeat, so same-instant runs
// occur (as they do under burst deliveries) and ties are broken by seq. The
// standing set is sized past L1 (8192 events) because that is where the
// representations diverge: the flat heap compares 16-byte keys in a
// contiguous array while container/heap dereferences a boxed timer per
// comparison. flat4 drives the real Simulator; containerheap drives the
// replaced implementation under the identical workload. Both must run
// allocation-free; the recorded number is sim.drill_ns_per_event
// (benchmark/README.md).
func BenchmarkEventCore(b *testing.B) {
	const standing = 8192
	// Mixed offsets with repeats: ties in virtual time are common, matching
	// the simulator's real workload (a burst of deliveries at one instant).
	offsets := [8]time.Duration{
		4 * time.Microsecond, 64 * time.Microsecond, 4 * time.Microsecond,
		256 * time.Microsecond, 16 * time.Microsecond, 4 * time.Microsecond,
		1 * time.Millisecond, 64 * time.Microsecond,
	}

	b.Run("flat4", func(b *testing.B) {
		b.ReportAllocs()
		s := sim.New(1)
		for i := 0; i < standing; i++ {
			d := offsets[i%len(offsets)]
			var fn func()
			fn = func() { s.ScheduleAfter(d, fn) }
			s.ScheduleAfter(time.Duration(i%64)*time.Microsecond, fn)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Step()
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/sec")
	})

	b.Run("containerheap", func(b *testing.B) {
		b.ReportAllocs()
		h := &benchHeap{}
		var now sim.Time
		var seq uint64
		var free []*benchTimer
		push := func(at sim.Time, fn func()) {
			var t *benchTimer
			if n := len(free); n > 0 {
				t = free[n-1]
				free = free[:n-1]
			} else {
				t = new(benchTimer)
			}
			seq++
			*t = benchTimer{at: at, seq: seq, fn: fn}
			heap.Push(h, t)
		}
		for i := 0; i < standing; i++ {
			d := offsets[i%len(offsets)]
			var fn func()
			fn = func() { push(now+sim.Time(d), fn) }
			push(sim.Time(i%64)*sim.Time(time.Microsecond), fn)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t := heap.Pop(h).(*benchTimer)
			now = t.at
			fn := t.fn
			free = append(free, t)
			fn()
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/sec")
	})
}

// BenchmarkParallelSweep measures the cell runner's scaling: one fixed
// workload (a short RTP run per cell) swept at 1/2/4/8 workers, reporting
// the speedup over the single-worker wall clock of the same sweep.
func BenchmarkParallelSweep(b *testing.B) {
	const cells = 16
	runCell := func(seed int64) float64 {
		dur := 2 * time.Second
		tr := trace.Constant("bench", 20e6, dur)
		p := scenario.Spec{Seed: seed, APs: []scenario.APSpec{{Trace: tr}}}.Build()
		f := p.AddFlow(scenario.FlowSpec{Kind: "rtp"}).RTP
		p.Run(dur)
		return f.Metrics.DeliveredBytes
	}
	sweep := func(workers int) {
		parallel.Map(workers, cells, func(i int) {
			if runCell(int64(i+1)) <= 0 {
				b.Fatal("cell delivered nothing")
			}
		})
	}

	// Baseline: sequential wall clock per sweep, measured once.
	t0 := time.Now()
	sweep(1)
	seqPerSweep := time.Since(t0)

	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			start := time.Now()
			for i := 0; i < b.N; i++ {
				sweep(workers)
			}
			elapsed := time.Since(start)
			if elapsed > 0 {
				speedup := float64(seqPerSweep) * float64(b.N) / float64(elapsed)
				b.ReportMetric(speedup, "speedup")
			}
		})
	}
}

// BenchmarkSelectiveEstimation quantifies the §7.6 CPU optimisation: with a
// SampleEvery interval the Fortune Teller serves most predictions from a
// per-flow cache.
func BenchmarkSelectiveEstimation(b *testing.B) {
	for _, every := range []time.Duration{0, 4 * time.Millisecond} {
		name := "per-packet"
		if every > 0 {
			name = "sampled-4ms"
		}
		b.Run(name, func(b *testing.B) {
			q := queue.NewFIFO(0)
			ft := core.NewFortuneTeller(q, core.FortuneTellerConfig{SampleEvery: every})
			flow := netem.FlowKey{SrcIP: 1, DstIP: 2, SrcPort: 9, DstPort: 9, Proto: 17}
			for i := 0; i < 20; i++ {
				q.Enqueue(0, &netem.Packet{Flow: flow, Size: 1200})
			}
			now := sim.Time(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now += 500 * time.Microsecond // ~8 packets per 4ms window
				ft.OnDequeue(now, &netem.Packet{Flow: flow, Size: 1200})
				ft.Predict(now, flow)
			}
		})
	}
}

// BenchmarkObsDatapath is the observability layer's overhead contract: the
// same end-to-end Zhuge RTP run with observability disabled (the production
// fast path — every instrument is a nil pointer and every hot-path guard is
// one nil check) and fully enabled (tracer + registry + prediction-error
// accounting). The disabled variant must stay within noise of the seed
// datapath; the recorded ratio is obs.enabled_overhead_ratio
// (benchmark/README.md).
func BenchmarkObsDatapath(b *testing.B) {
	run := func(b *testing.B, mk func() *obs.Obs) {
		b.ReportAllocs()
		dur := 2 * time.Second
		for i := 0; i < b.N; i++ {
			tr := trace.Constant("obs-bench", 20e6, dur)
			p := scenario.Spec{Seed: 1, Obs: mk(), APs: []scenario.APSpec{{
				Trace: tr, Solution: scenario.SolutionZhuge,
			}}}.Build()
			f := p.AddFlow(scenario.FlowSpec{Kind: "rtp"}).RTP
			p.Run(dur)
			if f.Metrics.DeliveredBytes <= 0 {
				b.Fatal("flow delivered nothing")
			}
		}
	}
	b.Run("disabled", func(b *testing.B) {
		run(b, func() *obs.Obs { return nil })
	})
	b.Run("enabled", func(b *testing.B) {
		run(b, func() *obs.Obs {
			return obs.New(obs.Options{Trace: true, Metrics: true, PredErr: true})
		})
	})
}

// obsOff is what a datapath component holds with observability off: a nil
// pointer per instrument (package-level, so the nil tests are not folded).
var obsOff struct {
	c  *obs.Counter
	g  *obs.Gauge
	h  *obs.Hist
	tr *obs.Tracer
	pe *obs.PredErr
	lt *obs.LoopTracker
	ss *obs.SeriesSet
}

// BenchmarkObsDisabledInstruments isolates the per-call cost of nil
// instruments — the exact operations the datapath executes per packet when
// observability is off: the cheap instruments called on nil, the costly hooks
// behind the nil test their call sites write. Must report 0 B/op (also pinned
// as a test by TestObsDisabledZeroAlloc).
func BenchmarkObsDisabledInstruments(b *testing.B) {
	d := &obsOff
	flow := netem.FlowKey{SrcIP: 1, DstIP: 2, SrcPort: 9, DstPort: 9, Proto: 17}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.c.Inc()
		d.g.Set(1)
		d.h.Observe(time.Millisecond)
		if d.tr != nil {
			d.tr.Record(obs.Event{At: sim.Time(i), Type: obs.EvEnqueue, Flow: flow})
		}
		if d.pe != nil {
			d.pe.Observe(flow, time.Millisecond, time.Millisecond)
		}
		if d.lt != nil {
			d.lt.OnObserve(sim.Time(i), flow)
			d.lt.OnFeedbackOut(sim.Time(i), flow)
			d.lt.OnReact(sim.Time(i), flow)
			d.lt.OnAir(sim.Time(i), flow)
		}
		d.ss.Sample(sim.Time(i), nil)
	}
}

// BenchmarkQUICTransfer is quicsim's cost per packet at two flow lengths: one
// lossless bulk transfer over a pair of links, cubic never held back by a
// queue. ns/pkt at 8000 packets over ns/pkt at 2000 is the scaling gate CI
// applies (linear bookkeeping reads 1.0; walking every ACK range from packet
// 0 read 4.1): a ratio inside one process, so the speed of the host cancels.
func BenchmarkQUICTransfer(b *testing.B) {
	for _, pkts := range []int{2000, 8000} {
		b.Run(fmt.Sprintf("pkts-%d", pkts), func(b *testing.B) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := sim.New(1)
				fwd := netem.NewLink(s, 100e6, 20*time.Millisecond, nil)
				rev := netem.NewLink(s, 100e6, 20*time.Millisecond, nil)
				flow := netem.FlowKey{SrcIP: 1, DstIP: 2, SrcPort: 443, DstPort: 50000, Proto: 17}
				snd := quicsim.NewSender(s, flow, cca.NewCubic(), fwd)
				rcv := quicsim.NewReceiver(s, flow.Reverse(), rev)
				fwd.SetDst(rcv)
				rev.SetDst(snd)
				snd.Write(pkts * cca.MSS)
				s.RunUntil(time.Minute)
				if rcv.Delivered() != uint64(pkts*cca.MSS) || snd.LostPackets() != 0 {
					b.Fatalf("delivered %d of %d bytes, %d packets lost", rcv.Delivered(), pkts*cca.MSS, snd.LostPackets())
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			n := float64(b.N * pkts)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/pkt")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/pkt")
		})
	}
}

// BenchmarkTCPTransfer is BenchmarkQUICTransfer's twin for tcpsim: the
// same lossless bulk transfer, cubic over a pair of 100 Mbit/s links, at two
// flow lengths. ns/pkt at 8000 packets over ns/pkt at 2000 is the scaling
// gate CI applies (1.83 while every new segment was placed by a scan of the
// in-flight list and every ACK moved the rest of it down; about 1.0 with
// the list a deque).
func BenchmarkTCPTransfer(b *testing.B) {
	for _, pkts := range []int{2000, 8000} {
		b.Run(fmt.Sprintf("pkts-%d", pkts), func(b *testing.B) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := sim.New(1)
				fwd := netem.NewLink(s, 100e6, 20*time.Millisecond, nil)
				rev := netem.NewLink(s, 100e6, 20*time.Millisecond, nil)
				flow := netem.FlowKey{SrcIP: 1, DstIP: 2, SrcPort: 443, DstPort: 50000, Proto: 6}
				snd := tcpsim.NewSender(s, flow, cca.NewCubic(), fwd)
				rcv := tcpsim.NewReceiver(s, flow.Reverse(), rev)
				fwd.SetDst(rcv)
				rev.SetDst(snd)
				snd.Write(pkts * cca.MSS)
				s.RunUntil(time.Minute)
				if rcv.Delivered() != uint64(pkts*cca.MSS) || snd.Retransmits() != 0 {
					b.Fatalf("delivered %d of %d bytes, %d retransmits", rcv.Delivered(), pkts*cca.MSS, snd.Retransmits())
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			n := float64(b.N * pkts)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/pkt")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/pkt")
		})
	}
}

// copaPacing keeps BenchmarkCopaOnAck's PacingRate calls from being
// optimised away.
var copaPacing float64

// BenchmarkCopaOnAck is Copa's cost per ACK at two ACK rates: OnAck plus the
// two PacingRate calls tcpsim's send loop makes per packet, after a 3 s
// warm-up that fills the 2 s of standing-RTT samples. ns/ack at 10000 ACK/s
// over ns/ack at 1000 is the gate CI applies: scanning every retained sample
// read ~10 (ten times the samples), a search of the monotonic deque ~1.0.
func BenchmarkCopaOnAck(b *testing.B) {
	for _, rate := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("acks-%d", rate), func(b *testing.B) {
			c := cca.NewCopa()
			rng := rand.New(rand.NewSource(1))
			gap := time.Second / time.Duration(rate)
			var now sim.Time
			ack := func() {
				now += gap
				rtt := 40*time.Millisecond + time.Duration(rng.Int63n(int64(10*time.Millisecond)))
				c.OnAck(cca.AckEvent{Now: now, AckedBytes: cca.MSS, RTT: rtt})
				copaPacing = c.PacingRate(now) + c.PacingRate(now)
			}
			for i := 0; i < 3*rate; i++ {
				ack()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ack()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/ack")
		})
	}
}

func BenchmarkExtQUIC(b *testing.B)      { runExperiment(b, "ext-quic", nil) }
func BenchmarkExtNADA(b *testing.B)      { runExperiment(b, "ext-nada", nil) }
func BenchmarkExtSelective(b *testing.B) { runExperiment(b, "ext-selective", nil) }

func BenchmarkExtHandover(b *testing.B) {
	runExperiment(b, "ext-handover", func(t *experiments.Table) map[string]float64 {
		m := map[string]float64{}
		if r := cellBy(t, "rtp", "zhuge", "reset"); r != nil {
			m["rtp-reset-recovery-s"], _ = strconv.ParseFloat(r[5], 64)
		}
		if r := cellBy(t, "rtp", "zhuge", "migrate"); r != nil {
			m["rtp-migrate-recovery-s"], _ = strconv.ParseFloat(r[5], 64)
		}
		return m
	})
}

// --- Chaos matrix: phased fault-injection throughput ----------------------

// BenchmarkChaosMatrix runs the golden chaos subset (every solution under
// one representative fault per disturbance shape, stabilise→inject→recover
// each) once per iteration and reports matrix throughput in cells/sec.
func BenchmarkChaosMatrix(b *testing.B) {
	var rows int
	for i := 0; i < b.N; i++ {
		rows = len(experiments.ChaosMatrix(benchCfg).Rows)
	}
	b.ReportMetric(float64(rows*b.N)/b.Elapsed().Seconds(), "cells/sec")
	b.ReportMetric(float64(rows), "cells")
}
