package experiments

import (
	"fmt"
	"time"

	"github.com/zhuge-project/zhuge/internal/chaos"
	"github.com/zhuge-project/zhuge/internal/core"
	"github.com/zhuge-project/zhuge/internal/metrics"
	"github.com/zhuge-project/zhuge/internal/netem"
	"github.com/zhuge-project/zhuge/internal/obs"
	"github.com/zhuge-project/zhuge/internal/queue"
	"github.com/zhuge-project/zhuge/internal/scenario"
	"github.com/zhuge-project/zhuge/internal/sim"
	"github.com/zhuge-project/zhuge/internal/trace"
	"github.com/zhuge-project/zhuge/internal/wireless"
)

// dropKs are the bandwidth-reduction factors swept in Figures 4/14/15.
var dropKs = []float64{2, 5, 10, 20, 50}

const (
	dropWarmup = 15 * time.Second
	dropTail   = 30 * time.Second
	dropBase   = 30e6
)

// degradationAfter returns how long a series stayed (intermittently) above
// threshold after the event: the time of the final exceedance minus the
// event time — the paper's "duration of RTT > 200ms" convergence metric.
func degradationAfter(s *metrics.Series, threshold float64, event time.Duration) time.Duration {
	last, ok := s.LastAbove(threshold, event)
	if !ok {
		return 0
	}
	return last - event
}

// degradationBelowAfter is the frame-rate twin: time until the series stops
// dipping below threshold.
func degradationBelowAfter(s *metrics.Series, threshold float64, event time.Duration) time.Duration {
	var lastAt time.Duration
	found := false
	for _, p := range s.Points {
		if p.At >= event && p.Value < threshold {
			lastAt = p.At
			found = true
		}
	}
	if !found {
		return 0
	}
	return lastAt - event
}

// Fig4 reproduces the motivation microbenchmark: convergence duration after
// a wireless bandwidth drop for {CUBIC, BBR, Copa} over TCP and GCC over
// RTP, each under FIFO and CoDel. Reported: duration of RTT>200ms and
// duration until the CCA's target rate re-converges below 1.2x the post-
// drop capacity.
func Fig4(cfg Config) *Table {
	cfg = cfg.withDefaults()
	t := &Table{
		ID:     "fig4",
		Title:  "Convergence duration after ABW drop (CCA x AQM x k)",
		Header: []string{"cca", "qdisc", "k", "rttDegradation(s)", "rateReconverge(s)"},
	}
	type cell struct {
		sol chaos.SolutionSpec
		k   float64
	}
	var cells []cell
	for _, ccaName := range []string{"cubic", "bbr", "copa", "gcc"} {
		transport := "tcp"
		if ccaName == "gcc" {
			transport = "rtp"
		}
		for _, qd := range []string{"fifo", "codel"} {
			for _, k := range dropKs {
				cells = append(cells, cell{chaos.SolutionSpec{Transport: transport, CCA: ccaName, Qdisc: qd}, k})
			}
		}
	}
	runCells(cfg, t, len(cells), func(i int, o *obs.Obs) [][]string {
		c := cells[i]
		res := runDrop(cfg, o, c.sol, c.k)
		return [][]string{{
			c.sol.CCA, c.sol.Qdisc, fmt.Sprintf("%.0fx", c.k),
			secs(degradationAfter(res.RTTSeries, 200, dropWarmup)),
			secs(degradationAfter(&res.RateSeries, 1.2*dropBase/c.k, dropWarmup)),
		}}
	})
	return t
}

// runDrop runs one bandwidth-drop microbenchmark (Figures 4/14/15): warm
// up at 30 Mbps, drop to 30/k at dropWarmup, observe for dropTail.
func runDrop(cfg Config, o *obs.Obs, sol chaos.SolutionSpec, k float64) result {
	total := dropWarmup + cfg.dur(dropTail, 10*time.Second)
	tr := trace.Step(fmt.Sprintf("drop%.0f", k), dropBase, dropBase/k, dropWarmup, total)
	p := oneAP(cfg, o, 50*time.Millisecond, scenario.APSpec{Trace: tr, Qdisc: sol.Qdisc, Solution: sol.Sol}).Build()
	m := p.AddFlow(scenario.FlowSpec{Kind: sol.Transport, CCA: sol.CCA}).Metrics()
	m.RTTSeries = new(metrics.Series)
	p.Run(total)
	return result{m, total}
}

// Fig7 reproduces the estimator illustration: how qLong and qShort react in
// the first 25ms after an ABW drop at t=5ms. A scripted 20->2 Mbps link is
// fed 1000B packets every 400µs; predictions are sampled every millisecond.
func Fig7(cfg Config) *Table {
	cfg = cfg.withDefaults()
	countCell()
	s := sim.New(cfg.Seed)
	q := queue.NewFIFO(0)
	ft := core.NewFortuneTeller(q, core.FortuneTellerConfig{})
	flow := netem.FlowKey{SrcIP: 1, DstIP: 2, SrcPort: 1, DstPort: 2, Proto: 17}
	// Timeline: warmup traffic runs during [0, 40ms); the table's t=0 is
	// absolute 40ms, so the drop "at t=5ms" is absolute 45ms.
	wl := wireless.NewLink(s, wireless.Config{
		Rate: func(at sim.Time) float64 {
			if at >= 45*time.Millisecond {
				return 2e6
			}
			return 20e6
		},
		MaxAggPackets: 4,
	}, q, netem.Sink, s.NewRand("wl"))
	wl.AddObserver(ft)

	// Warm the estimators with 40ms of steady traffic before t=0.
	var seq uint64
	for at := -40 * time.Millisecond; at < 25*time.Millisecond; at += 400 * time.Microsecond {
		at := at + 40*time.Millisecond // shift to >= 0
		s.Schedule(at, func() {
			wl.Receive(&netem.Packet{Flow: flow, Kind: netem.KindData, Size: 1000, Seq: seq})
			seq++
		})
	}

	t := &Table{
		ID:     "fig7",
		Title:  "qLong and qShort reaction to an ABW drop at t=5ms (drop time offset +40ms internally)",
		Header: []string{"t(ms)", "qLong(ms)", "qShort(ms)", "tx(ms)", "total(ms)"},
	}
	for ms := 0; ms <= 25; ms++ {
		at := 40*time.Millisecond + time.Duration(ms)*time.Millisecond
		s.RunUntil(at)
		pred := ft.Predict(s.Now(), flow)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", ms),
			fmt.Sprintf("%.2f", pred.QLong.Seconds()*1000),
			fmt.Sprintf("%.2f", pred.QShort.Seconds()*1000),
			fmt.Sprintf("%.2f", pred.Tx.Seconds()*1000),
			fmt.Sprintf("%.2f", pred.Total.Seconds()*1000),
		})
	}
	return t
}
