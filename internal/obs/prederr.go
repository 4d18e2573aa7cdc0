package obs

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/zhuge-project/zhuge/internal/metrics"
	"github.com/zhuge-project/zhuge/internal/netem"
)

// PredErr joins each Fortune Teller prediction against the packet's actual
// AP-to-client latency, measured when the packet is delivered over the air
// (the same join Figure 19 plots), and maintains error distributions per
// flow and per feedback mode. Absolute errors feed a streaming histogram
// (P50/P95/P99); the signed sum exposes bias — whether the Fortune Teller
// systematically over- or under-predicts for that flow.
type PredErr struct {
	flows map[netem.FlowKey]*predErrStats
	order []netem.FlowKey // first-observation order, for deterministic rows
	modes map[string]*predErrStats
	mode  map[netem.FlowKey]string // flow -> feedback-mode label
}

type predErrStats struct {
	abs       *metrics.Histogram
	signedSum time.Duration
	over      int64 // predicted > actual
	under     int64 // predicted < actual
}

func newPredErrStats() *predErrStats {
	return &predErrStats{abs: metrics.NewHistogram()}
}

func (s *predErrStats) observe(predicted, actual time.Duration) {
	err := predicted - actual
	s.signedSum += err
	if err > 0 {
		s.over++
	} else if err < 0 {
		s.under++
		err = -err
	}
	s.abs.Add(err)
}

// newPredErr returns an empty accounter.
func newPredErr() *PredErr {
	return &PredErr{
		flows: make(map[netem.FlowKey]*predErrStats),
		modes: make(map[string]*predErrStats),
		mode:  make(map[netem.FlowKey]string),
	}
}

// SetMode labels a flow with its feedback mode ("oob", "inband") so errors
// aggregate per mechanism as well as per flow. Per-flow set-up, so nil-safe:
// it runs with obs on and this accounter off.
func (a *PredErr) SetMode(flow netem.FlowKey, mode string) {
	if a == nil {
		return
	}
	a.mode[flow] = mode
}

// Observe records one (predicted, actual) pair for a flow. It needs a live
// receiver: the per-delivery call site tests for nil before it computes the
// latency it passes.
func (a *PredErr) Observe(flow netem.FlowKey, predicted, actual time.Duration) {
	s := a.flows[flow]
	if s == nil {
		s = newPredErrStats()
		a.flows[flow] = s
		a.order = append(a.order, flow)
	}
	s.observe(predicted, actual)
	if mode := a.mode[flow]; mode != "" {
		ms := a.modes[mode]
		if ms == nil {
			ms = newPredErrStats()
			a.modes[mode] = ms
		}
		ms.observe(predicted, actual)
	}
}

// Samples returns the total number of joined pairs. Nil-safe.
func (a *PredErr) Samples() int64 {
	if a == nil {
		return 0
	}
	var n int64
	for _, s := range a.flows {
		n += int64(s.abs.Count())
	}
	return n
}

// PredErrStat is one exported row: absolute-error quantiles plus signed
// bias for a flow or a feedback mode.
type PredErrStat struct {
	Flow string `json:"flow,omitempty"`
	Mode string `json:"mode,omitempty"`
	N    uint64 `json:"n"`
	P50  int64  `json:"abs_err_p50_ns"`
	P95  int64  `json:"abs_err_p95_ns"`
	P99  int64  `json:"abs_err_p99_ns"`
	Bias int64  `json:"bias_ns"` // mean signed error; >0 over-predicts
	Over int64  `json:"over"`    // samples with predicted > actual
}

func (s *predErrStats) row() PredErrStat {
	n := s.abs.Count()
	r := PredErrStat{
		N:    n,
		P50:  int64(s.abs.Quantile(0.50)),
		P95:  int64(s.abs.Quantile(0.95)),
		P99:  int64(s.abs.Quantile(0.99)),
		Over: s.over,
	}
	if n > 0 {
		r.Bias = int64(s.signedSum) / int64(n)
	}
	return r
}

// Rows returns per-flow rows in first-observation order, followed by
// per-mode aggregate rows in sorted order. Nil-safe.
func (a *PredErr) Rows() []PredErrStat {
	if a == nil {
		return nil
	}
	rows := make([]PredErrStat, 0, len(a.order)+len(a.modes))
	for _, flow := range a.order {
		r := a.flows[flow].row()
		r.Flow = flow.String()
		r.Mode = a.mode[flow]
		rows = append(rows, r)
	}
	modes := make([]string, 0, len(a.modes))
	for m := range a.modes {
		modes = append(modes, m)
	}
	sort.Strings(modes)
	for _, m := range modes {
		r := a.modes[m].row()
		r.Mode = m
		rows = append(rows, r)
	}
	return rows
}

// Table renders the rows as an aligned text table for terminal output.
func (a *PredErr) Table() string {
	rows := a.Rows()
	if len(rows) == 0 {
		return "prediction error: no samples\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %-8s %8s %12s %12s %12s %12s %8s\n",
		"flow", "mode", "n", "|err|.p50", "|err|.p95", "|err|.p99", "bias", "over%")
	for _, r := range rows {
		name := r.Flow
		if name == "" {
			name = "(all " + r.Mode + ")"
		}
		overPct := 0.0
		if r.N > 0 {
			overPct = 100 * float64(r.Over) / float64(r.N)
		}
		fmt.Fprintf(&b, "%-28s %-8s %8d %12s %12s %12s %12s %7.1f%%\n",
			name, r.Mode, r.N,
			time.Duration(r.P50).Round(10*time.Microsecond),
			time.Duration(r.P95).Round(10*time.Microsecond),
			time.Duration(r.P99).Round(10*time.Microsecond),
			time.Duration(r.Bias).Round(10*time.Microsecond),
			overPct)
	}
	return b.String()
}
