package obs

import (
	"encoding/json"
	"io"
	"time"

	"github.com/zhuge-project/zhuge/internal/metrics"
)

// Counter is a monotonically increasing integer instrument. Counter, Gauge
// and Hist are the cheap instruments: their arguments cost nothing to
// evaluate, so every method is a no-op on a nil receiver and a component
// built without a registry pays one nil check per update.
type Counter struct{ v int64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v++
}

// Add adds n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v += n
}

// Value returns the current count; 0 on a nil receiver.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is a last-value instrument.
type Gauge struct{ v float64 }

// Set records the current value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.v = v
}

// Value returns the last set value; 0 on a nil receiver.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Hist is a nil-safe duration histogram. Instruments whose name ends in
// ".n" record dimensionless counts cast to time.Duration (e.g. packets per
// AMPDU); their snapshot values read as raw integers, not nanoseconds.
type Hist struct{ h *metrics.Histogram }

// Observe records one value.
func (h *Hist) Observe(d time.Duration) {
	if h == nil {
		return
	}
	h.h.Add(d)
}

// Registry names and owns a simulation's instruments. Resolving an
// instrument is done once at component construction; updates then touch the
// instrument directly, never the maps. Not safe for concurrent use — one
// registry per simulation.
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Hist
}

// newRegistry returns an empty registry.
func newRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Hist),
	}
}

// Counter returns the named counter, creating it on first use. Counter,
// Gauge and Hist need a live registry; a component that may have none
// resolves through Obs.Counter/Gauge/Hist, which hand out nil instruments.
func (r *Registry) Counter(name string) *Counter {
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Hist returns the named duration histogram, creating it on first use.
func (r *Registry) Hist(name string) *Hist {
	h := r.hists[name]
	if h == nil {
		h = &Hist{h: metrics.NewHistogram()}
		r.hists[name] = h
	}
	return h
}

// HistStat is the exported summary of one histogram. Durations are
// nanoseconds (or raw counts for ".n"-suffixed instruments).
type HistStat struct {
	Count uint64 `json:"count"`
	Mean  int64  `json:"mean_ns"`
	P50   int64  `json:"p50_ns"`
	P90   int64  `json:"p90_ns"`
	P95   int64  `json:"p95_ns"`
	P99   int64  `json:"p99_ns"`
	Max   int64  `json:"max_ns"`
}

// Snapshot is a point-in-time copy of every instrument, safe to export
// after the owning simulation finished. encoding/json renders map keys
// sorted, so snapshots serialise deterministically.
type Snapshot struct {
	Counters   map[string]int64    `json:"counters"`
	Gauges     map[string]float64  `json:"gauges"`
	Histograms map[string]HistStat `json:"histograms"`
}

// Snapshot copies out all instrument values. Nil-safe: a nil registry
// yields an empty (non-nil-map) snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistStat{},
	}
	if r == nil {
		return s
	}
	for name, c := range r.counters {
		s.Counters[name] = c.v
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.v
	}
	for name, h := range r.hists {
		hh := h.h
		s.Histograms[name] = HistStat{
			Count: hh.Count(),
			Mean:  int64(hh.Mean()),
			P50:   int64(hh.Quantile(0.50)),
			P90:   int64(hh.Quantile(0.90)),
			P95:   int64(hh.Quantile(0.95)),
			P99:   int64(hh.Quantile(0.99)),
			Max:   int64(hh.Max()),
		}
	}
	return s
}

// MetricsReport is the one snapshot record of a bundle: the registry
// snapshot plus the prediction-error and control-loop tables. It is the
// document WriteMetricsJSON emits and the body of every SweepCell.
type MetricsReport struct {
	Metrics Snapshot      `json:"metrics"`
	PredErr []PredErrStat `json:"prediction_error,omitempty"`
	Loop    []LoopStat    `json:"control_loop,omitempty"`
}

// Report snapshots the bundle. Nil-safe on the bundle and on each
// instrument: an absent one leaves its section empty.
func (o *Obs) Report() MetricsReport {
	var reg *Registry
	if o != nil {
		reg = o.Reg
	}
	return MetricsReport{Metrics: reg.Snapshot(), PredErr: o.Errs().Rows(), Loop: o.ControlLoop().Rows()}
}

// WriteMetricsJSON writes the bundle's Report as one indented JSON document.
func (o *Obs) WriteMetricsJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(o.Report())
}
