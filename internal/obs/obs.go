// Package obs is the observability layer of the Zhuge datapath: a
// packet-lifecycle tracer, a named-instrument metrics registry and a
// prediction-error accounter, bundled per simulation so that concurrently
// running experiment cells never share mutable state.
//
// The layer is designed to cost a nil check and nothing else when disabled:
// every component holds (possibly nil) pointers to its instruments, and
// there are two kinds of method.
//
// Cheap instruments are no-ops on a nil receiver, so the caller writes no
// guard: Counter.Inc/Add, Gauge.Set, Hist.Observe, Series.Add, the Obs
// accessors (Trace, Counter, Gauge, Hist, Errs, ControlLoop), every reader
// and exporter, and per-flow or per-run set-up (PredErr.SetMode,
// SeriesSet.Of, SeriesSet.Sample, StartSampler).
// Their arguments cost nothing to evaluate.
//
// Per-packet hooks whose arguments cost something to build need a live
// receiver and have no nil branch: Tracer.Record, PredErr.Observe,
// LoopTracker.OnObserve/OnFeedbackOut/OnReact/OnAir, and
// Registry.Counter/Gauge/Hist (a map lookup; resolve through the Obs
// accessors when the registry may be absent). The caller tests its pointer
// first — `if l.tr != nil { l.tr.Record(obs.Event{...}) }` — which is what
// keeps the Event from being built on the disabled path. That guard is not
// a convention: every test that does not ask for obs runs with these
// pointers nil, so a call site that forgets it panics there, naming the
// hook.
//
// The contract is pinned by TestHooksNeedLiveReceiver (the list above),
// TestObsDisabledZeroAlloc and the BenchmarkObsDatapath before/after pair;
// scenario.TestEachInstrumentAlone covers "obs on, this instrument off".
package obs

// Obs bundles the observability components for one simulation. Any field
// may be nil; a nil *Obs disables everything. One Obs must not be shared
// between concurrently running simulations — the experiment harness creates
// one per cell (see Sweep).
type Obs struct {
	Tracer  *Tracer
	Reg     *Registry
	PredErr *PredErr
	Series  *SeriesSet
	Loop    *LoopTracker
}

// Options selects which components New enables.
type Options struct {
	Trace   bool // record packet-lifecycle events
	Metrics bool // counters, gauges, histograms
	PredErr bool // prediction-vs-actual accounting
	Series  bool // virtual-time telemetry series (sampled via StartSampler)
	Loop    bool // control-loop decomposition spans
}

// New returns an Obs with the selected components enabled, or nil when none
// are.
func New(o Options) *Obs {
	if !o.Trace && !o.Metrics && !o.PredErr && !o.Series && !o.Loop {
		return nil
	}
	b := &Obs{}
	if o.Trace {
		b.Tracer = newTracer()
	}
	if o.Metrics {
		b.Reg = newRegistry()
	}
	if o.PredErr {
		b.PredErr = newPredErr()
	}
	if o.Series {
		b.Series = NewSeriesSet()
	}
	if o.Loop {
		b.Loop = NewLoopTracker()
		if b.Reg != nil {
			b.Loop.ageGauge = b.Reg.Gauge("loop.feedback_age_ms")
		}
	}
	return b
}

// Trace returns the bundle's tracer, nil-safely.
func (o *Obs) Trace() *Tracer {
	if o == nil {
		return nil
	}
	return o.Tracer
}

// Counter resolves a named counter, nil-safely: with no registry the
// returned counter is nil and its methods are no-ops.
func (o *Obs) Counter(name string) *Counter {
	if o == nil || o.Reg == nil {
		return nil
	}
	return o.Reg.Counter(name)
}

// Gauge resolves a named gauge, nil-safely.
func (o *Obs) Gauge(name string) *Gauge {
	if o == nil || o.Reg == nil {
		return nil
	}
	return o.Reg.Gauge(name)
}

// Hist resolves a named duration histogram, nil-safely.
func (o *Obs) Hist(name string) *Hist {
	if o == nil || o.Reg == nil {
		return nil
	}
	return o.Reg.Hist(name)
}

// Errs returns the bundle's prediction-error accounter, nil-safely.
func (o *Obs) Errs() *PredErr {
	if o == nil {
		return nil
	}
	return o.PredErr
}

// ControlLoop returns the bundle's control-loop tracker, nil-safely.
func (o *Obs) ControlLoop() *LoopTracker {
	if o == nil {
		return nil
	}
	return o.Loop
}
