// Package chaos is the phased fault-injection engine: every scenario runs
// stabilise → inject → recover on virtual time, a parameterised Injector
// arms the fault on the built path, and per-phase recovery metrics (dip
// depth, time-to-recross, post-recovery tail) summarise how each solution
// absorbs it. A matrix registry enumerates solution × CCA × transport ×
// fault cells as data, so every fault applies to every solution variant
// automatically — the "as many scenarios as you can imagine" grid, in the
// scenariod shape (SNIPPETS.md #2), reporting the Lübben & Fidler style
// time-varying recovery figure across all solutions.
//
// The package owns the canonical solution lists (the comparison points of
// the paper's figures) and the fault catalogue, which is a list of
// Injector values. internal/experiments renders the matrix into tables
// through the parallel cell runner; the paper's own microbenchmark figures
// (14–17) sweep the solution lists there, outside the matrix.
package chaos

import "time"

// MeasuredStation is the station carrying the measured flow in every
// phased scenario. It is a declared (shared-queue) station, not the
// builder's implicit primary, so injectors can hand it over.
const MeasuredStation = "sta"

// BaseRate is the constant downlink available bandwidth (bits/s) of the
// phased scenarios: the fault, not the trace, is the disturbance.
const BaseRate = 30e6

// BaseWANRTT is the phased scenarios' server↔AP round trip.
const BaseWANRTT = 50 * time.Millisecond

// Phases fixes the three phase durations of a run. The fault is armed for
// exactly the inject window; recovery metrics are measured against the
// stabilise baseline and over the recover window.
type Phases struct {
	Stabilise time.Duration
	Inject    time.Duration
	Recover   time.Duration
}

// InjectStart returns the virtual time the fault turns on.
func (ph Phases) InjectStart() time.Duration { return ph.Stabilise }

// InjectEnd returns the virtual time the fault clears.
func (ph Phases) InjectEnd() time.Duration { return ph.Stabilise + ph.Inject }

// End returns the total run length.
func (ph Phases) End() time.Duration { return ph.Stabilise + ph.Inject + ph.Recover }

// Phase indices as exported to the obs registry ("chaos.phase" gauge).
const (
	PhaseStabilise = 0
	PhaseInject    = 1
	PhaseRecover   = 2
)
