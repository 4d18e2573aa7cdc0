package obs

import (
	"fmt"
	"strings"
	"time"

	"github.com/zhuge-project/zhuge/internal/metrics"
	"github.com/zhuge-project/zhuge/internal/netem"
	"github.com/zhuge-project/zhuge/internal/sim"
)

// LoopSegment identifies one leg of the Zhuge control loop. The paper's
// thesis is that moving feedback generation into the AP shortens the loop
// event-occurrence → observation → feedback → sender reaction → new rate on
// air; LoopTracker measures exactly that decomposition.
type LoopSegment uint8

const (
	// SegObserveToFeedback: AP observes the flow (downlink data arrival,
	// Fortune Teller prediction) → feedback for that observation departs the
	// AP (OOB delayed-ACK release or in-band TWCC flush).
	SegObserveToFeedback LoopSegment = iota
	// SegFeedbackToReact: feedback departs the AP → the sender applies a new
	// rate (CC feedback processed, target bitrate updated).
	SegFeedbackToReact
	// SegReactToAir: sender reaction → the first packet paced out at the new
	// rate leaves the sender.
	SegReactToAir
	// SegObserveToAir: whole loop, AP observation → new rate on air.
	SegObserveToAir

	numLoopSegments
)

var loopSegmentNames = [numLoopSegments]string{
	"observe->feedback",
	"feedback->react",
	"react->air",
	"observe->air",
}

// String returns the segment's table label.
func (s LoopSegment) String() string {
	if s >= numLoopSegments {
		return fmt.Sprintf("segment(%d)", uint8(s))
	}
	return loopSegmentNames[s]
}

// loopFeedback is one feedback packet that left the AP: when it departed and
// which observation it carries.
type loopFeedback struct {
	depAt sim.Time
	obsAt sim.Time
}

// maxLoopFeedbacks bounds the per-flow in-flight ring. Feedback departs at
// most once per in-band interval or per delayed ACK; a reaction drains
// everything older than itself, so the ring only grows when a sender never
// reacts (e.g. a TCP flow whose adaptation tick is coarse) — cap it and
// drop the oldest.
const maxLoopFeedbacks = 256

type loopFlow struct {
	lastObs sim.Time
	haveObs bool

	fifo []loopFeedback // departed, not yet matched to a reaction

	reactAt    sim.Time
	reactObs   sim.Time
	pendingAir bool
}

// LoopTracker decomposes the control loop per flow into segment latency
// histograms plus a feedback-age distribution — the age-of-information of
// the observation a sender acts on, at the moment it acts. One tracker per
// simulation; hooks are wired through core (AP, OOB/in-band updaters) and
// the transports. The four On* hooks fire per packet and need a live
// receiver — a disabled tracker is a nil pointer the call site tests first,
// so it costs one branch; the readers accept nil.
type LoopTracker struct {
	flows map[netem.FlowKey]*loopFlow

	seg [numLoopSegments]*metrics.Histogram
	age *metrics.Histogram // feedback age at reaction time

	ageGauge *Gauge // "latest age" gauge (ms); New binds it when the registry is on

	matched   uint64 // reactions joined to a departed feedback
	unmatched uint64 // reactions with no candidate feedback
}

// NewLoopTracker returns an empty tracker.
func NewLoopTracker() *LoopTracker {
	lt := &LoopTracker{
		flows: make(map[netem.FlowKey]*loopFlow),
		age:   metrics.NewHistogram(),
	}
	for i := range lt.seg {
		lt.seg[i] = metrics.NewHistogram()
	}
	return lt
}

func (lt *LoopTracker) flow(flow netem.FlowKey) *loopFlow {
	f := lt.flows[flow]
	if f == nil {
		f = &loopFlow{}
		lt.flows[flow] = f
	}
	return f
}

// OnObserve records that the AP observed flow at now (downlink packet
// arrival feeding the Fortune Teller). Needs a live receiver.
func (lt *LoopTracker) OnObserve(now sim.Time, flow netem.FlowKey) {
	f := lt.flow(flow)
	f.lastObs = now
	f.haveObs = true
}

// OnFeedbackOut records that feedback for flow's most recent observation
// departs the AP at dep — the in-band flush time, or the OOB release time
// now+actualDelay (which may be in the virtual future relative to the call).
// Needs a live receiver.
func (lt *LoopTracker) OnFeedbackOut(dep sim.Time, flow netem.FlowKey) {
	f := lt.flow(flow)
	if !f.haveObs {
		return
	}
	lt.seg[SegObserveToFeedback].Add(time.Duration(dep - f.lastObs))
	if len(f.fifo) >= maxLoopFeedbacks {
		copy(f.fifo, f.fifo[1:])
		f.fifo = f.fifo[:len(f.fifo)-1]
	}
	f.fifo = append(f.fifo, loopFeedback{depAt: dep, obsAt: f.lastObs})
}

// OnReact records that the sender applied a new rate at now. The reaction is
// joined to the newest feedback that had departed by then (feedback is
// delivered in order, so anything older was either already acted on or
// superseded by this one); older entries are discarded. Needs a live
// receiver.
func (lt *LoopTracker) OnReact(now sim.Time, flow netem.FlowKey) {
	f := lt.flow(flow)
	best := -1
	for i, fb := range f.fifo {
		if fb.depAt <= now {
			best = i
		} else {
			break
		}
	}
	if best < 0 {
		lt.unmatched++
		return
	}
	fb := f.fifo[best]
	n := copy(f.fifo, f.fifo[best+1:])
	f.fifo = f.fifo[:n]
	lt.matched++

	lt.seg[SegFeedbackToReact].Add(time.Duration(now - fb.depAt))
	age := time.Duration(now - fb.obsAt)
	lt.age.Add(age)
	lt.ageGauge.Set(float64(age) / float64(time.Millisecond))

	f.reactAt = now
	f.reactObs = fb.obsAt
	f.pendingAir = true
}

// OnAir records that a packet left the sender at now; only the first send
// after a reaction closes the loop. Needs a live receiver.
func (lt *LoopTracker) OnAir(now sim.Time, flow netem.FlowKey) {
	f := lt.flows[flow]
	if f == nil || !f.pendingAir {
		return
	}
	f.pendingAir = false
	lt.seg[SegReactToAir].Add(time.Duration(now - f.reactAt))
	lt.seg[SegObserveToAir].Add(time.Duration(now - f.reactObs))
}

// Matched returns how many reactions joined a departed feedback and how many
// found none. Nil-safe.
func (lt *LoopTracker) Matched() (matched, unmatched uint64) {
	if lt == nil {
		return 0, 0
	}
	return lt.matched, lt.unmatched
}

// Segment exposes one segment's histogram; nil on a nil receiver.
func (lt *LoopTracker) Segment(s LoopSegment) *metrics.Histogram {
	if lt == nil || s >= numLoopSegments {
		return nil
	}
	return lt.seg[s]
}

// LoopStat is one exported decomposition row.
type LoopStat struct {
	Segment string `json:"segment"`
	N       uint64 `json:"n"`
	P50     int64  `json:"p50_ns"`
	P95     int64  `json:"p95_ns"`
	P99     int64  `json:"p99_ns"`
}

func loopRow(label string, h *metrics.Histogram) LoopStat {
	return LoopStat{
		Segment: label,
		N:       h.Count(),
		P50:     int64(h.Quantile(0.50)),
		P95:     int64(h.Quantile(0.95)),
		P99:     int64(h.Quantile(0.99)),
	}
}

// Rows returns the four segment rows followed by the feedback-age row.
// Nil-safe.
func (lt *LoopTracker) Rows() []LoopStat {
	if lt == nil {
		return nil
	}
	rows := make([]LoopStat, 0, numLoopSegments+1)
	for i := LoopSegment(0); i < numLoopSegments; i++ {
		rows = append(rows, loopRow(i.String(), lt.seg[i]))
	}
	rows = append(rows, loopRow("feedback age", lt.age))
	return rows
}

// Table renders the decomposition as an aligned text table.
func (lt *LoopTracker) Table() string {
	rows := lt.Rows()
	if len(rows) == 0 {
		return "control loop: no samples\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-20s %8s %12s %12s %12s\n", "segment", "n", "p50", "p95", "p99")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-20s %8d %12s %12s %12s\n",
			r.Segment, r.N,
			time.Duration(r.P50).Round(10*time.Microsecond),
			time.Duration(r.P95).Round(10*time.Microsecond),
			time.Duration(r.P99).Round(10*time.Microsecond))
	}
	return b.String()
}
