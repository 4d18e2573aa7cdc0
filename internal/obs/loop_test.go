package obs

import (
	"strings"
	"testing"
	"time"

	"github.com/zhuge-project/zhuge/internal/netem"
	"github.com/zhuge-project/zhuge/internal/sim"
)

func loopTestFlow() netem.FlowKey {
	return netem.FlowKey{SrcIP: 1, DstIP: 2, SrcPort: 10, DstPort: 20, Proto: 17}
}

// near asserts a histogram quantile within the log-bucket relative error
// (~2%, use 5% slack).
func near(t *testing.T, label string, got, want time.Duration) {
	t.Helper()
	lo := time.Duration(float64(want) * 0.95)
	hi := time.Duration(float64(want) * 1.05)
	if got < lo || got > hi {
		t.Fatalf("%s = %v, want ~%v", label, got, want)
	}
}

func TestLoopTrackerDecomposition(t *testing.T) {
	lt := NewLoopTracker()
	f := loopTestFlow()
	ms := func(n int64) sim.Time { return sim.Time(n) * sim.Time(time.Millisecond) }

	// One full loop: observe at 10ms, feedback departs at 15ms, sender
	// reacts at 18ms, first packet at the new rate leaves at 20ms.
	lt.OnObserve(ms(10), f)
	lt.OnFeedbackOut(ms(15), f)
	lt.OnReact(ms(18), f)
	lt.OnAir(ms(20), f)

	if m, u := lt.Matched(); m != 1 || u != 0 {
		t.Fatalf("matched=%d unmatched=%d, want 1/0", m, u)
	}
	near(t, "observe->feedback", lt.Segment(SegObserveToFeedback).Quantile(0.5), 5*time.Millisecond)
	near(t, "feedback->react", lt.Segment(SegFeedbackToReact).Quantile(0.5), 3*time.Millisecond)
	near(t, "react->air", lt.Segment(SegReactToAir).Quantile(0.5), 2*time.Millisecond)
	near(t, "observe->air", lt.Segment(SegObserveToAir).Quantile(0.5), 10*time.Millisecond)
	near(t, "feedback age", lt.age.Quantile(0.5), 8*time.Millisecond)

	// Only the FIRST send after a reaction closes the loop.
	lt.OnAir(ms(25), f)
	if n := lt.Segment(SegReactToAir).Count(); n != 1 {
		t.Fatalf("react->air count %d after second send, want 1", n)
	}
}

func TestLoopTrackerJoinsNewestDepartedFeedback(t *testing.T) {
	lt := NewLoopTracker()
	f := loopTestFlow()
	ms := func(n int64) sim.Time { return sim.Time(n) * sim.Time(time.Millisecond) }

	// Two feedbacks depart before the reaction, one after. The reaction at
	// 10ms must join the NEWEST already-departed one (dep=9ms) — older
	// feedback was superseded — and must not touch the future one (dep=12ms,
	// an OOB release scheduled ahead of virtual now).
	lt.OnObserve(ms(1), f)
	lt.OnFeedbackOut(ms(5), f)
	lt.OnObserve(ms(6), f)
	lt.OnFeedbackOut(ms(9), f)
	lt.OnObserve(ms(10), f)
	lt.OnFeedbackOut(ms(12), f)

	lt.OnReact(ms(10), f)
	if m, u := lt.Matched(); m != 1 || u != 0 {
		t.Fatalf("matched=%d unmatched=%d, want 1/0", m, u)
	}
	near(t, "feedback->react", lt.Segment(SegFeedbackToReact).Quantile(0.5), time.Millisecond)
	near(t, "feedback age", lt.age.Quantile(0.5), 4*time.Millisecond)

	// The older entry was discarded with the match; the future one remains
	// and is matched once virtual time reaches its departure.
	lt.OnReact(ms(13), f)
	if m, _ := lt.Matched(); m != 2 {
		t.Fatalf("matched=%d after second react, want 2", m)
	}
	near(t, "second feedback->react", lt.Segment(SegFeedbackToReact).Quantile(0.9), time.Millisecond)

	// Fifo is now drained: a further reaction finds no candidate.
	lt.OnReact(ms(14), f)
	if _, u := lt.Matched(); u != 1 {
		t.Fatalf("unmatched=%d, want 1", u)
	}
}

func TestLoopTrackerReactionWithoutFeedbackIsUnmatched(t *testing.T) {
	lt := NewLoopTracker()
	f := loopTestFlow()
	lt.OnReact(sim.Time(time.Millisecond), f)
	if m, u := lt.Matched(); m != 0 || u != 1 {
		t.Fatalf("matched=%d unmatched=%d, want 0/1", m, u)
	}
	// An OnAir with no pending reaction is a no-op.
	lt.OnAir(sim.Time(2*time.Millisecond), f)
	if n := lt.Segment(SegReactToAir).Count(); n != 0 {
		t.Fatalf("react->air count %d, want 0", n)
	}
}

func TestLoopTrackerFeedbackRingBounded(t *testing.T) {
	lt := NewLoopTracker()
	f := loopTestFlow()
	// A sender that never reacts must not grow the in-flight ring without
	// bound: push well past the cap, then react once — the join still works
	// and picks the newest departed entry.
	for i := 1; i <= 3*maxLoopFeedbacks; i++ {
		at := sim.Time(i) * sim.Time(time.Millisecond)
		lt.OnObserve(at, f)
		lt.OnFeedbackOut(at+sim.Time(100*time.Microsecond), f)
	}
	if got := len(lt.flows[f].fifo); got != maxLoopFeedbacks {
		t.Fatalf("fifo len %d, want capped at %d", got, maxLoopFeedbacks)
	}
	lt.OnReact(sim.Time(time.Hour), f)
	if m, u := lt.Matched(); m != 1 || u != 0 {
		t.Fatalf("matched=%d unmatched=%d, want 1/0", m, u)
	}
	if got := len(lt.flows[f].fifo); got != 0 {
		t.Fatalf("fifo len %d after matching the newest entry, want 0", got)
	}
}

func TestLoopTrackerAgeGauge(t *testing.T) {
	// New binds the gauge when the bundle has both a tracker and a registry.
	o := New(Options{Metrics: true, Loop: true})
	lt, g := o.Loop, o.Gauge("loop.feedback_age_ms")
	f := loopTestFlow()
	ms := func(n int64) sim.Time { return sim.Time(n) * sim.Time(time.Millisecond) }
	lt.OnObserve(ms(2), f)
	lt.OnFeedbackOut(ms(5), f)
	lt.OnReact(ms(9), f)
	if got := g.Value(); got != 7 {
		t.Fatalf("age gauge %v ms, want 7 (observe 2ms -> react 9ms)", got)
	}
}

func TestLoopTrackerRowsAndTable(t *testing.T) {
	lt := NewLoopTracker()
	f := loopTestFlow()
	ms := func(n int64) sim.Time { return sim.Time(n) * sim.Time(time.Millisecond) }
	lt.OnObserve(ms(1), f)
	lt.OnFeedbackOut(ms(2), f)
	lt.OnReact(ms(3), f)
	lt.OnAir(ms(4), f)

	rows := lt.Rows()
	if len(rows) != int(numLoopSegments)+1 {
		t.Fatalf("%d rows, want %d segments + feedback age", len(rows), numLoopSegments)
	}
	wantOrder := []string{"observe->feedback", "feedback->react", "react->air", "observe->air", "feedback age"}
	for i, w := range wantOrder {
		if rows[i].Segment != w {
			t.Fatalf("row %d is %q, want %q", i, rows[i].Segment, w)
		}
		if rows[i].N != 1 {
			t.Fatalf("row %q has n=%d, want 1", w, rows[i].N)
		}
		if rows[i].P50 <= 0 || rows[i].P99 < rows[i].P50 {
			t.Fatalf("row %q has degenerate quantiles: %+v", w, rows[i])
		}
	}
	tbl := lt.Table()
	for _, w := range wantOrder {
		if !strings.Contains(tbl, w) {
			t.Fatalf("table missing %q:\n%s", w, tbl)
		}
	}
	// A nil tracker renders the empty-table sentinel rather than panicking.
	var nilLT *LoopTracker
	if got := nilLT.Table(); !strings.Contains(got, "no samples") {
		t.Fatalf("nil tracker table = %q", got)
	}
}
