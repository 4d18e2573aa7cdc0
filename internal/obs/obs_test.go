package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/zhuge-project/zhuge/internal/netem"
	"github.com/zhuge-project/zhuge/internal/sim"
)

func testFlow(port uint16) netem.FlowKey {
	return netem.FlowKey{SrcIP: 1, DstIP: 2, SrcPort: port, DstPort: port, Proto: 17}
}

func sampleTracer() *Tracer {
	tr := newTracer()
	f1, f2 := testFlow(5001), testFlow(5002)
	tr.Record(Event{At: 1 * sim.Time(time.Millisecond), Type: EvArrive, Flow: f1, Seq: 1, Size: 1200})
	tr.Record(Event{At: 1 * sim.Time(time.Millisecond), Type: EvPredict, Flow: f1, A: int64(4 * time.Millisecond)})
	tr.Record(Event{At: 1 * sim.Time(time.Millisecond), Type: EvEnqueue, Flow: f1, Seq: 1, Size: 1200})
	tr.Record(Event{At: 2 * sim.Time(time.Millisecond), Type: EvEnqueue, Flow: f2, Seq: 9, Size: 300})
	tr.Record(Event{At: 3 * sim.Time(time.Millisecond), Type: EvDequeue, Flow: f1, Seq: 1, Size: 1200, A: int64(2 * time.Millisecond)})
	tr.Record(Event{At: 3 * sim.Time(time.Millisecond), Type: EvAggregate, Flow: f1, Size: 1500, A: 2})
	tr.Record(Event{At: 3 * sim.Time(time.Millisecond), Type: EvAirtime, Flow: f1, Dur: 600 * time.Microsecond, Size: 1500})
	tr.Record(Event{At: 4 * sim.Time(time.Millisecond), Type: EvDeliver, Flow: f1, Seq: 1, Size: 1200, A: int64(3 * time.Millisecond)})
	tr.Record(Event{At: 5 * sim.Time(time.Millisecond), Type: EvAckDelay, Flow: f1, Seq: 2, A: int64(time.Millisecond)})
	tr.Record(Event{At: 6 * sim.Time(time.Millisecond), Type: EvFeedback, Flow: f2, Size: 80, A: 12})
	tr.Record(Event{At: 7 * sim.Time(time.Millisecond), Type: EvDrop, Flow: f2, Seq: 10, Size: 300, A: 1})
	return tr
}

func TestEventTypeNames(t *testing.T) {
	for ty := EventType(0); ty < numEventTypes; ty++ {
		if ty.String() == "unknown" || ty.String() == "" {
			t.Errorf("event type %d has no name", ty)
		}
		if ty.component() == "unknown" {
			t.Errorf("event type %s has no component", ty)
		}
	}
	if EventType(200).String() != "unknown" {
		t.Error("out-of-range type should be unknown")
	}
}

// TestJSONLRoundTrip pins that every JSONL line is a standalone JSON object
// carrying the event's fields.
func TestJSONLRoundTrip(t *testing.T) {
	tr := sampleTracer()
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != tr.Len() {
		t.Fatalf("got %d lines, want %d", len(lines), tr.Len())
	}
	for i, line := range lines {
		var ev struct {
			T    int64  `json:"t"`
			Type string `json:"type"`
			Flow string `json:"flow"`
			Seq  uint64 `json:"seq"`
			Size int    `json:"size"`
			Dur  int64  `json:"dur"`
			A    int64  `json:"a"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("line %d not valid JSON: %v\n%s", i, err, line)
		}
		want := tr.Events()[i]
		if ev.T != int64(want.At) || ev.Type != want.Type.String() || ev.A != want.A {
			t.Errorf("line %d mismatch: got %+v want %+v", i, ev, want)
		}
	}
}

// sampleSeries is two counter tracks, three samples, inside sampleTracer's
// time span.
func sampleSeries() *SeriesSet {
	ss := NewSeriesSet()
	ss.Of("queue").Add(sim.Time(1e6), 4)
	ss.Of("queue").Add(sim.Time(2e6), 6)
	ss.Of("rate").Add(sim.Time(1e6), 5e6)
	return ss
}

// TestChromeTraceRoundTrip pins that the one viewer writer emits valid JSON
// in the trace_event object format with non-decreasing timestamps per track
// — the properties chrome://tracing and Perfetto need to load it — for a
// tracer and a series set together and for each with the other side nil.
func TestChromeTraceRoundTrip(t *testing.T) {
	tr, ss := sampleTracer(), sampleSeries()
	for _, tc := range []struct {
		name string
		tr   *Tracer
		ss   *SeriesSet
		// process_name, plus one thread_name per flow (two in the sample).
		meta, spans, instants, counters int
	}{
		{"both", tr, ss, 4, 1, tr.Len() - 1, 3},
		{"tracer only", tr, nil, 3, 1, tr.Len() - 1, 0},
		{"series only", nil, ss, 1, 0, 0, 3},
	} {
		var buf bytes.Buffer
		if err := WriteChrome(&buf, tc.tr, tc.ss); err != nil {
			t.Fatalf("%s: WriteChrome: %v", tc.name, err)
		}
		var doc struct {
			DisplayTimeUnit string `json:"displayTimeUnit"`
			TraceEvents     []struct {
				Ph   string         `json:"ph"`
				Name string         `json:"name"`
				Cat  string         `json:"cat"`
				TS   float64        `json:"ts"`
				Dur  float64        `json:"dur"`
				PID  int            `json:"pid"`
				TID  int            `json:"tid"`
				Args map[string]any `json:"args"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
			t.Fatalf("%s: not one valid JSON document: %v\n%s", tc.name, err, buf.String())
		}
		if doc.DisplayTimeUnit != "ms" {
			t.Errorf("%s: displayTimeUnit = %q", tc.name, doc.DisplayTimeUnit)
		}
		count := map[string]int{}
		last := map[string]float64{} // per track: a flow's thread or a counter's name
		for _, ev := range doc.TraceEvents {
			count[ev.Ph]++
			track := fmt.Sprintf("%d/%d/", ev.PID, ev.TID)
			switch ev.Ph {
			case "M":
				continue
			case "X", "i":
				if ev.PID != 1 || ev.TID < 1 {
					t.Errorf("%s: event %q missing pid/tid: %+v", tc.name, ev.Name, ev)
				}
			case "C":
				track += ev.Name
				if _, ok := ev.Args["value"].(float64); !ok || ev.PID != 2 {
					t.Errorf("%s: counter event %+v: want a numeric value on the telemetry process", tc.name, ev)
				}
				// Microseconds in trace_event format: 1e6 ns -> 1000 µs.
				if ev.Name == "queue" && ev.Args["value"] == 4.0 && ev.TS != 1000 {
					t.Errorf("%s: first queue sample at %v µs, want 1000", tc.name, ev.TS)
				}
			default:
				t.Errorf("%s: unexpected phase %q", tc.name, ev.Ph)
			}
			if ev.TS < last[track] {
				t.Errorf("%s: track %s timestamps not monotonic: %f after %f", tc.name, track, ev.TS, last[track])
			}
			last[track] = ev.TS
		}
		if count["M"] != tc.meta || count["X"] != tc.spans || count["i"] != tc.instants || count["C"] != tc.counters {
			t.Errorf("%s: events by phase %v, want M=%d X=%d i=%d C=%d",
				tc.name, count, tc.meta, tc.spans, tc.instants, tc.counters)
		}
	}
}

// TestWriteTraceFileFormats covers the one by-extension way to a file, for
// both kinds of content: ".jsonl" is JSON lines, anything else one Chrome
// trace_event document.
func TestWriteTraceFileFormats(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		name   string
		tr     *Tracer
		ss     *SeriesSet
		prefix string // of the .jsonl form
	}{
		{"trace", sampleTracer(), nil, `{"t":`},
		{"series", nil, sampleSeries(), `{"series":`},
	} {
		jl := filepath.Join(dir, tc.name+".jsonl")
		if err := WriteTraceFile(jl, tc.tr, tc.ss); err != nil {
			t.Fatal(err)
		}
		b, _ := os.ReadFile(jl)
		if !bytes.HasPrefix(b, []byte(tc.prefix)) || json.Valid(b) {
			t.Errorf("%s: .jsonl file is not JSONL: %.40s", tc.name, b)
		}
		for _, l := range bytes.Split(bytes.TrimSpace(b), []byte("\n")) {
			if !json.Valid(l) {
				t.Errorf("%s: .jsonl line is not JSON: %s", tc.name, l)
			}
		}

		cj := filepath.Join(dir, tc.name+".trace.json")
		if err := WriteTraceFile(cj, tc.tr, tc.ss); err != nil {
			t.Fatal(err)
		}
		b, _ = os.ReadFile(cj)
		if !json.Valid(b) || !bytes.Contains(b, []byte(`"traceEvents"`)) {
			t.Errorf("%s: .trace.json file is not a Chrome trace_event document", tc.name)
		}
	}
	if err := WriteTraceFile(filepath.Join(dir, "missing", "t.json"), sampleTracer(), nil); err == nil {
		t.Error("a path that cannot be created returned no error")
	}
}

// TestJSONLDeterministic pins byte-identical serialisation of identical
// event streams — the foundation of the -j golden test in experiments.
func TestJSONLDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := sampleTracer().WriteJSONL(&a); err != nil {
		t.Fatal(err)
	}
	if err := sampleTracer().WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("identical event streams serialised differently")
	}
}

func TestRegistryAndSnapshot(t *testing.T) {
	o := New(Options{Metrics: true, PredErr: true})
	o.Counter("a.count").Add(3)
	o.Counter("a.count").Inc()
	o.Gauge("a.gauge").Set(2.5)
	for i := 1; i <= 100; i++ {
		o.Hist("a.lat").Observe(time.Duration(i) * time.Millisecond)
	}
	f := testFlow(5001)
	o.Errs().SetMode(f, "oob")
	for i := 0; i < 10; i++ {
		o.Errs().Observe(f, 5*time.Millisecond, 4*time.Millisecond)
	}

	snap := o.Reg.Snapshot()
	if snap.Counters["a.count"] != 4 {
		t.Errorf("counter = %d, want 4", snap.Counters["a.count"])
	}
	if snap.Gauges["a.gauge"] != 2.5 {
		t.Errorf("gauge = %v", snap.Gauges["a.gauge"])
	}
	h := snap.Histograms["a.lat"]
	if h.Count != 100 || h.Max != int64(100*time.Millisecond) {
		t.Errorf("hist stat = %+v", h)
	}

	rows := o.Errs().Rows()
	if len(rows) != 2 { // per-flow + per-mode aggregate
		t.Fatalf("prederr rows = %d, want 2", len(rows))
	}
	if rows[0].Mode != "oob" || rows[0].N != 10 {
		t.Errorf("row = %+v", rows[0])
	}
	if rows[0].Bias != int64(time.Millisecond) {
		t.Errorf("bias = %d, want %d (predictions 1ms over)", rows[0].Bias, time.Millisecond)
	}

	var buf bytes.Buffer
	if err := o.WriteMetricsJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Error("metrics report is not valid JSON")
	}
}

// TestPredErrModeRowsAreSorted pins the order of the per-mode rows, which
// come out of a map: labels inserted in descending order, more of them than
// a small map's one group holds, must still export ascending.
func TestPredErrModeRowsAreSorted(t *testing.T) {
	a := newPredErr()
	const modes = 12
	for i := 0; i < modes; i++ {
		f := testFlow(uint16(6000 + i))
		a.SetMode(f, fmt.Sprintf("mode%02d", modes-1-i))
		a.Observe(f, 2*time.Millisecond, time.Millisecond)
	}
	var got []string
	for _, r := range a.Rows() {
		if r.Flow == "" {
			got = append(got, r.Mode)
		}
	}
	if len(got) != modes {
		t.Fatalf("%d mode rows, want %d", len(got), modes)
	}
	for i, m := range got {
		if want := fmt.Sprintf("mode%02d", i); m != want {
			t.Fatalf("mode row %d is %q, want %q: rows %v", i, m, want, got)
		}
	}
}

// disabled is what a datapath component holds with no Obs attached: a nil
// pointer per instrument. It is a package-level variable so the compiler
// cannot fold the nil tests below away.
var disabled struct {
	o  *Obs
	c  *Counter
	g  *Gauge
	h  *Hist
	tr *Tracer
	pe *PredErr
	lt *LoopTracker
	ss *SeriesSet
	sr *Series
}

// TestObsDisabledZeroAlloc is the disabled-path contract: with no Obs
// attached the cheap instruments are called straight on their nil receivers
// and the costly hooks sit behind the nil test the datapath writes; neither
// allocates. The other half of the contract — an unguarded costly hook does
// not survive the obs-off suite — is TestHooksNeedLiveReceiver.
func TestObsDisabledZeroAlloc(t *testing.T) {
	d := &disabled
	f := testFlow(5001)
	allocs := testing.AllocsPerRun(1000, func() {
		d.c.Inc()
		d.c.Add(2)
		_ = d.c.Value()
		d.g.Set(1)
		d.h.Observe(time.Millisecond)
		if d.tr != nil {
			d.tr.Record(Event{At: 1, Type: EvEnqueue, Flow: f})
		}
		_ = d.tr.Len()
		if d.pe != nil {
			d.pe.Observe(f, time.Millisecond, time.Millisecond)
		}
		d.pe.SetMode(f, "oob")
		if d.lt != nil {
			d.lt.OnObserve(time.Millisecond, f)
			d.lt.OnFeedbackOut(time.Millisecond, f)
			d.lt.OnReact(time.Millisecond, f)
			d.lt.OnAir(time.Millisecond, f)
		}
		_, _ = d.lt.Matched()
		d.ss.Sample(time.Millisecond, nil)
		_ = d.ss.Of("x")
		_ = d.ss.Len()
		d.sr.Add(time.Millisecond, 1)
		_ = d.sr.Len()
		_ = d.o.Trace()
		_ = d.o.Counter("x")
		_ = d.o.Gauge("x")
		_ = d.o.Hist("x")
		_ = d.o.Errs()
		_ = d.o.ControlLoop()
	})
	if allocs != 0 {
		t.Fatalf("disabled-path allocations = %v, want 0", allocs)
	}
}

// TestHooksNeedLiveReceiver pins the list of methods with no nil branch.
// Because every test that does not ask for obs runs with these receivers
// nil, an unguarded call anywhere on the datapath panics in that test; a nil
// branch quietly re-added here would turn the panic back into a silent cost
// on the disabled path, which nothing else would notice.
func TestHooksNeedLiveReceiver(t *testing.T) {
	d := &disabled
	f := testFlow(5002)
	hooks := []struct {
		name string
		call func()
	}{
		{"Tracer.Record", func() { d.tr.Record(Event{At: 1, Type: EvEnqueue, Flow: f}) }},
		{"PredErr.Observe", func() { d.pe.Observe(f, time.Millisecond, time.Millisecond) }},
		{"LoopTracker.OnObserve", func() { d.lt.OnObserve(1, f) }},
		{"LoopTracker.OnFeedbackOut", func() { d.lt.OnFeedbackOut(1, f) }},
		{"LoopTracker.OnReact", func() { d.lt.OnReact(1, f) }},
		{"LoopTracker.OnAir", func() { d.lt.OnAir(1, f) }},
		{"Registry.Counter", func() { (*Registry)(nil).Counter("x") }},
		{"Registry.Gauge", func() { (*Registry)(nil).Gauge("x") }},
		{"Registry.Hist", func() { (*Registry)(nil).Hist("x") }},
	}
	for _, h := range hooks {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s returned on a nil receiver; it must panic", h.name)
				}
			}()
			h.call()
		}()
	}
}

// TestSweepCellIsolation pins that each cell gets an independent bundle and
// Record attributes snapshots under (experiment, cell).
func TestSweepCellIsolation(t *testing.T) {
	s := NewSweep("")
	a, b := s.NewCell(), s.NewCell()
	if a == nil || b == nil || a == b {
		t.Fatal("cells not independent")
	}
	a.Counter("x").Inc()
	if b.Reg.Snapshot().Counters["x"] != 0 {
		t.Error("cell state leaked")
	}
	if err := s.Record("exp", 1, b, time.Second); err != nil {
		t.Fatal(err)
	}
	if err := s.Record("exp", 0, a, time.Second); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var cells []SweepCell
	if err := json.Unmarshal(buf.Bytes(), &cells); err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 || cells[0].Cell != 0 || cells[1].Cell != 1 {
		t.Errorf("cells not sorted by (experiment, cell): %+v", cells)
	}
	if cells[0].Metrics.Counters["x"] != 1 {
		t.Errorf("cell 0 snapshot = %+v", cells[0].Metrics)
	}

	var nilSweep *Sweep
	if nilSweep.NewCell() != nil {
		t.Error("nil sweep must hand out nil bundles")
	}
	if err := nilSweep.Record("exp", 0, nil, 0); err != nil {
		t.Error(err)
	}
}
