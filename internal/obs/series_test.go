package obs

import (
	"bytes"
	"encoding/json"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/zhuge-project/zhuge/internal/sim"
)

func TestSeriesRingEvictsOldest(t *testing.T) {
	ss := NewSeriesSet(4)
	s := ss.Of("q")
	for i := 0; i < 10; i++ {
		s.Add(sim.Time(i)*sim.Time(time.Millisecond), float64(i))
	}
	if s.Len() != 4 {
		t.Fatalf("len %d, want capacity 4", s.Len())
	}
	pts := s.Points(nil)
	for i, p := range pts {
		want := float64(6 + i) // 6,7,8,9: the four newest survive
		if p.V != want {
			t.Fatalf("point %d has value %v, want %v (got %+v)", i, p.V, want, pts)
		}
	}
	if last := s.Last(); last.V != 9 || last.At != sim.Time(9*time.Millisecond) {
		t.Fatalf("Last() = %+v, want the newest point", last)
	}
	// Points must reuse the caller's buffer when it is large enough.
	buf := make([]SeriesPoint, 0, 8)
	out := s.Points(buf)
	if len(out) != 4 || cap(out) != 8 {
		t.Fatalf("Points did not reuse caller buffer: len=%d cap=%d", len(out), cap(out))
	}
}

func TestSeriesSetSampleSnapshotsRegistry(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("downlink.enq").Add(7)
	reg.Gauge("rate").Set(2.5e6)

	ss := NewSeriesSet(8)
	ss.Sample(sim.Time(time.Second), reg)
	reg.Counter("downlink.enq").Add(3)
	ss.Sample(sim.Time(2*time.Second), reg)

	c := ss.Of("downlink.enq").Points(nil)
	if len(c) != 2 || c[0].V != 7 || c[1].V != 10 {
		t.Fatalf("counter samples %+v, want values 7 then 10", c)
	}
	g := ss.Of("rate").Points(nil)
	if len(g) != 2 || g[0].V != 2.5e6 {
		t.Fatalf("gauge samples %+v, want 2.5e6 twice", g)
	}
	// Histograms are deliberately not sampled (their summary is a Snapshot
	// concern); sampling with a nil registry or nil set is a no-op.
	ss.Sample(sim.Time(3*time.Second), nil)
	if ss.Of("downlink.enq").Len() != 2 {
		t.Fatal("nil-registry sample added points")
	}
}

func TestStartSamplerTicksInVirtualTime(t *testing.T) {
	s := sim.New(1)
	reg := NewRegistry()
	ctr := reg.Counter("events")
	ss := NewSeriesSet(64)
	// An event every 3ms bumps the counter; the sampler ticks every 10ms.
	for i := 1; i <= 30; i++ {
		s.Schedule(sim.Time(i)*sim.Time(3*time.Millisecond), func() { ctr.Inc() })
	}
	StartSampler(s, ss, reg, 10*time.Millisecond)
	s.RunUntil(sim.Time(95 * time.Millisecond))

	pts := ss.Of("events").Points(nil)
	if len(pts) != 9 {
		t.Fatalf("sampler fired %d times in 95ms at 10ms cadence, want 9", len(pts))
	}
	for i, p := range pts {
		wantAt := sim.Time(i+1) * sim.Time(10*time.Millisecond)
		if p.At != wantAt {
			t.Fatalf("sample %d at %v, want %v", i, p.At, wantAt)
		}
		// By t=10(i+1)ms, floor(10(i+1)/3) events have fired.
		if want := float64((10 * (i + 1)) / 3); p.V != want {
			t.Fatalf("sample %d value %v, want %v", i, p.V, want)
		}
	}
}

func TestSeriesJSONLRoundtrip(t *testing.T) {
	ss := NewSeriesSet(8)
	ss.Of("b.second").Add(sim.Time(2e6), 0.5)
	ss.Of("a.first").Add(sim.Time(1e6), 42)
	ss.Of("a.first").Add(sim.Time(3e6), 1e9)
	// Enough series that an export in map order cannot pass by luck.
	for _, name := range []string{"a.k", "a.j", "a.i", "a.h", "a.g"} {
		ss.Of(name).Add(sim.Time(1e6), 1)
	}

	var out bytes.Buffer
	if err := ss.WriteJSONL(&out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	if len(lines) != 8 {
		t.Fatalf("%d lines, want 8:\n%s", len(lines), out.String())
	}
	// Series sorted by name, points oldest first.
	if !sort.StringsAreSorted(lines) || !strings.Contains(lines[0], `"a.first"`) || !strings.Contains(lines[7], `"b.second"`) {
		t.Fatalf("series not sorted by name:\n%s", out.String())
	}
	for _, l := range lines {
		var rec struct {
			Series string  `json:"series"`
			T      int64   `json:"t"`
			V      float64 `json:"v"`
		}
		if err := json.Unmarshal([]byte(l), &rec); err != nil {
			t.Fatalf("line %q is not valid JSON: %v", l, err)
		}
	}

	back, err := ReadSeriesJSONL(strings.NewReader(out.String()))
	if err != nil {
		t.Fatal(err)
	}
	var reout bytes.Buffer
	if err := back.WriteJSONL(&reout); err != nil {
		t.Fatal(err)
	}
	if reout.String() != out.String() {
		t.Fatalf("roundtrip not byte-identical:\n--- wrote\n%s--- reread\n%s", out.String(), reout.String())
	}
}

func TestSeriesWriteCSV(t *testing.T) {
	ss := NewSeriesSet(8)
	ss.Of("q.depth").Add(sim.Time(5e6), 3)
	var b bytes.Buffer
	if err := ss.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	want := "series,t_ns,value\nq.depth,5000000,3\n"
	if b.String() != want {
		t.Fatalf("CSV output %q, want %q", b.String(), want)
	}
}

func TestSeriesWriteChromeCounters(t *testing.T) {
	ss := NewSeriesSet(8)
	ss.Of("queue").Add(sim.Time(1e6), 4)
	ss.Of("queue").Add(sim.Time(2e6), 6)
	ss.Of("rate").Add(sim.Time(1e6), 5e6)

	var b bytes.Buffer
	if err := ss.WriteChromeCounters(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Ph   string         `json:"ph"`
			Name string         `json:"name"`
			Ts   float64        `json:"ts"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("Chrome counter output is not valid JSON: %v\n%s", err, b.String())
	}
	var counters int
	for _, e := range doc.TraceEvents {
		if e.Ph != "C" {
			continue // process_name metadata event etc.
		}
		counters++
		if len(e.Args) == 0 {
			t.Fatalf("counter event %q has no args payload", e.Name)
		}
		// Timestamps are microseconds in trace_event format: 1e6 ns -> 1000 µs.
		if e.Name == "queue" && e.Args["value"] == 4.0 && e.Ts != 1000 {
			t.Fatalf("first queue event ts %v µs, want 1000", e.Ts)
		}
	}
	if counters != 3 {
		t.Fatalf("%d counter events, want 3", counters)
	}
}
