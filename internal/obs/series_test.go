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

func TestSeriesSetSampleSnapshotsRegistry(t *testing.T) {
	reg := newRegistry()
	reg.Counter("downlink.enq").Add(7)
	reg.Gauge("rate").Set(2.5e6)

	ss := NewSeriesSet()
	ss.Sample(sim.Time(time.Second), reg)
	reg.Counter("downlink.enq").Add(3)
	ss.Sample(sim.Time(2*time.Second), reg)

	c := ss.Of("downlink.enq").Points
	if len(c) != 2 || c[0].Value != 7 || c[1].Value != 10 {
		t.Fatalf("counter samples %+v, want values 7 then 10", c)
	}
	g := ss.Of("rate").Points
	if len(g) != 2 || g[0].Value != 2.5e6 {
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
	reg := newRegistry()
	ctr := reg.Counter("events")
	ss := NewSeriesSet()
	// An event every 3ms bumps the counter; the sampler ticks every 10ms.
	for i := 1; i <= 30; i++ {
		s.Schedule(sim.Time(i)*sim.Time(3*time.Millisecond), func() { ctr.Inc() })
	}
	StartSampler(s, ss, reg, 10*time.Millisecond)
	s.RunUntil(sim.Time(95 * time.Millisecond))

	pts := ss.Of("events").Points
	if len(pts) != 9 {
		t.Fatalf("sampler fired %d times in 95ms at 10ms cadence, want 9", len(pts))
	}
	for i, p := range pts {
		wantAt := sim.Time(i+1) * sim.Time(10*time.Millisecond)
		if p.At != wantAt {
			t.Fatalf("sample %d at %v, want %v", i, p.At, wantAt)
		}
		// By t=10(i+1)ms, floor(10(i+1)/3) events have fired.
		if want := float64((10 * (i + 1)) / 3); p.Value != want {
			t.Fatalf("sample %d value %v, want %v", i, p.Value, want)
		}
	}
}

// TestSeriesJSONLRoundtrip pins the canonical export: series sorted by name
// whatever order the map hands them out in (the order assert that replaced
// the maporder analyzer here; LINTING.md probe M1), every line a JSON object, the same set written twice the
// same bytes, and every point kept: nothing caps a series, so the 20 000
// samples one of them takes here all come out, oldest first.
func TestSeriesJSONLRoundtrip(t *testing.T) {
	const long = 20000
	ss := NewSeriesSet()
	ss.Of("b.second").Add(sim.Time(2e6), 0.5)
	ss.Of("a.first").Add(sim.Time(1e6), 42)
	ss.Of("a.first").Add(sim.Time(3e6), 1e9)
	// Enough series that an export in map order cannot pass by luck.
	for _, name := range []string{"a.k", "a.j", "a.i", "a.h", "a.g"} {
		ss.Of(name).Add(sim.Time(1e6), 1)
	}
	for i := 1; i < long; i++ {
		ss.Of("a.g").Add(sim.Time(1e6+i), 1)
	}

	var out bytes.Buffer
	if err := ss.WriteJSONL(&out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	if len(lines) != 7+long {
		t.Fatalf("%d lines, want %d", len(lines), 7+long)
	}
	if n := strings.Count(out.String(), `"series":"a.g"`); n != long {
		t.Fatalf("a.g exported %d of its %d points", n, long)
	}
	if first := lines[2]; !strings.Contains(first, `"a.g","t":1000000,`) {
		t.Fatalf("a.g does not start at its oldest point: %s", first)
	}
	// Series sorted by name, points oldest first.
	names := make([]string, len(lines))
	for i, l := range lines {
		var rec struct {
			Series string  `json:"series"`
			T      int64   `json:"t"`
			V      float64 `json:"v"`
		}
		if err := json.Unmarshal([]byte(l), &rec); err != nil {
			t.Fatalf("line %q is not valid JSON: %v", l, err)
		}
		names[i] = rec.Series
	}
	if !sort.StringsAreSorted(names) || names[0] != "a.first" || names[len(names)-1] != "b.second" {
		t.Fatalf("series not sorted by name: first %q, last %q", names[0], names[len(names)-1])
	}

	var again bytes.Buffer
	if err := ss.WriteJSONL(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), out.Bytes()) {
		t.Fatal("the same set exported twice wrote different bytes")
	}
}
