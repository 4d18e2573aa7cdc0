package trace

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestRateAtStepFunction(t *testing.T) {
	tr := &Trace{Samples: []Sample{
		{At: 0, Rate: 10e6},
		{At: 100 * time.Millisecond, Rate: 20e6},
		{At: 200 * time.Millisecond, Rate: 5e6},
	}}
	cases := []struct {
		at   time.Duration
		want float64
	}{
		{0, 10e6},
		{50 * time.Millisecond, 10e6},
		{100 * time.Millisecond, 20e6},
		{150 * time.Millisecond, 20e6},
		{250 * time.Millisecond, 5e6},
	}
	for _, c := range cases {
		if got := tr.RateAt(c.at); got != c.want {
			t.Errorf("RateAt(%v) = %v, want %v", c.at, got, c.want)
		}
	}
}

func TestRateAtWrapsAround(t *testing.T) {
	tr := &Trace{Samples: []Sample{
		{At: 0, Rate: 10e6},
		{At: 100 * time.Millisecond, Rate: 20e6},
	}}
	// Duration = 200ms; at 210ms it wraps to 10ms -> 10e6.
	if got := tr.RateAt(210 * time.Millisecond); got != 10e6 {
		t.Errorf("wrapped RateAt = %v, want 10e6", got)
	}
	if got := tr.RateAt(310 * time.Millisecond); got != 20e6 {
		t.Errorf("wrapped RateAt = %v, want 20e6", got)
	}
}

func TestMeanTimeWeighted(t *testing.T) {
	tr := &Trace{Samples: []Sample{
		{At: 0, Rate: 10e6},
		{At: 100 * time.Millisecond, Rate: 30e6},
	}}
	if got := tr.Mean(); math.Abs(got-20e6) > 1 {
		t.Errorf("mean = %v, want 20e6", got)
	}
}

func TestStepTrace(t *testing.T) {
	tr := Step("drop", 30e6, 3e6, 5*time.Second, 10*time.Second)
	if got := tr.RateAt(4 * time.Second); got != 30e6 {
		t.Errorf("pre-step rate %v, want 30e6", got)
	}
	if got := tr.RateAt(6 * time.Second); got != 3e6 {
		t.Errorf("post-step rate %v, want 3e6", got)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	orig := Generate(OfficeWiFi(), 10*time.Second, rand.New(rand.NewSource(3)))
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(orig.Name, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Samples) != len(orig.Samples) {
		t.Fatalf("loaded %d samples, want %d", len(loaded.Samples), len(orig.Samples))
	}
	if loaded.BaseRTT != orig.BaseRTT {
		t.Errorf("loaded BaseRTT %v, want %v", loaded.BaseRTT, orig.BaseRTT)
	}
	for i := range orig.Samples {
		if math.Abs(loaded.Samples[i].Rate-orig.Samples[i].Rate) > 1 {
			t.Fatalf("sample %d rate %v, want %v", i, loaded.Samples[i].Rate, orig.Samples[i].Rate)
		}
	}
}

// TestLoadRejectsBadInput: each bad input fails, naming the line where the
// fault is on one line. A rate of 0 is an outage, not an error.
func TestLoadRejectsBadInput(t *testing.T) {
	cases := []struct {
		in, want string // want: substring of the error
	}{
		{"", "empty"},
		{"not,a,trace\n", "line 1"},
		{"abc,100\n", "line 1: bad time"},
		{"1.0,xyz\n", "line 1: bad rate"},
		{"2.0,100\n1.0,200\n", "out of order"},
		{"0,-1\n", "line 1: bad rate -1"},
		{"# trace x base_rtt_ms 40\n0,10e6\n\n0.1,NaN\n", "line 4: bad rate NaN"},
		{"0,10e6\n0.1,Inf\n", "line 2: bad rate +Inf"},
		{"0,+Inf\n", "line 1: bad rate +Inf"},
		{"0,-Inf\n", "line 1: bad rate -Inf"},
	}
	for _, c := range cases {
		if _, err := Load("bad", strings.NewReader(c.in)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Load(%q) error = %v, want one containing %q", c.in, err, c.want)
		}
	}
	tr, err := Load("outage", strings.NewReader("0,0\n0.1,10e6\n"))
	if err != nil || tr.RateAt(0) != 0 || tr.RateAt(150*time.Millisecond) != 10e6 {
		t.Errorf("Load of a 0 bps sample = %v, %v; want an outage then 10 Mbps", tr, err)
	}
}

func TestGeneratorMeanCalibration(t *testing.T) {
	for _, p := range []GenParams{RestaurantWiFi(), OfficeWiFi(), City4G()} {
		tr := Generate(p, 10*time.Minute, rand.New(rand.NewSource(11)))
		got := tr.Mean()
		// Fades pull the mean below target; allow [0.5, 1.2]x.
		if got < 0.5*p.Mean || got > 1.2*p.Mean {
			t.Errorf("%s mean %v, want within [0.5,1.2]x of %v", p.Name, got, p.Mean)
		}
	}
}

// TestGeneratorCalibration pins the headline statistic of Figure 3(b): for
// wireless traces 0.6-7.3%% of 200 ms windows see >10x ABW reduction, and
// for wired ones fewer than 0.1%%.
func TestGeneratorCalibration(t *testing.T) {
	dur := 30 * time.Minute
	for _, p := range []GenParams{RestaurantWiFi(), OfficeWiFi(), IndoorMixed45G(), City4G(), City5G()} {
		tr := Generate(p, dur, rand.New(rand.NewSource(42)))
		frac := FractionAbove(ReductionRatios(tr, 200*time.Millisecond), 10)
		if frac < 0.002 || frac > 0.08 {
			t.Errorf("%s: P(reduction>10x) = %.4f, want within [0.002, 0.08]", p.Name, frac)
		}
	}
	eth := Generate(Ethernet(), dur, rand.New(rand.NewSource(42)))
	if frac := FractionAbove(ReductionRatios(eth, 200*time.Millisecond), 10); frac > 0.001 {
		t.Errorf("ethernet: P(reduction>10x) = %.4f, want <0.001", frac)
	}
}

func TestReductionRatiosStepDrop(t *testing.T) {
	tr := Step("k10", 30e6, 3e6, 2*time.Second, 4*time.Second)
	ratios := ReductionRatios(tr, 200*time.Millisecond)
	max := 0.0
	for _, r := range ratios {
		if r > max {
			max = r
		}
	}
	if math.Abs(max-10) > 0.5 {
		t.Errorf("max reduction ratio %v, want ~10", max)
	}
}

func TestReductionCDFMonotone(t *testing.T) {
	tr := Generate(RestaurantWiFi(), 5*time.Minute, rand.New(rand.NewSource(5)))
	pts := ReductionCDF(ReductionRatios(tr, 200*time.Millisecond))
	if len(pts) != 6 {
		t.Fatalf("want 6 CDF points, got %d", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].CDF < pts[i-1].CDF {
			t.Fatal("reduction CDF not monotone")
		}
	}
	if pts[len(pts)-1].CDF < 0.99 {
		t.Errorf("CDF at 50x = %v, want >= 0.99", pts[len(pts)-1].CDF)
	}
}

func TestScale(t *testing.T) {
	tr := Constant("c", 10e6, time.Second)
	s := tr.Scale(0.5)
	if got := s.RateAt(0); got != 5e6 {
		t.Errorf("scaled rate %v, want 5e6", got)
	}
	if tr.RateAt(0) != 10e6 {
		t.Error("Scale must not mutate the original")
	}
}

func TestStandardSetDeterministic(t *testing.T) {
	a := StandardSet(10*time.Second, 1)
	b := StandardSet(10*time.Second, 1)
	if len(a) != 5 {
		t.Fatalf("StandardSet returned %d traces, want 5", len(a))
	}
	for i := range a {
		if len(a[i].Samples) != len(b[i].Samples) {
			t.Fatalf("trace %d lengths differ", i)
		}
		for j := range a[i].Samples {
			if a[i].Samples[j] != b[i].Samples[j] {
				t.Fatalf("trace %d sample %d differs between runs", i, j)
			}
		}
	}
}

func TestPropertyGeneratedRatesPositive(t *testing.T) {
	f := func(seed int64) bool {
		tr := Generate(City5G(), 20*time.Second, rand.New(rand.NewSource(seed)))
		for _, s := range tr.Samples {
			if s.Rate <= 0 || math.IsNaN(s.Rate) || math.IsInf(s.Rate, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestPropertyWindowAveragesWithinRange(t *testing.T) {
	f := func(seed int64) bool {
		tr := Generate(OfficeWiFi(), 30*time.Second, rand.New(rand.NewSource(seed)))
		min, max := tr.Min(), 0.0
		for _, s := range tr.Samples {
			if s.Rate > max {
				max = s.Rate
			}
		}
		for _, a := range WindowAverages(tr, 200*time.Millisecond) {
			if a < min-1 || a > max+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestNamed covers the one trace-name table both CLIs resolve through:
// every generator name builds its generator's trace from the caller's rng,
// dropK and constN parse, malformed parameters are rejected, and an unknown
// name is reported as such (zhuge-sim then tries it as a file).
func TestNamed(t *testing.T) {
	dur := 10 * time.Second
	want := map[string]func() GenParams{
		"w1": RestaurantWiFi, "w2": OfficeWiFi, "c1": IndoorMixed45G, "c2": City4G,
		"c3": City5G, "ethernet": Ethernet, "abc": ABCCellular,
	}
	names := Names()
	if len(names) != len(want) || !sort.StringsAreSorted(names) {
		t.Fatalf("Names() = %v, want the %d generator names, sorted", names, len(want))
	}
	for _, name := range names {
		mk, ok := want[name]
		if !ok {
			t.Errorf("Names() lists %q, which is no generator", name)
			continue
		}
		got, err := Named(name, dur, rand.New(rand.NewSource(5)))
		if err != nil {
			t.Errorf("Named(%q): %v", name, err)
			continue
		}
		ref := Generate(mk(), dur, rand.New(rand.NewSource(5)))
		if got.Name != ref.Name || !reflect.DeepEqual(got.Samples, ref.Samples) {
			t.Errorf("Named(%q) is not Generate(%s) on the caller's rng", name, ref.Name)
		}
	}

	if tr, err := Named("drop10", dur, nil); err != nil || tr.RateAt(0) != 30e6 || tr.RateAt(dur/2) != 3e6 {
		t.Errorf("Named(drop10) = %v, %v; want 30 Mbps stepping down to 3 Mbps", tr, err)
	}
	if tr, err := Named("const2.5", dur, nil); err != nil || tr.RateAt(dur/2) != 2.5e6 {
		t.Errorf("Named(const2.5) = %v, %v; want a constant 2.5 Mbps", tr, err)
	}
	for _, bad := range []string{"drop1", "dropx", "drop", "const0", "const-3", "constx"} {
		if tr, err := Named(bad, dur, nil); err == nil || errors.Is(err, ErrUnknownName) {
			t.Errorf("Named(%q) = %v, %v; want a bad-parameter error", bad, tr, err)
		}
	}
	for _, unknown := range []string{"w3", "", "traces/w1.csv"} {
		if _, err := Named(unknown, dur, nil); !errors.Is(err, ErrUnknownName) {
			t.Errorf("Named(%q) error = %v, want ErrUnknownName", unknown, err)
		}
	}
}

// TestCursorMatchesRateAt: a cursor reads what RateAt reads, whichever way
// time moves between reads: forward a little, back, across the wrap-around,
// and onto samples that share an At, where the last of them holds.
func TestCursorMatchesRateAt(t *testing.T) {
	ms := time.Millisecond
	tr := &Trace{Samples: []Sample{
		{10 * ms, 1}, {20 * ms, 2}, {20 * ms, 3}, {30 * ms, 4}, {30 * ms, 5}, {30 * ms, 6}, {50 * ms, 7}, {70 * ms, 8},
	}}
	var c Cursor
	rng := rand.New(rand.NewSource(1))
	at := time.Duration(0)
	for i := range 20000 {
		switch i % 4 {
		case 0, 1:
			at += time.Duration(rng.Int63n(int64(3 * ms))) // forward
		case 2:
			at -= time.Duration(rng.Int63n(int64(40 * ms))) // back, below the first sample too
		case 3:
			at = time.Duration(rng.Int63n(10)) * 10 * ms // onto a sample's At, wrapped or not
		}
		if got, want := c.RateAt(tr, at), tr.RateAt(at); got != want {
			t.Fatalf("read %d at %v: cursor %v, RateAt %v", i, at, got, want)
		}
	}
	var other Cursor // a cursor moved onto a shorter trace starts over
	other.RateAt(tr, 65*ms)
	short := &Trace{Samples: []Sample{{0, 9}, {10 * ms, 10}}}
	if got := other.RateAt(short, 5*ms); got != 9 {
		t.Fatalf("cursor carried to a shorter trace read %v, want 9", got)
	}
}
