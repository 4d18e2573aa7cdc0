package metrics

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 100; i++ {
		h.Add(time.Duration(i) * time.Millisecond)
	}
	if h.Count() != 100 {
		t.Fatalf("count %d, want 100", h.Count())
	}
	if got := h.Mean(); got < 50*time.Millisecond || got > 51*time.Millisecond {
		t.Errorf("mean %v, want ~50.5ms", got)
	}
	if h.Max() != 100*time.Millisecond {
		t.Errorf("max %v, want 100ms", h.Max())
	}
	if h.Min() != time.Millisecond {
		t.Errorf("min %v, want 1ms", h.Min())
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	h := NewHistogram()
	rng := rand.New(rand.NewSource(1))
	var exact []float64
	for i := 0; i < 10000; i++ {
		d := time.Duration(rng.ExpFloat64() * float64(50*time.Millisecond))
		h.Add(d)
		exact = append(exact, float64(d))
	}
	sort.Float64s(exact)
	for _, q := range []float64{0.5, 0.9, 0.99} {
		got := float64(h.Quantile(q))
		want := exact[int(q*float64(len(exact)))]
		if math.Abs(got-want)/want > 0.05 {
			t.Errorf("q%.2f = %v, exact %v (>5%% off)", q, time.Duration(got), time.Duration(want))
		}
	}
}

func TestHistogramFractionAbove(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 1000; i++ {
		if i < 900 {
			h.Add(100 * time.Millisecond)
		} else {
			h.Add(500 * time.Millisecond)
		}
	}
	got := h.FractionAbove(200 * time.Millisecond)
	if math.Abs(got-0.1) > 0.01 {
		t.Errorf("FractionAbove(200ms) = %v, want ~0.1", got)
	}
	if got := h.FractionAbove(time.Hour); got != 0 {
		t.Errorf("FractionAbove(1h) = %v, want 0", got)
	}
}

func TestHistogramCCDFMonotone(t *testing.T) {
	h := NewHistogram()
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 5000; i++ {
		h.Add(time.Duration(rng.Intn(400)) * time.Millisecond)
	}
	pts := h.CCDF()
	if len(pts) == 0 {
		t.Fatal("empty CCDF")
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Value <= pts[i-1].Value {
			t.Fatal("CCDF values not increasing")
		}
		if pts[i].Fraction > pts[i-1].Fraction {
			t.Fatal("CCDF fractions not decreasing")
		}
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Quantile(0.5) != 0 || h.Mean() != 0 || h.FractionAbove(0) != 0 {
		t.Error("empty histogram should report zeros")
	}
	if h.CCDF() != nil {
		t.Error("empty histogram should have nil CCDF")
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	h := NewHistogram()
	h.Add(-5 * time.Millisecond)
	if h.Count() != 1 || h.Min() != 0 {
		t.Errorf("negative value should clamp to 0, got min=%v", h.Min())
	}
}

func TestWindowedMin(t *testing.T) {
	w := NewWindowedMin(100 * time.Millisecond)
	w.Add(0, 5)
	w.Add(10*time.Millisecond, 3)
	w.Add(20*time.Millisecond, 7)
	if v, ok := w.Get(20 * time.Millisecond); !ok || v != 3 {
		t.Errorf("min = %v,%v want 3,true", v, ok)
	}
	// At 115ms the 3 (added at 10ms) has expired; the 7 (at 20ms) remains.
	if v, ok := w.Get(115 * time.Millisecond); !ok || v != 7 {
		t.Errorf("min after expiry = %v,%v want 7,true", v, ok)
	}
	if _, ok := w.Get(time.Hour); ok {
		t.Error("fully expired window should report !ok")
	}
}

func TestWindowedMax(t *testing.T) {
	w := NewWindowedMax(100 * time.Millisecond)
	w.Add(0, 5)
	w.Add(10*time.Millisecond, 9)
	w.Add(20*time.Millisecond, 2)
	if v, ok := w.Get(20 * time.Millisecond); !ok || v != 9 {
		t.Errorf("max = %v,%v want 9,true", v, ok)
	}
	if v, _ := w.Get(120 * time.Millisecond); v != 2 {
		t.Errorf("max after expiry = %v, want 2", v)
	}
}

func TestPropertyWindowedMinMatchesBrute(t *testing.T) {
	f := func(vals []uint8) bool {
		w := NewWindowedMin(50 * time.Millisecond)
		var hist []timedValue
		for i, v := range vals {
			now := time.Duration(i) * 7 * time.Millisecond
			w.Add(now, float64(v))
			hist = append(hist, timedValue{now, float64(v)})
			got, ok := w.Get(now)
			// Brute-force min over window.
			best := math.Inf(1)
			for _, h := range hist {
				if now-h.at <= 50*time.Millisecond && h.v < best {
					best = h.v
				}
			}
			if !ok || got != best {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestPropertyWithinMatchesBrute compares Within, for min and max filters,
// with a scan of the samples the filter retains (those at most its window
// before the last Add), at random times, values and query windows,
// including windows longer than the retention and queries after the last
// Add.
func TestPropertyWithinMatchesBrute(t *testing.T) {
	const window = 50 * time.Millisecond
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		filters := []*WindowedFilter{NewWindowedMin(window), NewWindowedMax(window)}
		var hist []timedValue
		var now time.Duration
		for i := 0; i < 200; i++ {
			now += time.Duration(rng.Intn(10)) * time.Millisecond // repeats included
			v := float64(rng.Intn(20))
			hist = append(hist, timedValue{now, v})
			for _, w := range filters {
				w.Add(now, v)
			}
			at := now + time.Duration(rng.Intn(30))*time.Millisecond
			d := time.Duration(rng.Intn(120)) * time.Millisecond
			for _, w := range filters {
				got, ok := w.Within(at, d)
				best, found := 0.0, false
				for _, h := range hist {
					if now-h.at > window || at-h.at > d {
						continue
					}
					if !found || (w.max && h.v > best) || (!w.max && h.v < best) {
						best, found = h.v, true
					}
				}
				if ok != found || got != best {
					t.Logf("max=%v Within(%v, %v) = %v,%v, scan %v,%v", w.max, at, d, got, ok, best, found)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSlidingSumRate(t *testing.T) {
	s := NewSlidingSum(100 * time.Millisecond)
	for i := 0; i < 10; i++ {
		s.Add(time.Duration(i)*10*time.Millisecond, 1000) // 1000 bytes every 10ms
	}
	now := 90 * time.Millisecond
	if got := s.Sum(now); got != 10000 {
		t.Errorf("sum %v, want 10000", got)
	}
	// Effective window is the elapsed 90ms, not the configured 100ms.
	if got := s.Rate(now); math.Abs(got-10000/0.09) > 1 {
		t.Errorf("rate %v, want %v B/s", got, 10000/0.09)
	}
	// Once a full window has elapsed the divisor is the window itself.
	s.Add(100*time.Millisecond, 1000)
	if got := s.Rate(100 * time.Millisecond); math.Abs(got-110000) > 1 {
		t.Errorf("rate at full window %v, want 110000 B/s", got)
	}
	// After the window slides past the first 5 samples (the 11th sample
	// added at 100ms above remains in the window).
	if got := s.Sum(150 * time.Millisecond); got != 6000 {
		t.Errorf("sum after slide %v, want 6000", got)
	}
}

func TestSlidingSumMean(t *testing.T) {
	s := NewSlidingSum(time.Second)
	if _, ok := s.Mean(0); ok {
		t.Error("empty mean should be !ok")
	}
	s.Add(0, 2)
	s.Add(time.Millisecond, 4)
	if m, ok := s.Mean(time.Millisecond); !ok || m != 3 {
		t.Errorf("mean %v,%v want 3,true", m, ok)
	}
}

func TestSeriesFractions(t *testing.T) {
	var s Series
	for i := 0; i < 10; i++ {
		s.Add(time.Duration(i)*time.Second, float64(i))
	}
	if got := s.FractionAbove(6.5); got != 0.3 {
		t.Errorf("FractionAbove = %v, want 0.3", got)
	}
	if got := s.FractionBelow(2.5); got != 0.3 {
		t.Errorf("FractionBelow = %v, want 0.3", got)
	}
	if got := s.Mean(); got != 4.5 {
		t.Errorf("mean = %v, want 4.5", got)
	}
}

func TestSeriesDurationAbove(t *testing.T) {
	var s Series
	s.Add(0, 1)                    // above from 0
	s.Add(100*time.Millisecond, 0) // below from 100ms
	s.Add(300*time.Millisecond, 1) // above from 300ms
	got := s.DurationAbove(0.5, 0, 500*time.Millisecond)
	want := 100*time.Millisecond + 200*time.Millisecond
	if got != want {
		t.Errorf("DurationAbove = %v, want %v", got, want)
	}
}

func TestSeriesLastAbove(t *testing.T) {
	var s Series
	s.Add(time.Second, 10)
	s.Add(2*time.Second, 300)
	s.Add(3*time.Second, 250)
	s.Add(4*time.Second, 100)
	at, ok := s.LastAbove(200, 0)
	if !ok || at != 3*time.Second {
		t.Errorf("LastAbove = %v,%v want 3s,true", at, ok)
	}
	if _, ok := s.LastAbove(1000, 0); ok {
		t.Error("LastAbove should be !ok when never exceeded")
	}
	if _, ok := s.LastAbove(200, 3500*time.Millisecond); ok {
		t.Error("LastAbove should respect from")
	}
}

func TestPerSecondCounts(t *testing.T) {
	events := []time.Duration{
		100 * time.Millisecond, 900 * time.Millisecond, // second 0
		1500 * time.Millisecond,                                                   // second 1
		2100 * time.Millisecond, 2200 * time.Millisecond, 2300 * time.Millisecond, // second 2
	}
	counts := PerSecondCounts(events, 3*time.Second)
	want := []int{2, 1, 3}
	for i := range want {
		if counts[i] != want[i] {
			t.Errorf("second %d count %d, want %d", i, counts[i], want[i])
		}
	}
}

func TestPropertyHistogramQuantileMonotone(t *testing.T) {
	f := func(vals []uint16) bool {
		h := NewHistogram()
		for _, v := range vals {
			h.Add(time.Duration(v) * time.Millisecond)
		}
		prev := time.Duration(-1)
		for q := 0.0; q <= 1.0; q += 0.1 {
			cur := h.Quantile(q)
			if cur < prev {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
