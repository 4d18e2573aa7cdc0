// Package trace provides the bandwidth-trace substrate: the trace format,
// CSV input/output, synthetic generators calibrated to the statistics
// published for the paper's five proprietary traces, and the available-
// bandwidth (ABW) reduction-ratio analysis behind Figure 3(b).
//
// The paper's traces (W1 restaurant WiFi, W2 office WiFi, C1 indoor mixed
// 4G/5G, C2 city 4G, C3 city 5G) are not public. The generators here are
// calibrated to everything the paper reports about them: mean goodput
// (21 and 27 Mbps for the WiFi traces), sub-second resolution, and the
// fraction of 200 ms windows whose ABW drops by more than 10x (0.6-7.3%
// for wireless, <0.1% for wired). Real traces in CSV form drop in via Load.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Sample is one point of a bandwidth trace: the link's available bandwidth
// in bits per second from At until the next sample.
type Sample struct {
	At   time.Duration
	Rate float64 // bits per second
}

// Trace is a piecewise-constant available-bandwidth signal.
type Trace struct {
	Name    string
	BaseRTT time.Duration // propagation RTT recorded with the trace
	Samples []Sample
}

// Duration returns the time covered by the trace (end of the last sample,
// assuming uniform spacing; for a single sample it returns that sample's At).
func (t *Trace) Duration() time.Duration {
	n := len(t.Samples)
	if n == 0 {
		return 0
	}
	if n == 1 {
		return t.Samples[0].At
	}
	step := t.Samples[n-1].At - t.Samples[n-2].At
	return t.Samples[n-1].At + step
}

// RateAt returns the available bandwidth at virtual time at. Times beyond
// the trace wrap around, so short traces can drive long simulations.
func (t *Trace) RateAt(at time.Duration) float64 {
	var c Cursor
	return c.RateAt(t, at)
}

// Cursor reads a trace's rate as RateAt does, remembering the sample it read
// last: while time moves forward, a read costs a comparison or two instead
// of a binary search. A Trace is shared by cells that run in parallel, so
// each reader keeps its own Cursor; the zero value is ready to use.
type Cursor struct{ i int }

// RateAt returns t.RateAt(at).
func (c *Cursor) RateAt(t *Trace, at time.Duration) float64 {
	s := t.Samples
	if len(s) == 0 {
		return 0
	}
	if d := t.Duration(); d > 0 {
		at = at % d
	}
	i := min(c.i, len(s)-1)
	if i+1 < len(s) && s[i+1].At <= at {
		i++ // time has moved on to the next sample
	}
	if s[i].At > at || i+1 < len(s) && s[i+1].At <= at {
		// Not the last sample with At <= at: search for it.
		i = max(sort.Search(len(s), func(i int) bool { return s[i].At > at })-1, 0)
	}
	c.i = i
	return s[i].Rate
}

// Mean returns the time-weighted mean rate in bits per second.
func (t *Trace) Mean() float64 {
	if len(t.Samples) == 0 {
		return 0
	}
	total := t.Duration()
	if total == 0 {
		return t.Samples[0].Rate
	}
	var area float64
	for i, s := range t.Samples {
		end := total
		if i+1 < len(t.Samples) {
			end = t.Samples[i+1].At
		}
		area += s.Rate * (end - s.At).Seconds()
	}
	return area / total.Seconds()
}

// Min returns the smallest sample rate, or 0 for an empty trace.
func (t *Trace) Min() float64 {
	if len(t.Samples) == 0 {
		return 0
	}
	min := t.Samples[0].Rate
	for _, s := range t.Samples[1:] {
		if s.Rate < min {
			min = s.Rate
		}
	}
	return min
}

// Scale returns a copy of the trace with every rate multiplied by f.
func (t *Trace) Scale(f float64) *Trace {
	out := &Trace{Name: t.Name, BaseRTT: t.BaseRTT, Samples: make([]Sample, len(t.Samples))}
	for i, s := range t.Samples {
		out.Samples[i] = Sample{At: s.At, Rate: s.Rate * f}
	}
	return out
}

// Constant returns a trace pinned at rate for the given duration, sampled
// every 100 ms. Used for fixed-bandwidth microbenchmarks.
func Constant(name string, rate float64, dur time.Duration) *Trace {
	t := &Trace{Name: name, BaseRTT: 50 * time.Millisecond}
	for at := time.Duration(0); at < dur; at += 100 * time.Millisecond {
		t.Samples = append(t.Samples, Sample{At: at, Rate: rate})
	}
	return t
}

// Step returns a trace at high until stepAt, then at low for the remainder.
// It drives the bandwidth-drop microbenchmarks of Figures 4, 14 and 15.
func Step(name string, high, low float64, stepAt, dur time.Duration) *Trace {
	t := &Trace{Name: name, BaseRTT: 50 * time.Millisecond}
	for at := time.Duration(0); at < dur; at += 50 * time.Millisecond {
		r := high
		if at >= stepAt {
			r = low
		}
		t.Samples = append(t.Samples, Sample{At: at, Rate: r})
	}
	return t
}

// Save writes the trace as CSV: header line, then "seconds,bps" rows.
func (t *Trace) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# trace %s base_rtt_ms %d\n", t.Name, t.BaseRTT.Milliseconds()); err != nil {
		return err
	}
	for _, s := range t.Samples {
		if _, err := fmt.Fprintf(bw, "%.6f,%.0f\n", s.At.Seconds(), s.Rate); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Load parses a CSV trace written by Save (or hand-authored in the same
// "seconds,bps" format; the header comment is optional). A rate must be
// finite and non-negative; 0 bps is an outage.
func Load(name string, r io.Reader) (*Trace, error) {
	t := &Trace{Name: name, BaseRTT: 50 * time.Millisecond}
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "#") {
			if fields := strings.Fields(text); len(fields) >= 5 && fields[1] == "trace" && fields[3] == "base_rtt_ms" {
				if ms, err := strconv.Atoi(fields[4]); err == nil {
					t.BaseRTT = time.Duration(ms) * time.Millisecond
				}
			}
			continue
		}
		parts := strings.Split(text, ",")
		if len(parts) != 2 {
			return nil, fmt.Errorf("trace %s line %d: want 'seconds,bps', got %q", name, line, text)
		}
		sec, err := strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
		if err != nil {
			return nil, fmt.Errorf("trace %s line %d: bad time: %v", name, line, err)
		}
		rate, err := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
		if err != nil {
			return nil, fmt.Errorf("trace %s line %d: bad rate: %v", name, line, err)
		}
		if !(rate >= 0 && rate <= math.MaxFloat64) {
			return nil, fmt.Errorf("trace %s line %d: bad rate %v: want a finite, non-negative bps", name, line, rate)
		}
		t.Samples = append(t.Samples, Sample{At: time.Duration(sec * float64(time.Second)), Rate: rate})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(t.Samples) == 0 {
		return nil, fmt.Errorf("trace %s: empty", name)
	}
	if !sort.SliceIsSorted(t.Samples, func(i, j int) bool { return t.Samples[i].At < t.Samples[j].At }) {
		return nil, fmt.Errorf("trace %s: samples out of order", name)
	}
	return t, nil
}
