package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"github.com/zhuge-project/zhuge/internal/sim"
)

// SeriesPoint is one virtual-time-stamped sample.
type SeriesPoint struct {
	At sim.Time
	V  float64
}

// Series is a named ring buffer of virtual-time samples. It is a cheap
// instrument: every method accepts a nil receiver, so a disabled series
// costs its caller one nil check.
type Series struct {
	name string
	buf  []SeriesPoint
	head int // index of oldest point when full
	n    int // number of valid points
}

// Name returns the series label; "" on a nil receiver.
func (s *Series) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Len returns the number of retained points; 0 on a nil receiver.
func (s *Series) Len() int {
	if s == nil {
		return 0
	}
	return s.n
}

// Add appends one sample, evicting the oldest when the ring is full.
func (s *Series) Add(at sim.Time, v float64) {
	if s == nil {
		return
	}
	if s.n < len(s.buf) {
		s.buf[(s.head+s.n)%len(s.buf)] = SeriesPoint{At: at, V: v}
		s.n++
		return
	}
	s.buf[s.head] = SeriesPoint{At: at, V: v}
	s.head = (s.head + 1) % len(s.buf)
}

// Points appends the retained samples, oldest first, to dst and returns it.
func (s *Series) Points(dst []SeriesPoint) []SeriesPoint {
	if s == nil {
		return dst
	}
	for i := 0; i < s.n; i++ {
		dst = append(dst, s.buf[(s.head+i)%len(s.buf)])
	}
	return dst
}

// Last returns the most recent sample; the zero point when empty or nil.
func (s *Series) Last() SeriesPoint {
	if s == nil || s.n == 0 {
		return SeriesPoint{}
	}
	return s.buf[(s.head+s.n-1)%len(s.buf)]
}

// DefaultSeriesCap is the per-series ring size when SeriesSet is built
// without an explicit capacity: at the default 100 ms sampling interval it
// retains ~27 minutes of history, far beyond any scenario duration, while
// bounding memory on unbounded live runs.
const DefaultSeriesCap = 16384

// SeriesSet owns the named series of one simulation. Like Registry,
// resolving a series is done once at component construction; samples then
// touch the ring directly. Not safe for concurrent use — one set per
// simulation (shard), merged after the run.
type SeriesSet struct {
	cap int
	m   map[string]*Series
}

// NewSeriesSet returns an empty set whose rings hold capacity points each
// (DefaultSeriesCap when capacity <= 0).
func NewSeriesSet(capacity int) *SeriesSet {
	if capacity <= 0 {
		capacity = DefaultSeriesCap
	}
	return &SeriesSet{cap: capacity, m: make(map[string]*Series)}
}

// Of returns the named series, creating it on first use. Nil-safe: a nil
// set yields a nil (no-op) series.
func (ss *SeriesSet) Of(name string) *Series {
	if ss == nil {
		return nil
	}
	s := ss.m[name]
	if s == nil {
		s = &Series{name: name, buf: make([]SeriesPoint, ss.cap)}
		ss.m[name] = s
	}
	return s
}

// Len returns the number of distinct series; 0 on a nil receiver.
func (ss *SeriesSet) Len() int {
	if ss == nil {
		return 0
	}
	return len(ss.m)
}

// Names returns the series labels in sorted order.
func (ss *SeriesSet) Names() []string {
	if ss == nil {
		return nil
	}
	names := make([]string, 0, len(ss.m))
	for name := range ss.m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Sample snapshots every counter and gauge of reg into the set, stamped at
// now: counters as their cumulative value, gauges as their last value. The
// series carry the instrument's name. Nil-safe on both receiver and
// registry (a branch here, not a panic: Of and Series.Add accept nil, so a
// nil set would only walk the registry for nothing).
func (ss *SeriesSet) Sample(now sim.Time, reg *Registry) {
	if ss == nil || reg == nil {
		return
	}
	for name, c := range reg.counters {
		ss.Of(name).Add(now, float64(c.v))
	}
	for name, g := range reg.gauges {
		ss.Of(name).Add(now, g.v)
	}
}

// StartSampler schedules a self-rescheduling virtual-time tick on s that
// snapshots reg into ss every interval until the simulation ends. The tick
// closure is allocated once; each rescheduling uses the simulator's
// handle-less 0-alloc path (the same pattern as the in-band updater's
// feedback ticker). With a nil set or registry (obs on, series or metrics
// off) it schedules nothing.
func StartSampler(s *sim.Simulator, ss *SeriesSet, reg *Registry, interval time.Duration) {
	if s == nil || ss == nil || reg == nil || interval <= 0 {
		return
	}
	var tick func()
	tick = func() {
		ss.Sample(s.Now(), reg)
		s.ScheduleAfter(interval, tick)
	}
	s.ScheduleAfter(interval, tick)
}

// WriteJSONL writes every point as one JSON object per line, series sorted
// by name, points oldest first — the canonical deterministic export (the
// cross-shard merge tests byte-compare it).
func (ss *SeriesSet) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	var scratch []SeriesPoint
	for _, name := range ss.Names() {
		scratch = ss.m[name].Points(scratch[:0])
		for _, p := range scratch {
			if _, err := fmt.Fprintf(bw, `{"series":%q,"t":%d,"v":%s}`+"\n",
				name, int64(p.At), formatSeriesValue(p.V)); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// WriteCSV writes a `series,t_ns,value` table in the same order as
// WriteJSONL.
func (ss *SeriesSet) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := io.WriteString(bw, "series,t_ns,value\n"); err != nil {
		return err
	}
	var scratch []SeriesPoint
	for _, name := range ss.Names() {
		scratch = ss.m[name].Points(scratch[:0])
		for _, p := range scratch {
			if _, err := fmt.Fprintf(bw, "%s,%d,%s\n", name, int64(p.At), formatSeriesValue(p.V)); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// formatSeriesValue renders a sample value the way encoding/json would, so
// JSONL lines round-trip through json.Unmarshal and the CSV column matches.
func formatSeriesValue(v float64) string {
	b, _ := json.Marshal(v)
	return string(b)
}

// ReadSeriesJSONL parses a WriteJSONL export back into a set, e.g. for
// zhuge-trace's series→Chrome-counter conversion.
func ReadSeriesJSONL(r io.Reader) (*SeriesSet, error) {
	type line struct {
		Series string  `json:"series"`
		T      int64   `json:"t"`
		V      float64 `json:"v"`
	}
	points := make(map[string][]SeriesPoint)
	dec := json.NewDecoder(r)
	for dec.More() {
		var l line
		if err := dec.Decode(&l); err != nil {
			return nil, fmt.Errorf("obs: series jsonl: %w", err)
		}
		points[l.Series] = append(points[l.Series], SeriesPoint{At: sim.Time(l.T), V: l.V})
	}
	capacity := 0
	for _, pts := range points {
		if len(pts) > capacity {
			capacity = len(pts)
		}
	}
	ss := NewSeriesSet(capacity)
	for name, pts := range points {
		s := &Series{name: name, buf: make([]SeriesPoint, len(pts))}
		copy(s.buf, pts)
		s.n = len(pts)
		ss.m[name] = s
	}
	return ss, nil
}

// WriteChromeCounters renders every series as Chrome trace_event counter
// samples ("ph":"C"), one process per export, so chrome://tracing and
// Perfetto draw telemetry timelines alongside the packet-lifecycle traces
// the Tracer emits. Kept separate from Tracer.WriteChromeTrace, whose phase
// set (M/X/i) is pinned by TestChromeTraceRoundTrip.
func (ss *SeriesSet) WriteChromeCounters(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := io.WriteString(bw, `{"displayTimeUnit":"ms","traceEvents":[`+"\n"); err != nil {
		return err
	}
	first := true
	emit := func(line string) error {
		if !first {
			if _, err := io.WriteString(bw, ",\n"); err != nil {
				return err
			}
		}
		first = false
		_, err := io.WriteString(bw, line)
		return err
	}
	if err := emit(`{"ph":"M","pid":1,"name":"process_name","args":{"name":"zhuge telemetry"}}`); err != nil {
		return err
	}
	var scratch []SeriesPoint
	for _, name := range ss.Names() {
		scratch = ss.m[name].Points(scratch[:0])
		for _, p := range scratch {
			line := fmt.Sprintf(`{"ph":"C","pid":1,"name":%q,"ts":%.3f,"args":{"value":%s}}`,
				name, float64(p.At)/1e3, formatSeriesValue(p.V))
			if err := emit(line); err != nil {
				return err
			}
		}
	}
	if _, err := io.WriteString(bw, "\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}
