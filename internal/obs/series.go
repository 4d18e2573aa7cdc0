package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"github.com/zhuge-project/zhuge/internal/metrics"
	"github.com/zhuge-project/zhuge/internal/sim"
)

// Series is the instrument handle of one telemetry series: an append-only
// metrics.Series (the one storage type for time series in this tree) whose
// Add and Len accept a nil receiver, so a disabled series costs its caller
// one nil check. A reader that holds a live series ranges over Points.
type Series struct {
	metrics.Series
}

// Len returns the number of recorded points; 0 on a nil receiver.
func (s *Series) Len() int {
	if s == nil {
		return 0
	}
	return len(s.Points)
}

// Add appends one sample. Every run is bounded by its -dur, so nothing is
// ever evicted: an export holds every sample taken.
func (s *Series) Add(at sim.Time, v float64) {
	if s == nil {
		return
	}
	s.Series.Add(at, v)
}

// SeriesSet owns the named series of one simulation. Like Registry,
// resolving a series is done once at component construction; samples then
// touch the series directly. Not safe for concurrent use — one set per
// simulator, or one for the whole cluster when the shard profiler fills it
// from the barrier.
type SeriesSet struct {
	m map[string]*Series
}

// NewSeriesSet returns an empty set.
func NewSeriesSet() *SeriesSet {
	return &SeriesSet{m: make(map[string]*Series)}
}

// Of returns the named series, creating it on first use. Nil-safe: a nil
// set yields a nil (no-op) series.
func (ss *SeriesSet) Of(name string) *Series {
	if ss == nil {
		return nil
	}
	s := ss.m[name]
	if s == nil {
		s = &Series{}
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
// by name, points oldest first — the canonical deterministic export
// (TestSeriesJSONLRoundtrip and the CI single-path smoke byte-compare it).
func (ss *SeriesSet) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, name := range ss.Names() {
		for _, p := range ss.m[name].Points {
			if _, err := fmt.Fprintf(bw, `{"series":%q,"t":%d,"v":%s}`+"\n",
				name, int64(p.At), formatSeriesValue(p.Value)); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// formatSeriesValue renders a sample value the way encoding/json would, so
// JSONL lines and Chrome counter events parse back through json.Unmarshal.
func formatSeriesValue(v float64) string {
	b, _ := json.Marshal(v)
	return string(b)
}
