package scenario

import (
	"encoding/json"
	"io"
	"time"

	"github.com/zhuge-project/zhuge/internal/shard"
)

// CellLoad is one cell's measured weight in a sharded run.
// Events is deterministic (simulator event counts); ComputeNS/StallNS are
// wall-clock and only present when the profiling run injected a clock.
type CellLoad struct {
	// Cell is the cell label (the AP name).
	Cell      string  `json:"cell"`
	Events    uint64  `json:"events"`
	Share     float64 `json:"share"` // fraction of total events
	ComputeNS int64   `json:"compute_ns,omitempty"`
	StallNS   int64   `json:"stall_ns,omitempty"`
}

// LoadProfile is the per-cell weight profile a sharded profiling run dumps
// (`zhuge-sim -campus N -profile-out f.json`): an instrument for seeing
// where the events go, one exact row per cell at any shard count. Nothing
// reads it back — placement is partition plus the Rebalancer.
type LoadProfile struct {
	Workload   string     `json:"workload"`
	Shards     int        `json:"shards"`
	Windows    uint64     `json:"windows"`
	Events     uint64     `json:"events"`
	SerialNS   int64      `json:"serial_ns,omitempty"`
	CriticalNS int64      `json:"critical_path_ns,omitempty"`
	Cells      []CellLoad `json:"cells"`
	// MaxMinEventRatio is heaviest/lightest row by events over the whole
	// run. It is not what caps parallel speedup: per-window skew is (see
	// OBSERVABILITY.md).
	MaxMinEventRatio float64 `json:"heaviest_to_lightest"`
}

// WriteJSON writes the profile as one indented JSON document.
func (lp *LoadProfile) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(lp)
}

// RunProfiled is Run with load attribution: p observes every window. Build
// p with NewProfiler and configure its Clock/Series/OnWindow before the
// call. When the build enabled the dynamic rebalancer it is attached to p
// here, so profiled and plain runs rebalance identically.
func (spd *ShardedPath) RunProfiled(d time.Duration, workers int, p *shard.Profiler) {
	if spd.Rebalancer != nil {
		p.AttachRebalancer(spd.Rebalancer)
	}
	spd.Cluster.RunProfiled(d, workers, p)
}

// NewProfiler returns a load profiler bound to the path's cluster.
func (spd *ShardedPath) NewProfiler() *shard.Profiler {
	return shard.NewProfiler(spd.Cluster)
}

// LoadProfile folds a finished profiler into the per-cell weight document.
// workload names the scenario (e.g. "campus-100ap"). Rows are exact per
// cell at any shard count — the profiler attributes event deltas cell by
// cell, so grouping (and even mid-run migration) no longer blurs the
// weights. ComputeNS/StallNS stay per-shard measurements; they are attached
// to a cell's row only when the cell finished the run alone on its shard.
func (spd *ShardedPath) LoadProfile(p *shard.Profiler, workload string) *LoadProfile {
	lp := &LoadProfile{
		Workload:   workload,
		Shards:     len(spd.Cluster.Shards()),
		Windows:    p.Windows(),
		SerialNS:   int64(p.Serial()),
		CriticalNS: int64(p.Critical()),
	}
	loads := p.Loads()
	var minEv, maxEv uint64
	for i, ev := range p.CellEvents() {
		c := spd.Cells[i]
		label := c.Label
		if label == "" {
			label = "cell0"
		}
		row := CellLoad{Cell: label, Events: ev}
		if sh := c.Shard(); len(sh.Cells()) == 1 {
			row.ComputeNS = loads[shardIndex(spd, sh)].ComputeNS
			row.StallNS = loads[shardIndex(spd, sh)].StallNS
		}
		lp.Events += ev
		if i == 0 || ev < minEv {
			minEv = ev
		}
		if ev > maxEv {
			maxEv = ev
		}
		lp.Cells = append(lp.Cells, row)
	}
	for i := range lp.Cells {
		if lp.Events > 0 {
			lp.Cells[i].Share = float64(lp.Cells[i].Events) / float64(lp.Events)
		}
	}
	if minEv > 0 {
		lp.MaxMinEventRatio = float64(maxEv) / float64(minEv)
	}
	return lp
}

// shardIndex finds a shard's registration index in the cluster.
func shardIndex(spd *ShardedPath, sh *shard.Shard) int {
	for i, x := range spd.Cluster.Shards() {
		if x == sh {
			return i
		}
	}
	panic("scenario: shard not registered with this cluster")
}
