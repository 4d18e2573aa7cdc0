package shard

import (
	"time"

	"github.com/zhuge-project/zhuge/internal/obs"
	"github.com/zhuge-project/zhuge/internal/sim"
)

// ShardLoad is one shard's accumulated profile: how many events it fired,
// how long it computed, and how long it sat idle at barriers waiting for
// the window's straggler. StallNS is the per-window sum of (slowest shard's
// compute − own compute): the straggler itself stalls zero, and a large
// spread is exactly the per-window skew that makes critical-path scaling
// sub-linear (shard.par_ceiling in benchmark/README.md).
type ShardLoad struct {
	Shard     string `json:"shard"`
	Events    uint64 `json:"events"`
	ComputeNS int64  `json:"compute_ns,omitempty"`
	StallNS   int64  `json:"stall_ns,omitempty"`
}

// Profiler measures per-window per-shard load while a cluster runs. Event
// counts come from the cells' deterministic Fired() deltas — tracked per
// cell, so attribution follows a cell across migrations — and compute time
// comes from an injected monotonic clock, because internal/shard is a
// deterministic package (detclock) and must not read wall time itself —
// cmd-layer callers pass one, and a nil Clock yields an events-only (fully
// deterministic) profile.
//
// The profiler is driven from the cluster's barrier executor: the per-shard
// compute brackets are written from the worker running that shard (distinct
// indices, no sharing), and all event accounting happens between windows on
// the coordinating goroutine, where residency is stable.
type Profiler struct {
	// Clock returns monotonic elapsed time (e.g. time.Since(start) from a
	// cmd). Nil disables compute/stall attribution. The rebalancer never
	// reads it: its signal is event counts alone.
	Clock func() time.Duration

	// Series, when non-nil, receives per-window telemetry stamped at each
	// window's virtual end time: shard.<name>.window_events for every shard
	// (deterministic) and shard.<name>.window_compute_ms when Clock is set
	// (wall time — exclude from byte-compared exports).
	Series *obs.SeriesSet

	// OnWindow, when non-nil, runs single-threaded after each window with
	// the window's virtual end time — the hook the live stats plane uses to
	// publish mid-run snapshots.
	OnWindow func(end sim.Time)

	c          *Cluster
	rebal      *Rebalancer // observes every window; see AttachRebalancer
	loads      []ShardLoad
	cellFired  []uint64        // per cell (cluster order): cumulative Fired at last barrier
	cellEvents []uint64        // per cell: total events attributed so far
	cellDelta  []uint64        // scratch: this window's per-cell events
	shardDelta []uint64        // scratch: this window's per-shard events
	compute    []time.Duration // scratch: this window's per-shard compute
	windows    uint64
	serial     time.Duration // sum over windows of sum of shard compute
	critical   time.Duration // sum over windows of max shard compute
}

// NewProfiler returns a profiler bound to c's current shard and cell sets.
func NewProfiler(c *Cluster) *Profiler {
	n, m := len(c.shards), len(c.cells)
	p := &Profiler{
		c:          c,
		loads:      make([]ShardLoad, n),
		compute:    make([]time.Duration, n),
		shardDelta: make([]uint64, n),
		cellFired:  make([]uint64, m),
		cellEvents: make([]uint64, m),
		cellDelta:  make([]uint64, m),
	}
	for i, sh := range c.shards {
		p.loads[i].Shard = sh.name
	}
	return p
}

// wrap returns a barrier executor that runs do while attributing each
// shard's compute — and, between windows, each cell's events — to the
// profiler.
func (p *Profiler) wrap(do func(n int, fn func(i int))) func(n int, fn func(i int)) {
	return func(n int, fn func(i int)) {
		do(n, func(i int) {
			if p.Clock != nil {
				t0 := p.Clock()
				fn(i)
				p.compute[i] = p.Clock() - t0
			} else {
				fn(i)
				p.compute[i] = 0
			}
		})
		p.endWindow()
	}
}

// endWindow folds this window's per-cell events and per-shard compute into
// totals, emits the per-window series, and gives the rebalancer its
// barrier-time look. Runs on the coordinating goroutine between windows.
func (p *Profiler) endWindow() {
	p.windows++
	var max time.Duration
	for _, d := range p.compute {
		if d > max {
			max = d
		}
	}
	p.critical += max
	// Per-cell event deltas, attributed to the shard each cell resided on
	// during the window (residency is stable in-window; Migrate runs after
	// this accounting).
	for i := range p.shardDelta {
		p.shardDelta[i] = 0
	}
	for ci, cl := range p.c.cells {
		fired := cl.s.Fired()
		d := fired - p.cellFired[ci]
		p.cellFired[ci] = fired
		p.cellDelta[ci] = d
		p.cellEvents[ci] += d
		p.shardDelta[cl.sh.idx] += d
	}
	// Window end in virtual time: every cell has run to the same bound, so
	// the furthest cell clock is the window edge.
	var end sim.Time
	for _, cl := range p.c.cells {
		if now := cl.s.Now(); now > end {
			end = now
		}
	}
	for i := range p.loads {
		d := p.compute[i]
		p.serial += d
		p.loads[i].Events += p.shardDelta[i]
		p.loads[i].ComputeNS += int64(d)
		p.loads[i].StallNS += int64(max - d)
		if p.Series != nil {
			p.Series.Of("shard."+p.loads[i].Shard+".window_events").Add(end, float64(p.shardDelta[i]))
			if p.Clock != nil {
				p.Series.Of("shard."+p.loads[i].Shard+".window_compute_ms").
					Add(end, float64(d)/float64(time.Millisecond))
			}
		}
	}
	if p.rebal != nil {
		p.rebal.observe(p, end)
	}
	if p.OnWindow != nil {
		p.OnWindow(end)
	}
}

// Loads returns the accumulated per-shard profile in shard registration
// order. Under migration a shard's row covers whatever cells resided on it
// window by window.
func (p *Profiler) Loads() []ShardLoad { return p.loads }

// CellEvents returns the exact cumulative event count of every cell, in
// cluster cell registration order. Unlike Loads it is independent of both
// grouping and migration: the rows of scenario.LoadProfile.
func (p *Profiler) CellEvents() []uint64 { return p.cellEvents }

// Windows returns how many windows the profiler observed.
func (p *Profiler) Windows() uint64 { return p.windows }

// Serial returns total compute summed over all shards and windows — the
// single-threaded cost of the same work.
func (p *Profiler) Serial() time.Duration { return p.serial }

// Critical returns the critical path: the sum over windows of the slowest
// shard's compute. Critical/Serial is the parallel efficiency ceiling the
// placement imposes, independent of worker count.
func (p *Profiler) Critical() time.Duration { return p.critical }

// RunProfiled is Cluster.Run with profiling: it advances the cluster to end
// on a worker pool while p attributes per-window load.
func (c *Cluster) RunProfiled(end sim.Time, workers int, p *Profiler) {
	pool := c.pool(workers)
	defer pool.Close()
	c.run(end, p.wrap(pool.Do))
}
