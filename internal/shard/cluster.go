package shard

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"github.com/zhuge-project/zhuge/internal/netem"
	"github.com/zhuge-project/zhuge/internal/parallel"
	"github.com/zhuge-project/zhuge/internal/sim"
)

// Cell is the unit of decomposition and of migration: a self-contained
// subgraph advancing on its own sim.Simulator, resident on exactly one
// shard at a time. Because every cell owns its own event heap, moving a
// cell between shards is a pointer move at a barrier — no event surgery,
// no state copy — and the cell's event stream (and therefore its output)
// is byte-identical wherever it runs.
type Cell struct {
	name string
	c    *Cluster
	s    *sim.Simulator
	sh   *Shard // current residence; changes only between windows
}

// Name returns the cell's unique name within its cluster.
func (cl *Cell) Name() string { return cl.name }

// Sim returns the cell-local simulator. Build the cell's topology on it;
// do not call Run/RunUntil yourself — the cluster owns the clock. It is a
// build-time and barrier-time accessor: in-window code already runs on its
// own cell's simulator, and reaching for another cell's mid-window mutates
// state a different executor owns.
func (cl *Cell) Sim() *sim.Simulator {
	cl.c.BarrierOnly("Cell.Sim")
	return cl.s
}

// Shard returns the shard the cell currently resides on.
func (cl *Cell) Shard() *Shard { return cl.sh }

// Shard is one parallel unit: a worker slot that advances the simulators
// of its resident cells under the cluster's window protocol. Residency is
// a scheduling choice — it decides which core runs a cell's events, never
// what those events do — so cells may migrate between shards at barriers
// without touching outputs.
type Shard struct {
	name  string
	idx   int // registration index; loads and executors key off it
	cells []*Cell
}

// Name returns the shard's unique name within its cluster.
func (sh *Shard) Name() string { return sh.name }

// Cells returns the cells currently resident on the shard, in arrival
// order (read-only).
func (sh *Shard) Cells() []*Cell { return sh.cells }

// Edge is a directed cut link between two cells with a fixed positive
// delay — the lookahead that licenses parallel windows. All sends on one
// edge must originate from its source cell (one deterministic event
// stream), so the inbox FIFO order is a function of that cell alone and
// both shard count and cell placement stay invisible. Edges bind cells,
// not shards: when a cell migrates, its edges follow it implicitly.
//
// An edge bounds windows only while it is armed, and only an armed edge
// may carry a packet. Arming is a count of the routes that use the edge,
// raised and lowered at barriers, so an edge nothing routes over lets the
// cells around it run to the next barrier action in one window.
type Edge struct {
	name  string
	delay sim.Time
	src   *Cell
	dst   *Cell
	inbox ring
	armed int // routes using the edge; written only at barriers
}

// Name returns the edge's unique name within its cluster.
func (e *Edge) Name() string { return e.name }

// Delay returns the edge's propagation delay (its lookahead contribution).
func (e *Edge) Delay() time.Duration { return e.delay }

// Send hands a packet across the cut: it will be delivered to dst on the
// destination cell at the source cell's now plus the edge delay. The
// caller gives up ownership of p — the packet must not be touched or
// Released after Send; the destination's delivery path releases it.
//
// Send is in-window only: the inbox ring's single producer is the source
// cell's event stream, so a Send from a barrier action or from build code
// panics (see ring.push).
//
// Send on a disarmed edge panics too: the windows were granted without
// its delay, so its packet could arrive in the destination cell's past.
func (e *Edge) Send(p *netem.Packet, dst netem.Receiver) {
	if e.armed == 0 {
		panic(fmt.Sprintf("shard: send on disarmed edge %q: the windows were granted without its delay; "+
			"Arm it at a barrier before routing over it", e.name))
	}
	e.inbox.push(Parcel{P: p, At: e.src.s.Now() + e.delay, Dst: dst})
}

// Arm adds one route over the edge: from the next window on, its delay
// bounds the windows and Send may carry packets. Barrier-only.
func (e *Edge) Arm() {
	e.src.c.BarrierOnly("Edge.Arm")
	e.armed++
}

// Disarm removes one route Arm added; the edge stops bounding windows when
// the last one goes. The caller vouches that the route will send nothing
// more — the barrier has already drained what it sent. Barrier-only.
func (e *Edge) Disarm() {
	e.src.c.BarrierOnly("Edge.Disarm")
	if e.armed == 0 {
		panic(fmt.Sprintf("shard: Disarm of edge %q, which is not armed", e.name))
	}
	e.armed--
}

// DisarmWhenDrained removes one route Arm added at the end of the first
// barrier, this one included, at which v has nothing live: for a route
// that may still carry what a visit left behind in the source cell.
// Barrier-only.
func (e *Edge) DisarmWhenDrained(v *netem.Visit) {
	c := e.src.c
	c.BarrierOnly("Edge.DisarmWhenDrained")
	c.draining = append(c.draining, drainingRoute{e, v})
}

// drainingRoute is a route waiting for its visit to drain before it
// disarms its edge.
type drainingRoute struct {
	e *Edge
	v *netem.Visit
}

// action is one barrier callback: fn runs single-threaded at virtual time
// at, between windows, and may touch state on any shard.
type action struct {
	at  sim.Time
	seq int
	fn  func()
}

// Cluster coordinates a set of shards: it computes safe windows from the
// cut edges' minimum delay, fans RunBefore out over a worker pool, drains
// edge inboxes at every barrier in global edge-name order, and runs
// registered barrier actions at their exact virtual times.
type Cluster struct {
	shards  []*Shard
	cells   []*Cell
	byName  map[string]bool
	cellSet map[string]bool
	edges   []*Edge
	edgeSet map[string]bool
	look    sim.Time // min edge delay; valid when len(edges) > 0
	// draining holds routes that disarm their edge once their visit has
	// drained; checked at every barrier.
	draining []drainingRoute
	actions  []action
	nextAct  int
	windows  uint64

	// active counts shard executors currently inside a window; nonzero
	// means "a window is executing". It is the one predicate the whole
	// ownership protocol is asserted against: the control plane (AddShard,
	// AddCell, Connect, At, Migrate, RunWith, Cell.Sim) and the ring's
	// consumer side panic while it is nonzero, the ring's producer side
	// (Edge.Send) panics while it is zero. An executing event always sees
	// its own executor's increment and a barrier action always sees zero,
	// so every violation is the same panic at any worker count.
	active atomic.Int32
}

// BarrierOnly panics, naming op, when a window is executing. Build code
// and barrier actions run with every shard executor parked and may touch
// state on any shard; in-window code runs concurrently with the other
// shards and may not. Every control-plane entry point below calls it, and
// so does code outside this package that mutates state spanning several
// cells (a roam in scenario.ShardedPath).
func (c *Cluster) BarrierOnly(op string) {
	if c.active.Load() != 0 {
		panic(fmt.Sprintf("shard: %s while a window is executing: cluster wiring, barrier registration, "+
			"migration and cross-cell mutation are build-time or barrier-only (Cluster.At)", op))
	}
}

// NewCluster returns an empty cluster.
func NewCluster() *Cluster {
	return &Cluster{
		byName:  make(map[string]bool),
		cellSet: make(map[string]bool),
		edgeSet: make(map[string]bool),
	}
}

// AddShard registers a parallel execution slot. Duplicate names are a
// build-time bug and panic, matching scenario.Spec's convention for APs.
func (c *Cluster) AddShard(name string) *Shard {
	c.BarrierOnly("AddShard")
	if c.byName[name] {
		panic(fmt.Sprintf("shard: duplicate shard %q", name))
	}
	c.byName[name] = true
	sh := &Shard{name: name, idx: len(c.shards)}
	c.shards = append(c.shards, sh)
	return sh
}

// AddCell registers a cell: a simulator that will advance under the
// cluster's window protocol, initially resident on shard on. Cells are
// ordered by registration; that order — never residency — is what
// deterministic consumers (the profiler, the load profile) key off.
func (c *Cluster) AddCell(name string, s *sim.Simulator, on *Shard) *Cell {
	c.BarrierOnly("AddCell")
	if c.cellSet[name] {
		panic(fmt.Sprintf("shard: duplicate cell %q", name))
	}
	if on == nil {
		panic(fmt.Sprintf("shard: cell %q needs a home shard", name))
	}
	c.cellSet[name] = true
	cl := &Cell{name: name, c: c, s: s, sh: on}
	c.cells = append(c.cells, cl)
	on.cells = append(on.cells, cl)
	return cl
}

// Shards returns the shards in registration order (read-only).
func (c *Cluster) Shards() []*Shard { return c.shards }

// Cells returns the cells in registration order (read-only).
func (c *Cluster) Cells() []*Cell { return c.cells }

// Connect creates a directed edge from one cell to another with the given
// delay. A non-positive delay is rejected: it would mean zero lookahead —
// a cross-cell message could arrive in the very instant it was sent, and
// no window wider than a single event could ever be granted. Model such
// couplings inside one cell instead.
func (c *Cluster) Connect(name string, from, to *Cell, delay time.Duration) (*Edge, error) {
	c.BarrierOnly("Connect")
	if delay <= 0 {
		return nil, fmt.Errorf(
			"shard: edge %q (%s -> %s) has delay %v: cut edges need a positive delay, "+
				"because the minimum edge delay is the lookahead that bounds parallel windows",
			name, from.name, to.name, delay)
	}
	if c.edgeSet[name] {
		panic(fmt.Sprintf("shard: duplicate edge %q", name))
	}
	c.edgeSet[name] = true
	e := &Edge{name: name, delay: delay, src: from, dst: to, inbox: ring{active: &c.active}}
	c.edges = append(c.edges, e)
	if len(c.edges) == 1 || delay < c.look {
		c.look = delay
	}
	return e, nil
}

// Migrate moves a cell to another shard. It is legal only at a barrier —
// between windows, when no shard executor is running — because it
// transfers two ownerships at once: the cell's event heap (executed by the
// destination shard's worker from the next window on) and the producer
// side of every edge rooted at the cell (the SPSC inbox rings' producer is
// "whichever worker runs the owning shard's window", so re-homing the cell
// re-homes the rings with it). Inside the barrier both sides are parked:
// the transfer is a pointer move and outputs cannot observe it — residency
// only decides which core runs the cell's (unchanged) event stream.
func (c *Cluster) Migrate(cell *Cell, to *Shard) {
	c.BarrierOnly("Migrate")
	from := cell.sh
	if from == to {
		return
	}
	for i, x := range from.cells {
		if x == cell {
			from.cells = append(from.cells[:i], from.cells[i+1:]...)
			break
		}
	}
	to.cells = append(to.cells, cell)
	cell.sh = to
}

// Lookahead returns the minimum delay over all edges, armed or not, or
// false when there are none. It is the narrowest window bound the
// cluster can impose; RunWith bounds each window by the minimum over the
// edges armed at that barrier only (armedLookahead).
func (c *Cluster) Lookahead() (time.Duration, bool) {
	return c.look, len(c.edges) > 0
}

// armedLookahead returns the minimum delay over the armed edges, or false
// when none is armed (windows are then bounded only by barrier actions and
// the horizon).
func (c *Cluster) armedLookahead() (sim.Time, bool) {
	var look sim.Time
	found := false
	for _, e := range c.edges {
		if e.armed > 0 && (!found || e.delay < look) {
			look, found = e.delay, true
		}
	}
	return look, found
}

// At registers a barrier action at virtual time t. Actions run
// single-threaded between windows, in (time, registration) order, before
// any shard executes events at t; unlike ordinary events they may touch
// state across shards (a cross-shard handover migrates flow state here,
// and Migrate re-homes whole cells here). Register actions before Run.
func (c *Cluster) At(t sim.Time, fn func()) {
	c.BarrierOnly("At")
	c.actions = append(c.actions, action{at: t, seq: len(c.actions), fn: fn})
}

// Fired returns the cumulative event count across all cells.
func (c *Cluster) Fired() uint64 {
	var n uint64
	for _, cl := range c.cells {
		n += cl.s.Fired()
	}
	return n
}

// Windows returns how many synchronisation windows Run granted.
func (c *Cluster) Windows() uint64 { return c.windows }

// Run advances every shard to end using a pool of workers. workers <= 1
// runs windows inline — the sequential reference that sharded output is
// checked byte-identical against.
func (c *Cluster) Run(end sim.Time, workers int) {
	pool := parallel.NewPool(workers)
	defer pool.Close()
	c.RunWith(end, pool.Do)
}

// RunWith is Run with a caller-supplied barrier executor: do(n, fn) must
// run fn(0..n-1) to completion before returning. The profiler wraps the
// executor here to measure per-shard window cost.
//
// Each window is W = min(m + L, next barrier action, end), where m is the
// earliest pending event over all cells and L the minimum delay over the
// edges armed at the barrier; with no edge armed the first term drops
// out. Arming changes only at barriers, from counts every shard count
// sees alike, so the windows are the same at every shard count.
func (c *Cluster) RunWith(end sim.Time, do func(n int, fn func(i int))) {
	c.BarrierOnly("Run")
	sort.Slice(c.edges, func(i, j int) bool { return c.edges[i].name < c.edges[j].name })
	sort.Slice(c.actions, func(i, j int) bool {
		a, b := c.actions[i], c.actions[j]
		return a.at < b.at || (a.at == b.at && a.seq < b.seq)
	})
	for {
		minNext, haveNext := c.minNext()
		actAt, haveAct := c.nextAction()
		if (!haveNext || minNext >= end) && (!haveAct || actAt > end) {
			break
		}
		w := end
		if look, armed := c.armedLookahead(); haveNext && armed && minNext+look < w {
			w = minNext + look
		}
		if haveAct && actAt < w {
			w = actAt
		}
		// Only armed edges carry packets (Edge.Send), so every cross-cell
		// arrival is >= minNext + minimum armed edge delay >= w, and
		// executing [now, w) on all shards concurrently can never deliver
		// into a shard's past.
		do(len(c.shards), func(i int) { c.runShard(i, w, false) })
		c.drainEdges()
		c.runActions(w)
		c.disarmDrained()
		c.windows++
	}
	// Epilogue: the horizon itself. Events stamped exactly at end still
	// belong to the run (RunUntil semantics); the window has zero width,
	// so cross-shard influence at equal time is impossible and the
	// parallel pass stays safe.
	do(len(c.shards), func(i int) { c.runShard(i, end, true) })
	c.drainEdges()
}

// runShard advances every cell resident on shard i to the window bound.
// The residency list is stable for the whole window (Migrate is barrier-
// only), so iterating it from the worker goroutine is race-free.
func (c *Cluster) runShard(i int, w sim.Time, inclusive bool) {
	c.active.Add(1)
	defer c.active.Add(-1)
	for _, cl := range c.shards[i].cells {
		if inclusive {
			cl.s.RunUntil(w)
		} else {
			cl.s.RunBefore(w)
		}
	}
}

// minNext returns the earliest pending event time across all cells.
func (c *Cluster) minNext() (sim.Time, bool) {
	var min sim.Time
	found := false
	for _, cl := range c.cells {
		if at, ok := cl.s.NextEventTime(); ok && (!found || at < min) {
			min, found = at, true
		}
	}
	return min, found
}

// nextAction returns the time of the earliest unexecuted barrier action.
func (c *Cluster) nextAction() (sim.Time, bool) {
	if c.nextAct >= len(c.actions) {
		return 0, false
	}
	return c.actions[c.nextAct].at, true
}

// drainEdges empties every edge inbox in global name order, scheduling the
// arrivals on the destination cells. Runs only at barriers, after the
// worker pool has joined.
func (c *Cluster) drainEdges() {
	for _, e := range c.edges {
		dst := e.dst.s
		e.inbox.drain(func(pc Parcel) {
			p, rcv := pc.P, pc.Dst
			dst.Schedule(pc.At, func() { rcv.Receive(p) })
		})
	}
}

// disarmDrained disarms the edge of every draining route whose visit has
// nothing live any more. Barrier-only: Visit.Live reads counts that cells
// write in a window.
func (c *Cluster) disarmDrained() {
	keep := c.draining[:0]
	for _, d := range c.draining {
		if d.v.Live() == 0 {
			d.e.Disarm()
		} else {
			keep = append(keep, d)
		}
	}
	c.draining = keep
}

// runActions executes every action with at <= w in (time, registration)
// order, single-threaded.
func (c *Cluster) runActions(w sim.Time) {
	for c.nextAct < len(c.actions) && c.actions[c.nextAct].at <= w {
		c.actions[c.nextAct].fn()
		c.nextAct++
	}
}
