package scenario

import (
	"fmt"
	"sort"
	"time"

	"github.com/zhuge-project/zhuge/internal/netem"
	"github.com/zhuge-project/zhuge/internal/shard"
)

// ShardedOptions configures BuildSharded.
type ShardedOptions struct {
	// Shards is the number of parallel event heaps the topology's cells
	// are grouped onto; <= 0 (or more than there are cells) means one
	// shard per cell. The grouping only affects wall-clock speed: outputs
	// are byte-identical for every value.
	Shards int

	// Rebalance enables the dynamic rebalancer: per-window cell loads are
	// watched during the run and whole cells migrate between shards at
	// barriers when the imbalance exceeds RebalanceConfig's hysteresis.
	// Like Shards it can only change wall-clock speed, never outputs.
	Rebalance bool

	// RebalanceConfig tunes the rebalancer; the zero value means defaults.
	RebalanceConfig shard.RebalanceConfig

	// CutDelay is the one-way backhaul delay of every inter-cell edge —
	// the trombone path a roamed station's traffic crosses, and the
	// lookahead that bounds the cluster's parallel windows. It must be
	// positive whenever the Spec roams stations across cells; zero or
	// negative delays are rejected at build time.
	CutDelay time.Duration
}

// ShardedCell is one cell of a sharded build: a complete single-AP Path —
// its AP, the stations homed there, their flows and server endpoints —
// assembled on its own cell-local simulator and registered with the
// cluster as a migratable shard.Cell.
type ShardedCell struct {
	Index int
	Label string
	Path  *Path
	Cell  *shard.Cell
}

// Shard returns the shard the cell currently resides on. Under the dynamic
// rebalancer residency can change at barriers; the value is only stable
// read from barrier context or after the run.
func (c *ShardedCell) Shard() *shard.Shard { return c.Cell.Shard() }

// ShardedPath is a Spec decomposed into per-AP cells running under a
// shard.Cluster. The decomposition is fixed by the Spec alone — one cell
// per AP, stations and flows homed with their starting AP — and the shard
// count only groups cells onto simulators, which is what makes `-shards 1`
// versus `-shards 8` byte-identical.
//
// Stations that roam to an AP in another cell are tromboned rather than
// migrated: the station object, its flows' endpoints and their metrics
// stay in the home cell, while the flow's downlink detours home WAN ->
// cut edge -> visited AP's queue and radio -> cut edge -> home delivery
// demux (and the uplink mirrors it). The cut edges' delay models the
// inter-AP backhaul and doubles as the cluster's lookahead.
type ShardedPath struct {
	Spec    Spec
	Opts    ShardedOptions
	Cluster *shard.Cluster
	Cells   []*ShardedCell

	// Rebalancer is non-nil when Opts.Rebalance was set; after a run its
	// Moves() record the cell migrations executed.
	Rebalancer *shard.Rebalancer

	byAP   map[string]*ShardedCell
	edges  map[[2]int]*shard.Edge  // (from cell, to cell) -> cut edge
	home   map[string]*ShardedCell // station -> home cell
	where  map[string]*ShardedCell // station -> cell currently serving it
	visits map[visitKey]*netem.Visit
}

// visitKey names a station's visits to one foreign cell. Repeat visits
// share one count: a flow's packets in that cell then count toward one
// visit, so an AP there needs at most one hold per flow.
type visitKey struct {
	station string
	cell    int
}

// BuildSharded decomposes the Spec into per-AP cells, groups them onto
// shards with partition, wires the cut edges every declared roam needs,
// and registers the roams as barrier actions. It returns an error when the
// Spec needs cross-cell edges but the cut delay grants no lookahead, or
// carries an observability bundle (an obs.Obs is single-threaded and cannot
// be shared by cells on different shards); structural mistakes (unknown APs
// or stations, missing traces) panic exactly like Build.
func BuildSharded(sp Spec, opt ShardedOptions) (*ShardedPath, error) {
	if sp.Obs != nil {
		return nil, fmt.Errorf("scenario: BuildSharded does not support Spec.Obs: one bundle cannot be shared by cells on different shards")
	}
	sp = sp.normalized()
	n := len(sp.APs)

	cellOfAP := make(map[string]int, n)
	for i := range sp.APs {
		cellOfAP[sp.APs[i].Name] = i
	}

	// Home every station — the implicit primary lives in cell 0 — and
	// every flow with its station's cell.
	cellOfSta := map[string]int{DefaultStation: 0}
	cellStations := make([][]StationSpec, n)
	for _, ss := range sp.Stations {
		if ss.Name == "" {
			panic("scenario: StationSpec needs a Name")
		}
		ci := 0
		if ss.AP != "" {
			c, ok := cellOfAP[ss.AP]
			if !ok {
				panic(fmt.Sprintf("scenario: unknown AP %q", ss.AP))
			}
			ci = c
		}
		if _, dup := cellOfSta[ss.Name]; dup && ss.Name != DefaultStation {
			panic(fmt.Sprintf("scenario: duplicate station %q", ss.Name))
		}
		cellOfSta[ss.Name] = ci
		cellStations[ci] = append(cellStations[ci], ss)
	}
	cellFlows := make([][]FlowSpec, n)
	for _, fs := range sp.Flows {
		sta := fs.Station
		if sta == "" {
			sta = DefaultStation
		}
		ci, ok := cellOfSta[sta]
		if !ok {
			panic(fmt.Sprintf("scenario: unknown station %q", fs.Station))
		}
		cellFlows[ci] = append(cellFlows[ci], fs)
	}

	// Group cells onto shards and build each cell on its own simulator.
	// Cells are built in index order regardless of grouping; per-cell
	// event order is a function of the cell alone, so the grouping stays
	// invisible in every per-cell output.
	k := opt.Shards
	if k <= 0 || k > n {
		k = n // one shard per cell, as ShardedOptions.Shards documents
	}
	assign := partition(n, k)
	cluster := shard.NewCluster()
	shards := make([]*shard.Shard, k)
	for gi := range shards {
		shards[gi] = cluster.AddShard(fmt.Sprintf("shard%d", gi))
	}
	spd := &ShardedPath{
		Spec: sp, Opts: opt, Cluster: cluster,
		byAP:   make(map[string]*ShardedCell, n),
		edges:  make(map[[2]int]*shard.Edge),
		home:   make(map[string]*ShardedCell),
		where:  make(map[string]*ShardedCell),
		visits: make(map[visitKey]*netem.Visit),
	}
	for i := 0; i < n; i++ {
		label := ""
		if n > 1 {
			label = sp.APs[i].Name
		}
		path := Spec{
			Seed: sp.Seed, WANRTT: sp.WANRTT,
			APs:      []APSpec{sp.APs[i]},
			Stations: cellStations[i],
			Flows:    cellFlows[i],
		}.build(i, label)
		cell := &ShardedCell{
			Index: i, Label: label, Path: path,
			Cell: cluster.AddCell(sp.APs[i].Name, path.S, shards[assign[i]]),
		}
		spd.Cells = append(spd.Cells, cell)
		spd.byAP[sp.APs[i].Name] = cell
	}
	if opt.Rebalance {
		spd.Rebalancer = shard.NewRebalancer(cluster, opt.RebalanceConfig)
	}
	for sta, ci := range cellOfSta {
		spd.home[sta] = spd.Cells[ci]
		spd.where[sta] = spd.Cells[ci]
	}

	// Create the cut edges the declared roams will traverse — both
	// directions of every (home, target) pair — in sorted order, so edge
	// identity and the cluster's drain order are functions of the Spec,
	// never of the grouping. They start disarmed: the roams arm them.
	pairs := make(map[[2]int]bool)
	for _, h := range sp.Handovers {
		sta := h.Station
		if sta == "" {
			sta = DefaultStation
		}
		hc, ok := cellOfSta[sta]
		if !ok {
			panic(fmt.Sprintf("scenario: handover of unknown station %q", h.Station))
		}
		tc, ok := cellOfAP[h.To]
		if !ok {
			panic(fmt.Sprintf("scenario: handover to unknown AP %q", h.To))
		}
		if hc != tc {
			pairs[[2]int{hc, tc}] = true
			pairs[[2]int{tc, hc}] = true
		}
	}
	sorted := make([][2]int, 0, len(pairs))
	for pr := range pairs {
		sorted = append(sorted, pr)
	}
	sort.Slice(sorted, func(i, j int) bool {
		return sorted[i][0] < sorted[j][0] ||
			(sorted[i][0] == sorted[j][0] && sorted[i][1] < sorted[j][1])
	})
	for _, pr := range sorted {
		name := fmt.Sprintf("cut.%s->%s", sp.APs[pr[0]].Name, sp.APs[pr[1]].Name)
		e, err := cluster.Connect(name, spd.Cells[pr[0]].Cell, spd.Cells[pr[1]].Cell, opt.CutDelay)
		if err != nil {
			return nil, err
		}
		spd.edges[pr] = e
	}

	// Roams are barrier actions: they run single-threaded between windows
	// at their exact virtual time, which is what lets them touch two
	// cells' state (routers, demux registrations, Zhuge flow state) at
	// once without racing any shard.
	for _, h := range sp.Handovers {
		h := h
		cluster.At(h.At, func() { spd.handover(h) })
	}
	return spd, nil
}

// Cell returns the cell homed on the named AP.
func (spd *ShardedPath) Cell(ap string) *ShardedCell {
	c := spd.byAP[ap]
	if c == nil {
		panic(fmt.Sprintf("scenario: unknown AP %q", ap))
	}
	return c
}

// Run advances the whole topology to virtual time d on a pool of workers.
// workers <= 1 is the sequential reference; any value produces the same
// outputs. When the build enabled the dynamic rebalancer, Run drives it
// from an internal events-only profiler — fully deterministic, so the
// byte-identity contract extends to rebalanced runs.
func (spd *ShardedPath) Run(d time.Duration, workers int) {
	if spd.Rebalancer != nil {
		p := spd.NewProfiler()
		p.AttachRebalancer(spd.Rebalancer)
		spd.Cluster.RunProfiled(d, workers, p)
		return
	}
	spd.Cluster.Run(d, workers)
}

// handover executes one roam at the barrier. The station keeps its home
// association and identity; only its flows' datapath moves:
//
//   - To a foreign cell: downlink re-routes home WAN -> cut edge ->
//     visited AP's datapath entry (so the visited queue, radio and
//     solution serve it), deliveries and uplink feedback trombone back to
//     the home demuxes where the flows' receivers and metrics live.
//   - Back home: the home routers are restored. Forwarders left behind in
//     a previously visited cell only ever see that cell's in-flight
//     stragglers, which still drain home — nothing is lost by a roam.
//
// A roam out arms both cut edges of the (home, visited) pair. Leaving the
// visited cell disarms the outbound edge at once — the home routers no
// longer point at it, and this barrier drained its ring — and the return
// edge once the visit has drained: once nothing the home cell sent into
// the visited cell, and nothing built from it, is still alive there.
//
// Zhuge per-flow state migrates (or resets) between the serving APs per
// the declared policy, and the home path's routers are re-pointed, through
// the same moveFlowState and reroute the single-simulator Handover uses;
// the trombone only hands reroute cut-edge senders and adds the two demux
// forwards. Why the two roams stay two: DESIGN.md "Two roams, one boundary
// each".
//
// It rewires two cells and the path's own roam state at once, so it is
// barrier-only: invoked from an event on some cell's simulator it panics
// instead of racing the other cell's executor.
func (spd *ShardedPath) handover(h HandoverSpec) {
	spd.Cluster.BarrierOnly("ShardedPath.handover")
	sta := h.Station
	if sta == "" {
		sta = DefaultStation
	}
	home, cur, to := spd.home[sta], spd.where[sta], spd.byAP[h.To]
	if to == cur {
		return
	}
	fromPA, toPA := cur.Path.APs[0], to.Path.APs[0]
	st := home.Path.Station(sta)
	moveFlowState(st, fromPA, toPA, h.Policy)
	if cur != home {
		spd.edges[[2]int{home.Index, cur.Index}].Disarm()
		spd.edges[[2]int{cur.Index, home.Index}].DisarmWhenDrained(spd.visits[visitKey{sta, cur.Index}])
	}
	if to == home {
		home.Path.reroute(st, st.DownIn(), toPA.Uplink)
	} else {
		out := spd.edges[[2]int{home.Index, to.Index}]
		back := spd.edges[[2]int{to.Index, home.Index}]
		out.Arm()
		back.Arm()
		vk := visitKey{sta, to.Index}
		v := spd.visits[vk]
		if v == nil {
			v = new(netem.Visit)
			spd.visits[vk] = v
		}
		home.Path.reroute(st, edgeSender{out, toPA.DownIn, v}, edgeSender{out, toPA.Uplink, v})
		for _, flow := range st.flows {
			to.Path.clientDemux.Register(flow, demuxForward{back, home.Path.clientDemux})
			to.Path.serverDemux.Register(flow, demuxForward{back, home.Path.serverDemux})
		}
	}
	spd.where[sta] = to
}

// edgeSender adapts a cut edge to netem.Receiver so routers can point
// flows at it: packets handed here leave the cell and surface at dst on
// the destination cell after the edge delay. Ownership passes to the edge.
// Each packet enters the station's visit to the destination cell, which
// keeps the return edge armed until the packet dies there.
type edgeSender struct {
	e     *shard.Edge
	dst   netem.Receiver
	visit *netem.Visit
}

// Receive implements netem.Receiver.
func (es edgeSender) Receive(p *netem.Packet) {
	es.visit.Enter(p)
	es.e.Send(p, es.dst)
}

// demuxForward trombones a roamed flow's packets home from a visited
// cell's terminal demux. The demux releases every packet after delivery,
// so the forwarder must hand the edge a copy; the payload pointer moves to
// the copy (and is stripped from the original) so pooled payloads are
// released exactly once, at the home demux. The original keeps its visit
// tag and counts out when the demux releases it; the copy leaves the
// visited cell untagged.
type demuxForward struct {
	e    *shard.Edge
	home netem.Receiver
}

// Receive implements netem.Receiver.
func (f demuxForward) Receive(p *netem.Packet) {
	cp := netem.NewPacket()
	*cp = *p
	cp.SetVisit(nil)
	p.Payload = nil
	f.e.Send(cp, f.home)
}

// partition assigns n cells to k contiguous, balanced groups: assign[i] is
// the group of cell i, groups are numbered 0..k-1 in cell order, and group
// sizes differ by at most one. Contiguity is deliberate — neighbouring
// cells (adjacent APs, the likeliest handover partners) land on the same
// shard, so a balanced contiguous split minimises cut edges for the
// roaming patterns the scenarios generate without needing a general graph
// partitioner. k is clamped to [1, n].
//
// The assignment is a pure function of (n, k): the sharded determinism
// gate relies on the decomposition being identical for every worker count
// and across runs.
func partition(n, k int) []int {
	if n <= 0 {
		return nil
	}
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	assign := make([]int, n)
	for i := range assign {
		// Cell i goes to group floor(i*k/n): each group gets n/k cells,
		// the remainder spread one-per-group from the front.
		assign[i] = i * k / n
	}
	return assign
}
