package scenario

import (
	"fmt"
	"time"

	"github.com/zhuge-project/zhuge/internal/baseline"
	"github.com/zhuge-project/zhuge/internal/core"
	"github.com/zhuge-project/zhuge/internal/netem"
	"github.com/zhuge-project/zhuge/internal/obs"
	"github.com/zhuge-project/zhuge/internal/sim"
	"github.com/zhuge-project/zhuge/internal/topo"
	"github.com/zhuge-project/zhuge/internal/trace"
	"github.com/zhuge-project/zhuge/internal/wireless"
)

// APSpec declares one access point of a topology. Each AP gets its own
// radio channel (separate-channel deployment: APs do not share airtime),
// its own Ethernet uplink to the servers, and — when Solution says so —
// its own Zhuge/FastAck/ABC instance.
type APSpec struct {
	Name string // default "ap<index>"

	Trace       *trace.Trace // downlink available bandwidth (required)
	Qdisc       string       // "fifo" (default), "codel", "fqcodel"
	QueueCap    int          // bytes; default queue.DefaultFIFOLimit
	Interferers int          // foreign stations contending on this AP's channel

	Solution Solution
	FTConfig core.FortuneTellerConfig
	OOB      core.OOBOptions

	// MCSScale optionally scales this AP's downlink PHY rate over time.
	MCSScale func(at sim.Time) float64
}

// StationSpec declares a wireless station: which AP it starts on and
// whether it owns a per-station queue there. The builder always creates
// an implicit primary station (DefaultStation) on the first AP; specs
// here add more.
type StationSpec struct {
	Name string // required, unique
	AP   string // starting AP name; default the first AP

	// OwnQueue gives the station a dedicated queue + radio link at its
	// AP. Without it the station's flows share the AP's main queue.
	OwnQueue bool
	QueueCap int // with OwnQueue; default queue.DefaultFIFOLimit
}

// FlowSpec declares one traffic flow of a scenario.
type FlowSpec struct {
	Kind    string // "rtp", "tcp", "quic", "bulk"
	Station string // station carrying the flow; default DefaultStation

	CCA     string        // rate controller (kind-specific default)
	StartAt time.Duration // traffic start
	Period  time.Duration // bulk only: on/off alternation period

	// GapLoss (rtp only) enables the sender's feedback-hole loss
	// inference — see RTPFlowConfig.GapLoss. Scenarios with roams or air
	// loss need it so discarded fortunes register as losses.
	GapLoss bool

	// Unoptimized keeps the flow outside the AP solution even when one
	// runs (the external-fairness experiments).
	Unoptimized bool
}

// HandoverPolicy selects what happens to a flow's AP-side Zhuge state
// when its station roams to another AP.
type HandoverPolicy int

// Handover policies.
const (
	// HandoverReset discards per-flow updater state at the old AP and
	// starts fresh at the new one: unflushed in-band fortunes appear to
	// the sender as a feedback gap, and the out-of-band delta/token
	// history restarts empty.
	HandoverReset HandoverPolicy = iota
	// HandoverMigrate exports the per-flow updater state from the old AP
	// and imports it at the new one, keeping the feedback stream
	// continuous across the roam.
	HandoverMigrate
)

// String names the policy as experiment tables print it.
func (hp HandoverPolicy) String() string {
	if hp == HandoverMigrate {
		return "migrate"
	}
	return "reset"
}

// HandoverSpec schedules a station roam at a virtual time.
type HandoverSpec struct {
	Station string
	To      string // target AP name
	At      time.Duration
	Policy  HandoverPolicy
}

// Spec declares a complete scenario: APs, the stations attached to them,
// the flows they carry, and any scheduled roams. Build assembles it into
// a runnable Path. A single-AP Spec reproduces the classic NewPath wiring
// byte-identically.
type Spec struct {
	Seed   int64
	WANRTT time.Duration // server<->AP round trip; default APs[0].Trace.BaseRTT

	// Obs optionally attaches the observability layer to every component.
	// Nil keeps the datapath on its zero-overhead fast path.
	Obs *obs.Obs

	// Sim optionally supplies the simulator to build on: sharded runs
	// place several cells onto one shard-local clock. Nil creates a fresh
	// simulator from Seed — the classic single-run behaviour.
	Sim *sim.Simulator

	// Cell and CellLabel place this Spec inside a sharded decomposition
	// (see BuildSharded). Cell offsets the flow 5-tuples so every cell
	// allocates disjoint keys; a non-empty CellLabel makes all RNG and
	// observability labels cell-unique, including the first AP's (which
	// otherwise keeps the bare single-AP labels). Both must be zero for a
	// standalone build, keeping the classic wiring byte-identical.
	Cell      int
	CellLabel string

	APs       []APSpec
	Stations  []StationSpec
	Flows     []FlowSpec
	Handovers []HandoverSpec
}

// DefaultStation is the name of the implicit primary station every built
// path has on its first AP.
const DefaultStation = "sta0"

// PathAP bundles one access point of a built path: its declaration, the
// radio assembly, the AP's wired uplink, and whichever solution instance
// runs on it.
type PathAP struct {
	Spec  APSpec
	Topo  *topo.AP
	WANUp *netem.Link

	Zhuge   *core.AP
	FastAck *baseline.FastAck
	ABC     *baseline.ABCRouter
}

// normalized checks the AP list and fills the defaults Build and
// BuildSharded share: every AP needs a trace, unnamed APs become
// "ap<index>", names must be unique, and WANRTT defaults to the first
// trace's base RTT. Mistakes are build-time bugs and panic.
func (sp Spec) normalized() Spec {
	if len(sp.APs) == 0 {
		panic("scenario: Spec needs at least one AP")
	}
	seen := make(map[string]bool, len(sp.APs))
	for i := range sp.APs {
		ap := &sp.APs[i]
		if ap.Trace == nil {
			panic(fmt.Sprintf("scenario: AP %d has no Trace", i))
		}
		if ap.Name == "" {
			ap.Name = fmt.Sprintf("ap%d", i)
		}
		if seen[ap.Name] {
			panic(fmt.Sprintf("scenario: duplicate AP %q", ap.Name))
		}
		seen[ap.Name] = true
	}
	if sp.WANRTT == 0 {
		sp.WANRTT = sp.APs[0].Trace.BaseRTT
	}
	return sp
}

// Build assembles the Spec into a runnable Path, wiring plain values in
// build order: demuxes, then each AP with its wired uplink and solution,
// then the WAN segment and the two routers, then stations and flows.
func (sp Spec) Build() *Path {
	sp = sp.normalized()
	s := sp.Sim
	if s == nil {
		s = sim.New(sp.Seed)
	}
	p := &Path{
		S:           s,
		Spec:        sp,
		stations:    make(map[string]*topo.Station),
		byTopo:      make(map[*topo.AP]*PathAP),
		flowStation: make(map[netem.FlowKey]*topo.Station),
		nextPort:    5000,
	}

	// Shared terminal demuxes: every AP and station link delivers into the
	// same client demux (so delivery taps observe all air deliveries), and
	// every AP's wired uplink ends at the same server demux.
	p.clientDemux = topo.NewDemux(false)
	p.serverDemux = topo.NewDemux(true)

	for i := range sp.APs {
		p.buildAP(i, sp.APs[i])
	}

	// Server -> AP WAN segment feeding the downlink router: flows bound to
	// secondary stations or secondary APs are routed there; everything
	// else takes the first AP's entry (through its solution, if any).
	first := p.APs[0].Topo
	p.wanRouter = netem.NewRouter(first.DownIn)
	p.wanDown = netem.NewLink(s, wanRate, sp.WANRTT/2, p.wanRouter)

	// Client -> AP uplink router: a station's uplink packets enter the
	// radio of the AP it is currently associated with.
	p.clientOut = netem.NewRouter(first.Uplink)

	// The implicit primary station shares the first AP's queue.
	p.defaultSta = topo.NewStation(s, topo.StationConfig{Name: DefaultStation}, first, p.clientDemux)
	p.stations[DefaultStation] = p.defaultSta

	for _, ss := range sp.Stations {
		p.buildStation(ss)
	}

	// Compatibility view: the first AP is the Path's classic single-AP
	// surface.
	pa := p.APs[0]
	p.Downlink = pa.Topo.Downlink
	p.Uplink = pa.Topo.Uplink
	p.Channel = pa.Topo.Cfg.Channel
	p.AP = pa.Zhuge
	p.FastAck = pa.FastAck
	p.ABC = pa.ABC
	p.Opts = Options{
		Seed: sp.Seed, Trace: pa.Spec.Trace, WANRTT: sp.WANRTT,
		Qdisc: pa.Spec.Qdisc, QueueCap: pa.Spec.QueueCap,
		Interferers: pa.Spec.Interferers, Solution: pa.Spec.Solution,
		FTConfig: pa.Spec.FTConfig, OOB: pa.Spec.OOB,
		MCSScale: pa.Spec.MCSScale, Obs: sp.Obs,
	}

	for _, fs := range sp.Flows {
		p.buildFlow(fs)
	}
	for _, h := range sp.Handovers {
		p.ScheduleHandover(h.Station, h.To, h.At, h.Policy)
	}
	return p
}

// wanRate is the wired-segment rate (bits/s): effectively uncongested.
const wanRate = 200e6

// buildAP assembles one AP: channel, radio links, wired uplink, solution.
func (p *Path) buildAP(i int, as APSpec) {
	// The first AP keeps the bare labels of the original single-AP wiring
	// so its RNG streams and observability prefixes are unchanged; later
	// APs get name-prefixed ones. Inside a sharded decomposition every AP
	// is labelled, and cell-prefixed, so no two cells' streams or metric
	// names can collide no matter how generically their APs are named.
	downLabel, upLabel, solLabel := "downlink", "uplink", "zhuge"
	if p.Spec.CellLabel != "" {
		prefix := p.Spec.CellLabel + "." + as.Name
		downLabel = prefix + ".downlink"
		upLabel = prefix + ".uplink"
		solLabel = prefix + ".zhuge"
	} else if i > 0 {
		downLabel = as.Name + ".downlink"
		upLabel = as.Name + ".uplink"
		solLabel = as.Name + ".zhuge"
	}
	// Multi-AP topologies can leave an AP idle while the traffic lives
	// elsewhere; the Fortune Teller must not read that idle period as a
	// channel-access interval when a station roams back (the single-AP
	// estimators never go idle, so the default stays off there and the
	// original scenarios remain bit-exact).
	// A sharded cell's AP can also idle while its stations roam elsewhere,
	// so the same cap applies whenever the Spec is part of a decomposition.
	if (len(p.Spec.APs) > 1 || p.Spec.CellLabel != "") && as.FTConfig.MaxDeqInterval == 0 {
		as.FTConfig.MaxDeqInterval = time.Second
	}
	tr := as.Trace
	a := topo.NewAP(p.S, topo.APConfig{
		Name:        as.Name,
		Channel:     wireless.NewChannel(),
		Rate:        func(at sim.Time) float64 { return tr.RateAt(at) },
		MCSScale:    as.MCSScale,
		Interferers: as.Interferers,
		Qdisc:       as.Qdisc,
		QueueCap:    as.QueueCap,
		Obs:         p.Spec.Obs,
		DownLabel:   downLabel,
		UpLabel:     upLabel,
	}, p.clientDemux)

	// The AP's Ethernet uplink ends at the shared server demux; the
	// solution interposes between it and the radio links.
	pa := &PathAP{Spec: as, Topo: a}
	pa.WANUp = netem.NewLink(p.S, wanRate, p.Spec.WANRTT/2, p.serverDemux)
	a.Attach(p.attachmentFor(pa, solLabel), pa.WANUp)

	p.APs = append(p.APs, pa)
	p.byTopo[a] = pa
}

// buildStation adds a declared station.
func (p *Path) buildStation(ss StationSpec) {
	if ss.Name == "" {
		panic("scenario: StationSpec needs a Name")
	}
	if _, dup := p.stations[ss.Name]; dup {
		panic(fmt.Sprintf("scenario: duplicate station %q", ss.Name))
	}
	ap := p.apByName(ss.AP)
	label := ss.Name
	if p.Spec.CellLabel != "" {
		label = p.Spec.CellLabel + "." + ss.Name
	}
	st := topo.NewStation(p.S, topo.StationConfig{
		Name:     ss.Name,
		OwnQueue: ss.OwnQueue,
		QueueCap: ss.QueueCap,
		Label:    label,
		Obs:      p.Spec.Obs,
	}, ap.Topo, p.clientDemux)
	p.stations[ss.Name] = st
}

// buildFlow attaches a declared flow and records its handle.
func (p *Path) buildFlow(fs FlowSpec) {
	bf := &BuiltFlow{Spec: fs}
	switch fs.Kind {
	case "rtp":
		bf.RTP = p.AddRTPFlow(RTPFlowConfig{
			CCA: fs.CCA, StartAt: fs.StartAt, GapLoss: fs.GapLoss,
			Station: fs.Station, Unoptimized: fs.Unoptimized,
		})
	case "tcp":
		bf.TCP = p.AddTCPVideoFlow(TCPFlowConfig{
			CCA: fs.CCA, StartAt: fs.StartAt,
			Station: fs.Station, Unoptimized: fs.Unoptimized,
		})
	case "quic":
		bf.QUIC = p.AddQUICVideoFlow(TCPFlowConfig{
			CCA: fs.CCA, StartAt: fs.StartAt,
			Station: fs.Station, Unoptimized: fs.Unoptimized,
		})
	case "bulk":
		bf.Bulk = p.AddBulkFlow(fs.StartAt, fs.Period)
	default:
		panic(fmt.Sprintf("scenario: unknown flow kind %q", fs.Kind))
	}
	p.Flows = append(p.Flows, bf)
}

// BuiltFlow is the handle of one Spec-declared flow; exactly one of the
// kind fields is set.
type BuiltFlow struct {
	Spec FlowSpec

	RTP  *RTPFlow
	TCP  *TCPVideoFlow
	QUIC *QUICVideoFlow
	Bulk *BulkFlow
}

// Metrics returns the flow's measurements whatever its kind; nil for
// bulk flows, which are competitors and carry none.
func (bf *BuiltFlow) Metrics() *FlowMetrics {
	switch {
	case bf.RTP != nil:
		return bf.RTP.Metrics
	case bf.TCP != nil:
		return bf.TCP.Metrics
	case bf.QUIC != nil:
		return bf.QUIC.Metrics
	}
	return nil
}

// apByName resolves an AP, "" meaning the first.
func (p *Path) apByName(name string) *PathAP {
	if name == "" {
		return p.APs[0]
	}
	for _, pa := range p.APs {
		if pa.Spec.Name == name {
			return pa
		}
	}
	panic(fmt.Sprintf("scenario: unknown AP %q", name))
}

// station resolves a station name, "" meaning the primary station.
func (p *Path) station(name string) *topo.Station {
	if name == "" {
		return p.defaultSta
	}
	st := p.stations[name]
	if st == nil {
		panic(fmt.Sprintf("scenario: unknown station %q", name))
	}
	return st
}

// Station exposes a built station by name (tests, handover scheduling).
func (p *Path) Station(name string) *topo.Station { return p.station(name) }
