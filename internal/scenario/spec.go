package scenario

import (
	"fmt"
	"time"

	"github.com/zhuge-project/zhuge/internal/baseline"
	"github.com/zhuge-project/zhuge/internal/core"
	"github.com/zhuge-project/zhuge/internal/netem"
	"github.com/zhuge-project/zhuge/internal/obs"
	"github.com/zhuge-project/zhuge/internal/queue"
	"github.com/zhuge-project/zhuge/internal/sim"
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
	Qdisc       string       // "fifo" (default), "codel", "fqcodel"; each holds queue.DefaultFIFOLimit bytes
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

	// OwnQueue gives the station a dedicated queue (a queue.DefaultFIFOLimit
	// FIFO) + radio link at its AP. Without it the station's flows share
	// the AP's main queue.
	OwnQueue bool
}

// FlowSpec declares one traffic flow of a scenario.
type FlowSpec struct {
	Kind    string // "rtp", "tcp", "quic", "bulk"
	Station string // station carrying the flow; default DefaultStation

	CCA     string        // rate/window controller; "" is the kind's default
	StartAt time.Duration // traffic start
	Period  time.Duration // bulk only: on/off alternation period

	// The video kinds' encoder: frame rate and the bounds its bitrate
	// adapts within (the floor is minRate).
	FPS       int     // default 25
	StartRate float64 // bits/s; default 1 Mbps
	MaxRate   float64 // default 6 Mbps (paper: ~2 Mbps average video)

	// GapLoss (rtp only) enables the sender's feedback-hole loss inference
	// (rtp.Sender.GapLoss). Scenarios with roams or air loss need it so
	// fortunes a handover discards register as losses.
	GapLoss bool

	// Unoptimized keeps the flow outside the AP solution even when one
	// runs (the external-fairness experiments, Figure 20 bar b).
	Unoptimized bool
}

func (fs FlowSpec) withDefaults() FlowSpec {
	if fs.FPS == 0 {
		fs.FPS = 25
	}
	if fs.StartRate == 0 {
		fs.StartRate = 1e6
	}
	if fs.MaxRate == 0 {
		fs.MaxRate = 6e6
	}
	return fs
}

// minRate is the floor, in bits/s, of every video flow's bitrate.
const minRate = 150e3

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

	APs       []APSpec
	Stations  []StationSpec
	Flows     []FlowSpec
	Handovers []HandoverSpec
}

// DefaultStation is the name of the implicit primary station every built
// path has on its first AP.
const DefaultStation = "sta0"

// PathAP is one access point of a built path: its declaration, its radio
// channel, the queue feeding the trace-driven wireless downlink, the
// contended wireless uplink, its wired uplink to the servers, and
// whichever one solution runs in front of them.
type PathAP struct {
	Spec APSpec

	Channel  *wireless.Channel
	Qdisc    queue.Qdisc
	Downlink *wireless.Link
	Uplink   *wireless.Link // entry for client transmissions
	WANUp    *netem.Link

	// DownIn is the WAN-side datapath entry: the downlink, or the
	// solution interposed in front of it.
	DownIn netem.Receiver

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
func (sp Spec) Build() *Path { return sp.build(0, "") }

// build is Build placed inside a sharded decomposition (see BuildSharded).
// cell offsets the flow 5-tuples so every cell allocates disjoint keys; a
// non-empty cellLabel makes all RNG and observability labels cell-unique,
// including the first AP's (which otherwise keeps the bare single-AP
// labels). A standalone build passes (0, ""), keeping the classic wiring
// byte-identical.
func (sp Spec) build(cell int, cellLabel string) *Path {
	sp = sp.normalized()
	s := sim.New(sp.Seed)
	p := &Path{
		S:           s,
		Spec:        sp,
		cell:        cell,
		stations:    make(map[string]*Station),
		flowStation: make(map[netem.FlowKey]*Station),
		nextPort:    5000,
	}
	if cellLabel != "" {
		p.labelPrefix = cellLabel + "."
	}

	// Shared terminal demuxes: every AP and station link delivers into the
	// same client demux (so delivery taps observe all air deliveries), and
	// every AP's wired uplink ends at the same server demux.
	p.clientDemux = netem.NewDemux(false)
	p.serverDemux = netem.NewDemux(true)

	for i := range sp.APs {
		p.buildAP(i, sp.APs[i])
	}

	// Server -> AP WAN segment feeding the downlink router: flows bound to
	// secondary stations or secondary APs are routed there; everything
	// else takes the first AP's entry (through its solution, if any).
	first := p.APs[0]
	p.wanRouter = netem.NewRouter(first.DownIn)
	p.wanDown = netem.NewLink(s, wanRate, sp.WANRTT/2, p.wanRouter)

	// Client -> AP uplink router: a station's uplink packets enter the
	// radio of the AP it is currently associated with.
	p.clientOut = netem.NewRouter(first.Uplink)

	// The implicit primary station shares the first AP's queue.
	p.defaultSta = p.newStation(DefaultStation, first, false)

	for _, ss := range sp.Stations {
		if ss.Name == "" {
			panic("scenario: StationSpec needs a Name")
		}
		if _, dup := p.stations[ss.Name]; dup {
			panic(fmt.Sprintf("scenario: duplicate station %q", ss.Name))
		}
		p.newStation(ss.Name, p.apByName(ss.AP), ss.OwnQueue)
	}

	p.AP = first.Zhuge

	for _, fs := range sp.Flows {
		p.AddFlow(fs)
	}
	for _, h := range sp.Handovers {
		p.ScheduleHandover(h.Station, h.To, h.At, h.Policy)
	}
	return p
}

// wanRate is the wired-segment rate (bits/s): effectively uncongested.
const wanRate = 200e6

// newQdisc builds the AP queuing discipline by name: "" or "fifo",
// "codel", "fqcodel", each bounded at queue.DefaultFIFOLimit. Unknown names
// are a build-time configuration bug and panic.
func newQdisc(kind string) queue.Qdisc {
	switch kind {
	case "", "fifo":
		return queue.NewFIFO(0)
	case "codel":
		return queue.NewCoDel(0)
	case "fqcodel":
		return queue.NewFQCoDel(0, 0)
	default:
		panic(fmt.Sprintf("scenario: unknown qdisc %q", kind))
	}
}

// buildAP assembles one AP: channel, queue, radio links, wired uplink and
// the solution in front of them.
func (p *Path) buildAP(i int, as APSpec) {
	// The first AP keeps the bare labels of the original single-AP wiring
	// ("downlink", "uplink", "zhuge") so its RNG streams and observability
	// prefixes are unchanged; later APs get name-prefixed ones. Inside a
	// sharded decomposition every AP is labelled, and cell-prefixed, so no
	// two cells' streams or metric names can collide no matter how
	// generically their APs are named.
	prefix := ""
	if p.labelPrefix != "" || i > 0 {
		prefix = p.labelPrefix + as.Name + "."
	}
	tr := as.Trace
	var cur trace.Cursor // read by this AP's two links, both in this cell
	rate := func(at sim.Time) float64 { return cur.RateAt(tr, at) }
	pa := &PathAP{
		Spec:    as,
		Channel: wireless.NewChannel(),
		Qdisc:   newQdisc(as.Qdisc),
	}
	pa.Downlink = wireless.NewLink(p.S, wireless.Config{
		Channel:     pa.Channel,
		Rate:        rate,
		MCSScale:    as.MCSScale,
		Interferers: as.Interferers,
		Obs:         p.Spec.Obs,
		ObsLabel:    prefix + "downlink",
	}, pa.Qdisc, p.clientDemux, p.S.NewRand(prefix+"downlink"))
	// Uplink: clients contend to reach the AP. Feedback traffic is light,
	// so a small FIFO suffices and its queue rarely builds. No channel:
	// uplink contention is modeled per-AP, not against the downlink.
	pa.Uplink = wireless.NewLink(p.S, wireless.Config{
		Rate:        rate,
		Interferers: as.Interferers,
		Obs:         p.Spec.Obs,
		ObsLabel:    prefix + "uplink",
	}, queue.NewFIFO(0), nil, p.S.NewRand(prefix+"uplink"))

	// The AP's Ethernet uplink ends at the shared server demux; the
	// solution interposes between it and the radio links, and a plain AP
	// passes both directions straight through.
	pa.WANUp = netem.NewLink(p.S, wanRate, p.Spec.WANRTT/2, p.serverDemux)
	pa.DownIn = pa.Downlink
	up := netem.Receiver(pa.WANUp)
	switch as.Solution {
	case SolutionZhuge:
		// Fortune Teller + Feedback Updater on both directions.
		pa.Zhuge = core.NewAP(p.S, pa.Qdisc, pa.Downlink, pa.WANUp, p.S.NewRand(prefix+"zhuge"), as.FTConfig)
		pa.Downlink.AddObserver(pa.Zhuge)
		pa.Zhuge.OOB().SetOptions(as.OOB)
		pa.Zhuge.SetObs(p.Spec.Obs)
		pa.DownIn, up = pa.Zhuge.DownlinkIn(), pa.Zhuge.UplinkIn()
	case SolutionFastAck:
		// Counterfeits TCP ACKs at 802.11 delivery: taps the shared
		// delivery demux and interposes only on the uplink.
		pa.FastAck = baseline.NewFastAck(p.S, pa.WANUp)
		pa.FastAck.Loop = p.Spec.Obs.ControlLoop()
		p.clientDemux.AddTap(pa.FastAck.OnDelivered)
		up = pa.FastAck.UplinkIn()
	case SolutionABC:
		// Marks accelerate/brake on the downlink queue; the datapath
		// itself passes through.
		pa.ABC = baseline.NewABCRouter(p.S, pa.Qdisc)
		pa.Downlink.AddObserver(pa.ABC)
	}
	pa.Uplink.SetDst(up)

	p.APs = append(p.APs, pa)
}

// AddFlow attaches a flow by kind name — the one factory behind Spec.Flows,
// also callable on a built path — records its handle in p.Flows and returns
// it. An unknown kind or CCA name is a configuration bug and panics.
func (p *Path) AddFlow(fs FlowSpec) *BuiltFlow {
	bf := &BuiltFlow{Spec: fs}
	switch fs.Kind {
	case "rtp":
		bf.RTP = p.AddRTPFlow(fs)
	case "tcp":
		bf.TCP = p.AddTCPVideoFlow(fs)
	case "quic":
		bf.QUIC = p.AddQUICVideoFlow(fs)
	case "bulk":
		bf.Bulk = p.addBulk(fs)
	default:
		panic(fmt.Sprintf("scenario: unknown flow kind %q", fs.Kind))
	}
	p.Flows = append(p.Flows, bf)
	return bf
}

// BuiltFlow is the handle of one AddFlow-built flow; exactly one of the
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
func (p *Path) station(name string) *Station {
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
func (p *Path) Station(name string) *Station { return p.station(name) }
