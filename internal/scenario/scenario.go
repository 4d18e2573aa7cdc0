// Package scenario assembles end-to-end topologies for experiments and
// examples: server(s) — WAN — access point(s) (optionally running Zhuge,
// ABC or FastAck) — wireless downlink — client(s), with the uplink
// returning over a contended wireless hop and each AP's Ethernet uplink.
// A PathAP is the whole access point — queue, both radio links, wired
// uplink and the one solution in front of them — and paths are wired
// directly from those and plain netem links, routers and demuxes,
// declaratively from a Spec (one or more APs, stations, scheduled
// handovers); NewPath is a one-AP shorthand over it.
// One FlowSpec declares a flow of any kind — RTP/GCC video calls, TCP and
// QUIC video streams, bulk-transfer competitors — on any station, and
// Path.AddFlow (behind Spec.Flows) builds it. Every measured flow yields
// one FlowMetrics record carrying both halves of the paper's metrics: the
// application's frame delay and frame rate (video.FrameStats) and the
// network RTT, rate and goodput series.
package scenario

import (
	"time"

	"github.com/zhuge-project/zhuge/internal/core"
	"github.com/zhuge-project/zhuge/internal/netem"
	"github.com/zhuge-project/zhuge/internal/obs"
	"github.com/zhuge-project/zhuge/internal/sim"
	"github.com/zhuge-project/zhuge/internal/trace"
	"github.com/zhuge-project/zhuge/internal/wireless"
)

// Solution selects the AP-side mechanism under test.
type Solution int

// AP solutions.
const (
	// SolutionNone is a plain AP (the FIFO/CoDel baselines).
	SolutionNone Solution = iota
	// SolutionZhuge runs the Fortune Teller + Feedback Updater.
	SolutionZhuge
	// SolutionFastAck counterfeits TCP ACKs at 802.11 delivery.
	SolutionFastAck
	// SolutionABC marks accelerate/brake and requires ABC senders.
	SolutionABC
)

func (s Solution) String() string {
	switch s {
	case SolutionNone:
		return "none"
	case SolutionZhuge:
		return "zhuge"
	case SolutionFastAck:
		return "fastack"
	case SolutionABC:
		return "abc"
	default:
		return "unknown"
	}
}

// Options is the shorthand for a one-AP path that benchmark/cells.go
// builds through NewPath: a seed, a trace, a solution and an optional
// observability bundle. Everything else a run varies is declared with a
// Spec, and Options goes once that caller builds a Spec too.
type Options struct {
	Seed     int64
	Trace    *trace.Trace // downlink available bandwidth
	Solution Solution

	// Obs optionally attaches the observability layer (tracer, metrics
	// registry, prediction-error accounter) to every component of the
	// path. Nil keeps the datapath on its zero-overhead fast path.
	Obs *obs.Obs
}

// Spec converts the single-AP options into their declarative form.
func (o Options) Spec() Spec {
	return Spec{
		Seed: o.Seed, Obs: o.Obs,
		APs: []APSpec{{Name: "ap0", Trace: o.Trace, Solution: o.Solution}},
	}
}

// Path is an assembled topology ready for flows.
type Path struct {
	S    *sim.Simulator
	Spec Spec

	// APs lists every access point of the path; AP is the first one's
	// Zhuge instance (nil under any other solution), kept for the benchmark
	// package, which reads it; everything else reads APs[0].Zhuge.
	APs []*PathAP
	AP  *core.AP

	// Flows holds the handles of the flows AddFlow built — Spec.Flows
	// first, in declaration order.
	Flows []*BuiltFlow

	clientDemux *netem.Demux
	serverDemux *netem.Demux
	wanDown     *netem.Link   // server -> AP WAN segment
	wanRouter   *netem.Router // behind wanDown: flow -> AP/station entry
	clientOut   *netem.Router // client uplink -> associated AP's radio

	stations    map[string]*Station
	defaultSta  *Station
	flowStation map[netem.FlowKey]*Station

	// cell and labelPrefix place the path inside a sharded decomposition
	// (see Spec.build); zero for a standalone build.
	cell        int
	labelPrefix string

	nextPort uint16
}

// NewPath assembles the single-AP topology o declares.
func NewPath(o Options) *Path {
	if o.Trace == nil {
		panic("scenario: Options.Trace is required")
	}
	return o.Spec().Build()
}

// NewFlowKey allocates a fresh downlink 5-tuple for a flow. Inside a
// sharded decomposition the cell index lands in the third IP octet, so no
// two cells can mint the same key (and per-flow RNG labels, which embed
// the key, stay cell-unique). Cell 0 — and every standalone build — keeps
// the classic addresses.
func (p *Path) NewFlowKey() netem.FlowKey {
	p.nextPort++
	off := uint32(p.cell) << 8
	return netem.FlowKey{
		SrcIP: 0x0a000001 + off, DstIP: 0xc0a80002 + off,
		SrcPort: p.nextPort, DstPort: p.nextPort, Proto: 17,
	}
}

// RegisterClient binds the client-side receiver for a downlink flow.
func (p *Path) RegisterClient(flow netem.FlowKey, r netem.Receiver) {
	p.clientDemux.Register(flow, r)
}

// RegisterServer binds the server-side receiver for a downlink flow (it
// receives the flow's uplink/feedback packets).
func (p *Path) RegisterServer(flow netem.FlowKey, r netem.Receiver) {
	p.serverDemux.Register(flow, r)
}

// AddDeliveryTap registers a function invoked when any downlink packet is
// delivered over the air to its client, on any AP or station link.
func (p *Path) AddDeliveryTap(tap func(p *netem.Packet)) {
	p.clientDemux.AddTap(tap)
}

// bindFlow attaches a flow to the station carrying it and routes both
// directions there. Flows on the primary station ride the routers'
// default routes.
func (p *Path) bindFlow(flow netem.FlowKey, st *Station) {
	st.flows = append(st.flows, flow)
	p.flowStation[flow] = st
	if st == p.defaultSta {
		return
	}
	p.wanRouter.Route(flow, st.DownIn())
	p.clientOut.Route(flow.Reverse(), st.AP().Uplink)
}

// ServerOut returns the receiver a server writes downlink packets into.
func (p *Path) ServerOut() netem.Receiver { return p.wanDown }

// WANDownLink exposes the server→AP WAN segment's wired link; the chaos
// latency-spike injector adds extra delay there.
func (p *Path) WANDownLink() *netem.Link { return p.wanDown }

// ClientOut returns the receiver a client writes uplink packets into.
func (p *Path) ClientOut() netem.Receiver { return p.clientOut }

// ReturnBase estimates the stable reverse-path latency through the first
// AP, used to turn one-way data delays into network RTTs for metrics: the
// AP's wired uplink (half the WAN RTT) plus the expected wait for an
// in-flight downlink TXOP — half the aggregate-airtime limit — before the
// uplink ACK's own transmission.
func (p *Path) ReturnBase() time.Duration {
	return p.apReturnBase(p.APs[0])
}

func (p *Path) apReturnBase(pa *PathAP) time.Duration {
	return pa.WANUp.Delay() + wireless.MaxAggAirtime/2
}

// FlowReturnBase is ReturnBase through the AP currently serving the
// flow's station — after a handover the return path crosses the new AP's
// wired uplink.
func (p *Path) FlowReturnBase(flow netem.FlowKey) time.Duration {
	if st, ok := p.flowStation[flow]; ok {
		return p.apReturnBase(st.AP())
	}
	return p.ReturnBase()
}

// Run executes the simulation up to virtual time d. It may be called
// repeatedly with increasing times to observe intermediate state.
func (p *Path) Run(d time.Duration) {
	p.S.RunUntil(d)
}
