package topo

import (
	"fmt"

	"github.com/zhuge-project/zhuge/internal/netem"
	"github.com/zhuge-project/zhuge/internal/obs"
	"github.com/zhuge-project/zhuge/internal/queue"
	"github.com/zhuge-project/zhuge/internal/sim"
	"github.com/zhuge-project/zhuge/internal/wireless"
)

// NewQdisc builds the AP queuing discipline by name: "" or "fifo",
// "codel", "fqcodel". Unknown names are a build-time configuration bug
// and panic.
func NewQdisc(kind string, queueCap int) queue.Qdisc {
	switch kind {
	case "", "fifo":
		return queue.NewFIFO(queueCap)
	case "codel":
		return queue.NewCoDel(queueCap)
	case "fqcodel":
		return queue.NewFQCoDel(0, queueCap)
	default:
		panic(fmt.Sprintf("topo: unknown qdisc %q", kind))
	}
}

// APConfig configures an access-point assembly.
type APConfig struct {
	Name string

	// Channel is the radio channel the AP's downlink (and its stations)
	// contend on. Distinct APs on distinct channels do not share airtime.
	Channel *wireless.Channel
	// Rate is the downlink PHY rate over time (trace-driven).
	Rate func(at sim.Time) float64
	// MCSScale optionally scales the PHY rate (testbed "mcs" scenario).
	MCSScale func(at sim.Time) float64
	// Interferers is the number of foreign stations contending on the
	// channel.
	Interferers int

	Qdisc    string
	QueueCap int

	Obs *obs.Obs
	// DownLabel and UpLabel name the RNG streams and observability
	// prefixes of the two radio links. They default to "downlink" and
	// "uplink" — the labels the original single-AP wiring used — so a
	// topology's primary AP reproduces it byte-identically; additional
	// APs must pass distinct labels.
	DownLabel string
	UpLabel   string
}

func (c APConfig) withDefaults() APConfig {
	if c.DownLabel == "" {
		c.DownLabel = "downlink"
	}
	if c.UpLabel == "" {
		c.UpLabel = "uplink"
	}
	return c
}

// Attachment installs a solution (Zhuge, FastAck, ABC, ...) onto an AP
// assembly. It is given the assembled AP and the receiver toward the wired
// WAN and returns the two datapath entries the solution interposes on:
// downIn receives WAN-side packets headed for the wireless queue, upIn
// receives client packets coming off the uplink radio. A pass-through
// solution returns (ap.Downlink, wanOut).
//
// The interface lives here so topo needs no dependency on the packages
// implementing solutions; scenario provides the implementations.
type Attachment interface {
	Attach(a *AP, wanOut netem.Receiver) (downIn, upIn netem.Receiver)
}

// AP is a reusable access-point assembly: a queuing discipline feeding a
// trace-driven wireless downlink, a contended wireless uplink, and an
// optional solution attachment interposed between them and the wired
// network. Its delivery side is a shared Demux so taps observe every air
// delivery regardless of which AP or station link carried it.
type AP struct {
	Cfg APConfig

	Qdisc    queue.Qdisc
	Downlink *wireless.Link
	Uplink   *wireless.Link
	Delivery *Demux

	// DownIn is the WAN-side datapath entry (through the attachment, if
	// any). Set by Attach; nil until then.
	DownIn netem.Receiver
}

// NewAP assembles the queue and both radio links on s. The downlink
// delivers into the shared demux; the uplink's destination is fixed later
// by Attach. Uplink is the entry for client transmissions.
func NewAP(s *sim.Simulator, cfg APConfig, delivery *Demux) *AP {
	cfg = cfg.withDefaults()
	q := NewQdisc(cfg.Qdisc, cfg.QueueCap)
	a := &AP{Cfg: cfg, Qdisc: q, Delivery: delivery}
	a.Downlink = wireless.NewLink(s, wireless.Config{
		Channel:     cfg.Channel,
		Rate:        cfg.Rate,
		MCSScale:    cfg.MCSScale,
		Interferers: cfg.Interferers,
		Obs:         cfg.Obs,
		ObsLabel:    cfg.DownLabel,
	}, q, delivery, s.NewRand(cfg.DownLabel))
	// Uplink: clients contend to reach the AP. Feedback traffic is light,
	// so a small FIFO suffices and its queue rarely builds. No channel:
	// uplink contention is modeled per-AP, not against the downlink.
	a.Uplink = wireless.NewLink(s, wireless.Config{
		Rate:        cfg.Rate,
		Interferers: cfg.Interferers,
		Obs:         cfg.Obs,
		ObsLabel:    cfg.UpLabel,
	}, queue.NewFIFO(0), nil, s.NewRand(cfg.UpLabel))
	return a
}

// Attach wires the AP into the network: wanOut is the next hop toward the
// servers. The attachment (nil for a pass-through AP) interposes on both
// directions; Attach may run once per AP.
func (a *AP) Attach(att Attachment, wanOut netem.Receiver) {
	if a.DownIn != nil {
		panic(fmt.Sprintf("topo: AP %q attached twice", a.Cfg.Name))
	}
	downIn, upIn := netem.Receiver(a.Downlink), wanOut
	if att != nil {
		downIn, upIn = att.Attach(a, wanOut)
	}
	a.DownIn = downIn
	a.Uplink.SetDst(upIn)
}

// StationConfig configures a wireless station attached to an AP.
type StationConfig struct {
	Name string

	// OwnQueue gives the station a dedicated queue + radio link at the AP
	// (how 802.11 per-STA queues behave: competing traffic costs the
	// primary flow airtime, not queue space). Without it the station's
	// flows share the AP's main downlink queue.
	OwnQueue bool
	QueueCap int
	// Label names the dedicated link's RNG stream and obs prefix
	// (required with OwnQueue).
	Label string
	Obs   *obs.Obs
}

// Station is a wireless client's attachment point: an association with an
// AP, the downlink flows delivered to it, and optionally a dedicated
// queue+link at that AP. Handover re-associates the station — its
// dedicated link (if any) moves to the new AP's channel and its rate
// follows the new AP's trace; in-flight aggregates complete on the old
// reservation.
type Station struct {
	ap   *AP
	link *wireless.Link

	flows []netem.FlowKey
}

// NewStation attaches a station to an AP. Own-queue stations deliver into
// the same shared demux as the AP downlink.
func NewStation(s *sim.Simulator, cfg StationConfig, ap *AP, delivery *Demux) *Station {
	st := &Station{ap: ap}
	if cfg.OwnQueue {
		if cfg.Label == "" {
			panic(fmt.Sprintf("topo: station %q has OwnQueue but no Label", cfg.Name))
		}
		st.link = wireless.NewLink(s, wireless.Config{
			Channel: ap.Cfg.Channel,
			// Delegate to the current association so the PHY rate follows
			// the station across handovers.
			Rate:        func(at sim.Time) float64 { return st.ap.Cfg.Rate(at) },
			Interferers: ap.Cfg.Interferers,
			Obs:         cfg.Obs,
			ObsLabel:    cfg.Label,
		}, queue.NewFIFO(cfg.QueueCap), delivery, s.NewRand(cfg.Label))
	}
	return st
}

// AP returns the current association.
func (st *Station) AP() *AP { return st.ap }

// Link returns the dedicated radio link, or nil for shared-queue
// stations.
func (st *Station) Link() *wireless.Link { return st.link }

// DownIn returns where downlink packets for this station enter: the
// dedicated link, or the associated AP's datapath entry.
func (st *Station) DownIn() netem.Receiver {
	if st.link != nil {
		return st.link
	}
	return st.ap.DownIn
}

// AddFlow records a downlink flow as belonging to this station (handover
// moves exactly these flows).
func (st *Station) AddFlow(f netem.FlowKey) { st.flows = append(st.flows, f) }

// Flows lists the station's downlink flows in registration order.
func (st *Station) Flows() []netem.FlowKey { return st.flows }

// Associate re-points the station at another AP: the dedicated link (if
// any) switches to the new AP's channel and, through the rate delegation,
// its trace. Routing — which AP's queue the station's flows enter, where
// its uplink packets go — is the caller's to re-point; see
// scenario.Handover.
func (st *Station) Associate(ap *AP) {
	st.ap = ap
	if st.link != nil {
		st.link.SetChannel(ap.Cfg.Channel)
	}
}
