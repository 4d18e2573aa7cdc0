package scenario

import (
	"fmt"
	"time"

	"github.com/zhuge-project/zhuge/internal/netem"
	"github.com/zhuge-project/zhuge/internal/queue"
	"github.com/zhuge-project/zhuge/internal/sim"
	"github.com/zhuge-project/zhuge/internal/wireless"
)

// Station is a wireless client's attachment point: an association with an
// AP, the downlink flows delivered to it, and optionally a dedicated
// queue+link at that AP. Handover re-associates the station — its
// dedicated link (if any) moves to the new AP's channel and its rate
// follows the new AP's trace; in-flight aggregates complete on the old
// reservation.
type Station struct {
	ap   *PathAP
	link *wireless.Link

	// flows are the station's downlink flows in registration order;
	// handover moves exactly these.
	flows []netem.FlowKey
}

// newStation attaches a named station to an AP. With ownQueue it gets a
// dedicated queue + radio link there (how 802.11 per-STA queues behave:
// competing traffic costs the primary flow airtime, not queue space),
// delivering into the same shared demux as the AP downlink; without it the
// station's flows share the AP's main downlink queue.
func (p *Path) newStation(name string, ap *PathAP, ownQueue bool) *Station {
	st := &Station{ap: ap}
	if ownQueue {
		label := p.labelPrefix + name
		st.link = wireless.NewLink(p.S, wireless.Config{
			Channel: ap.Channel,
			// Delegate to the current association so the PHY rate follows
			// the station across handovers.
			Rate:        func(at sim.Time) float64 { return st.ap.Spec.Trace.RateAt(at) },
			Interferers: ap.Spec.Interferers,
			Obs:         p.Spec.Obs,
			ObsLabel:    label,
		}, queue.NewFIFO(0), p.clientDemux, p.S.NewRand(label))
	}
	p.stations[name] = st
	return st
}

// AP returns the current association.
func (st *Station) AP() *PathAP { return st.ap }

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

// ScheduleHandover schedules a station roam at virtual time `at`. The
// flow set moved is whatever the station carries when the roam fires, so
// flows may still be attached after scheduling.
func (p *Path) ScheduleHandover(station, toAP string, at time.Duration, policy HandoverPolicy) {
	st := p.station(station)
	to := p.apByName(toAP)
	p.S.Schedule(at, func() { p.Handover(st, to, policy) })
}

// Handover re-associates a station with another AP and re-routes its
// flows there, immediately:
//
//   - Downlink packets of the station's flows are routed to the new AP's
//     datapath entry (or the station's own queue, now on the new AP's
//     channel). Packets already queued or in the air at the old AP drain
//     there and still deliver — the shared demux serves every AP — so
//     nothing is lost or double-freed by the switch.
//   - Uplink packets from the station enter the new AP's radio.
//   - Per-flow Zhuge state moves per the policy: HandoverMigrate exports
//     it from the old AP and imports it at the new one; HandoverReset
//     discards it and starts the flow fresh on the new AP. Either way the
//     old AP stops optimizing the flow, so stragglers arriving there
//     forward untouched.
//
// APs running FastAck are not supported as handover endpoints: FastAck
// taps the shared delivery demux, and a flow optimized on two APs' taps
// would synthesize duplicate ACKs. ABC needs no per-flow state; its APs
// hand over freely.
func (p *Path) Handover(st *Station, to *PathAP, policy HandoverPolicy) {
	from := st.ap
	if from == to {
		return
	}
	moveFlowState(st, from, to, policy)
	// Re-associate: the dedicated link (if any) switches to the new AP's
	// channel and, through the rate delegation, its trace.
	st.ap = to
	if st.link != nil {
		st.link.SetChannel(to.Channel)
	}
	p.reroute(st, st.DownIn(), to.Uplink)
}

// reroute points the station's flows at new datapath entries on this
// path's routers: downlink packets at down, uplink packets at up. It is
// the step both roams share — the in-simulator Handover passes the new
// AP's entries, the cross-cell trombone passes cut-edge senders.
func (p *Path) reroute(st *Station, down, up netem.Receiver) {
	for _, flow := range st.flows {
		p.wanRouter.Route(flow, down)
		p.clientOut.Route(flow.Reverse(), up)
	}
}

// moveFlowState applies the handover policy to the AP-side state of every
// flow the station carries. It is deliberately a free function over PathAP
// bundles: a sharded run migrates state between APs that live in different
// cells (and different Paths), not just within one.
func moveFlowState(st *Station, from, to *PathAP, policy HandoverPolicy) {
	if from.FastAck != nil || to.FastAck != nil {
		panic("scenario: handover between FastAck APs is not supported")
	}
	if from.Zhuge == nil {
		return // nothing to move; the flows were never optimized here
	}
	for _, flow := range st.flows {
		switch policy {
		case HandoverMigrate:
			if h, ok := from.Zhuge.ExportFlow(flow); ok && to.Zhuge != nil {
				to.Zhuge.ImportFlow(flow, h)
			}
		case HandoverReset:
			if mode, ok := from.Zhuge.DropFlow(flow); ok && to.Zhuge != nil {
				to.Zhuge.Optimize(flow, mode)
			}
		default:
			panic(fmt.Sprintf("scenario: unknown handover policy %d", policy))
		}
	}
}
