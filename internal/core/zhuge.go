package core

import (
	"math/rand"

	"github.com/zhuge-project/zhuge/internal/netem"
	"github.com/zhuge-project/zhuge/internal/obs"
	"github.com/zhuge-project/zhuge/internal/sim"
	"github.com/zhuge-project/zhuge/internal/wireless"
)

// Mode selects the Feedback Updater mechanism for a flow (§5.1, Table 2).
type Mode int

// Feedback modes.
const (
	// ModeOutOfBand delays ACK packets (TCP, QUIC).
	ModeOutOfBand Mode = iota
	// ModeInBand rewrites TWCC feedback payloads (RTP/RTCP).
	ModeInBand
)

// String names the mode as it appears in metrics and prediction-error
// reports.
func (m Mode) String() string {
	switch m {
	case ModeOutOfBand:
		return "oob"
	case ModeInBand:
		return "inband"
	}
	return "unknown"
}

// AP is a Zhuge-enabled access point datapath: downlink data packets pass
// the Fortune Teller on their way into the wireless queue; uplink feedback
// packets of optimized flows pass the Feedback Updater on their way to the
// AP's (wired) uplink. Flows are selected by 5-tuple, mirroring the
// configurable IP list of the OpenWrt implementation (§7.1); everything
// else is forwarded untouched.
type AP struct {
	s  Clock
	wl *wireless.Link

	ft  *FortuneTeller
	oob *OOBUpdater
	ib  *InbandUpdater

	rtc map[netem.FlowKey]Mode // downlink data flow -> mode

	uplinkOut netem.Receiver

	o  *obs.Obs
	tr *obs.Tracer
	lt *obs.LoopTracker
}

// NewAP builds a Zhuge AP around an existing wireless downlink. uplinkOut
// is the next hop toward the servers (the AP's Ethernet uplink). rng drives
// the delta-distribution sampling of the out-of-band updater.
func NewAP(s Clock, wl *wireless.Link, uplinkOut netem.Receiver, rng *rand.Rand, ftCfg FortuneTellerConfig) *AP {
	ft := NewFortuneTeller(wl.Queue(), ftCfg)
	wl.AddObserver(ft)
	ap := &AP{
		s:         s,
		wl:        wl,
		ft:        ft,
		oob:       NewOOBUpdater(s, uplinkOut, rng, ftCfg.Window),
		ib:        NewInbandUpdater(s, uplinkOut, ftCfg.Window),
		rtc:       make(map[netem.FlowKey]Mode),
		uplinkOut: uplinkOut,
	}
	// The AP observes enqueue outcomes through the Fortune Teller's hook
	// (the datapath's single arrival-side observation point): in-band
	// fortunes are only recorded for packets the queue accepted — a packet
	// dropped at the AP must show up as lost in the constructed feedback,
	// not as received with a predicted arrival.
	ft.SetEnqueueHook(ap.onEnqueue)
	return ap
}

func (ap *AP) onEnqueue(now sim.Time, p *netem.Packet, accepted bool) {
	if !accepted || p.Kind != netem.KindData {
		return
	}
	if mode, ok := ap.rtc[p.Flow]; ok && mode == ModeInBand && p.APArrival == now {
		ap.ib.OnDataPacket(now, p.Flow, p, Prediction{Total: p.Predicted})
	}
}

// SetObs attaches the observability layer to the AP and every component
// under it (Fortune Teller and both Feedback Updaters). Call before traffic
// starts; a nil argument is a no-op.
func (ap *AP) SetObs(o *obs.Obs) {
	if o == nil {
		return
	}
	ap.o = o
	ap.tr = o.Trace()
	ap.lt = o.ControlLoop()
	ap.ft.SetObs(o)
	ap.oob.SetObs(o)
	ap.ib.SetObs(o)
	// Flows already optimized get their mode label retroactively.
	for flow, mode := range ap.rtc {
		o.Errs().SetMode(flow, mode.String())
	}
}

// FortuneTeller exposes the AP's estimator (experiments, Figure 19).
func (ap *AP) FortuneTeller() *FortuneTeller { return ap.ft }

// OOB exposes the out-of-band updater (ablation experiments).
func (ap *AP) OOB() *OOBUpdater { return ap.oob }

// Inband exposes the in-band updater.
func (ap *AP) Inband() *InbandUpdater { return ap.ib }

// Optimize registers a downlink data flow for Zhuge treatment.
func (ap *AP) Optimize(downlink netem.FlowKey, mode Mode) {
	ap.rtc[downlink] = mode
	if ap.o != nil {
		ap.o.Errs().SetMode(downlink, mode.String())
	}
}

// DownlinkIn returns the receiver for packets arriving from the WAN on
// their way to wireless clients.
func (ap *AP) DownlinkIn() netem.Receiver { return netem.ReceiverFunc(ap.receiveDownlink) }

// UplinkIn returns the receiver for packets arriving from wireless clients
// on their way to the WAN.
func (ap *AP) UplinkIn() netem.Receiver { return netem.ReceiverFunc(ap.receiveUplink) }

func (ap *AP) receiveDownlink(p *netem.Packet) {
	mode, optimized := ap.rtc[p.Flow]
	if optimized && p.Kind == netem.KindData {
		now := ap.s.Now()
		if ap.tr != nil {
			ap.tr.Record(obs.Event{At: now, Type: obs.EvArrive, Flow: p.Flow, Seq: p.Seq, Size: p.Size})
		}
		pred := ap.ft.Predict(now, p.Flow)
		p.APArrival = now
		p.Predicted = pred.Total
		// Control-loop decomposition: this is the moment the AP observes the
		// flow — every later loop segment is measured from here.
		if ap.lt != nil {
			ap.lt.OnObserve(now, p.Flow)
		}
		if mode == ModeOutOfBand {
			ap.oob.OnDataPacket(now, p.Flow, pred)
		}
		// In-band fortunes are recorded by the enqueue observer, which
		// knows whether the queue accepted the packet.
	}
	ap.wl.Receive(p)
}

func (ap *AP) receiveUplink(p *netem.Packet) {
	downlink := p.Flow.Reverse()
	mode, optimized := ap.rtc[downlink]
	if optimized {
		switch {
		case mode == ModeOutOfBand && p.Kind == netem.KindAck:
			ap.oob.OnAckPacket(ap.s.Now(), downlink, p)
			return
		case mode == ModeInBand && p.Kind == netem.KindFeedback:
			ap.ib.OnFeedbackPacket(ap.s.Now(), p)
			return
		}
	}
	ap.uplinkOut.Receive(p)
}

// Stop halts the AP's periodic work (end of experiment).
func (ap *AP) Stop() { ap.ib.Stop() }
