package baseline

import (
	"github.com/zhuge-project/zhuge/internal/netem"
	"github.com/zhuge-project/zhuge/internal/obs"
	"github.com/zhuge-project/zhuge/internal/sim"
	"github.com/zhuge-project/zhuge/internal/transport/tcpsim"
)

// FastAck implements the Bhartia et al. (IMC 2017) AP optimisation: when
// the 802.11 layer confirms delivery of a TCP data packet to the client,
// the AP immediately counterfeits the TCP ACK toward the sender instead of
// waiting for the client's real ACK to cross the wireless uplink. The
// client's own ACKs for optimised flows are absorbed to avoid duplicates.
//
// Unlike Zhuge, FastAck only removes the uplink-wireless segment (iii) of
// the control loop — the signal still waits through the downlink queue and
// transmission — which is why it trails Zhuge in Figures 12 and 15.
type FastAck struct {
	s         *sim.Simulator
	uplinkOut netem.Receiver

	flows map[netem.FlowKey]*fastAckFlow // downlink data flow -> state
	pkts  netem.Maker                    // the counterfeit ACKs

	// Loop, if set, records FastAck's control loop: the 802.11 delivery
	// confirmation is the AP's observation, and the counterfeit ACK leaves
	// in the same instant. FastAck removes the uplink-wireless segment but
	// — unlike Zhuge — still waits through downlink queueing before it
	// observes anything, which the recorded observe→feedback gap exposes.
	Loop *obs.LoopTracker

	synthesized int
	absorbed    int
}

type fastAckFlow struct {
	next uint64 // next expected byte at the client
	ooo  map[uint64]tcpsim.Segment
}

// NewFastAck builds a FastAck module writing synthesised ACKs to uplinkOut.
func NewFastAck(s *sim.Simulator, uplinkOut netem.Receiver) *FastAck {
	return &FastAck{s: s, uplinkOut: uplinkOut, flows: make(map[netem.FlowKey]*fastAckFlow)}
}

// Optimize enables FastAck for a downlink TCP flow.
func (f *FastAck) Optimize(downlink netem.FlowKey) {
	f.flows[downlink] = &fastAckFlow{ooo: make(map[uint64]tcpsim.Segment)}
}

// Synthesized returns the count of counterfeited ACKs.
func (f *FastAck) Synthesized() int { return f.synthesized }

// Absorbed returns the count of client ACKs suppressed.
func (f *FastAck) Absorbed() int { return f.absorbed }

// OnDelivered must be called when the wireless link confirms delivery of a
// downlink packet to the client (the 802.11 ACK instant): it advances the
// cumulative ACK state and counterfeits the TCP ACK.
func (f *FastAck) OnDelivered(p *netem.Packet) {
	st := f.flows[p.Flow]
	if st == nil || p.Kind != netem.KindData {
		return
	}
	seg, ok := tcpsim.SegmentOf(p)
	if !ok {
		return
	}
	if seg.Seq == st.next {
		st.next += uint64(seg.Len)
		for {
			nxt, ok := st.ooo[st.next]
			if !ok {
				break
			}
			delete(st.ooo, st.next)
			st.next += uint64(nxt.Len)
		}
	} else if seg.Seq > st.next {
		st.ooo[seg.Seq] = seg
	}
	f.synthesized++
	if f.Loop != nil {
		now := f.s.Now()
		f.Loop.OnObserve(now, p.Flow)
		f.Loop.OnFeedbackOut(now, p.Flow)
	}
	ack := f.pkts.NewPacket()
	ack.Flow = p.Flow.Reverse()
	ack.SentAt = f.s.Now()
	tcpsim.AckInfo{Ack: st.next, Echo: seg.SentAt, ABCMark: p.ABCMark}.Put(ack)
	f.uplinkOut.Receive(ack)
}

// UplinkIn returns a receiver that absorbs client ACKs of optimised flows
// and forwards everything else to the AP uplink.
func (f *FastAck) UplinkIn() netem.Receiver {
	return netem.ReceiverFunc(func(p *netem.Packet) {
		if p.Kind == netem.KindAck {
			if _, ok := f.flows[p.Flow.Reverse()]; ok {
				f.absorbed++
				return
			}
		}
		f.uplinkOut.Receive(p)
	})
}
