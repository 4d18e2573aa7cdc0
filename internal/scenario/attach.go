package scenario

import (
	"github.com/zhuge-project/zhuge/internal/baseline"
	"github.com/zhuge-project/zhuge/internal/core"
	"github.com/zhuge-project/zhuge/internal/netem"
	"github.com/zhuge-project/zhuge/internal/topo"
)

// attachmentFor builds the topo.Attachment installing the AP's declared
// solution. The attachment runs inside topo.AP.Attach; it records the
// constructed solution instance on the PathAP.
func (p *Path) attachmentFor(pa *PathAP, solLabel string) topo.Attachment {
	switch pa.Spec.Solution {
	case SolutionZhuge:
		return &zhugeAttachment{p: p, pa: pa, label: solLabel}
	case SolutionFastAck:
		return &fastackAttachment{p: p, pa: pa}
	case SolutionABC:
		return &abcAttachment{p: p, pa: pa}
	default:
		return nil // pass-through AP
	}
}

// zhugeAttachment interposes a core.AP (Fortune Teller + Feedback
// Updater) on both datapath directions.
type zhugeAttachment struct {
	p     *Path
	pa    *PathAP
	label string
}

func (z *zhugeAttachment) Attach(a *topo.AP, wanOut netem.Receiver) (netem.Receiver, netem.Receiver) {
	ap := core.NewAP(z.p.S, a.Downlink, wanOut, z.p.S.NewRand(z.label), z.pa.Spec.FTConfig)
	ap.OOB().SetOptions(z.pa.Spec.OOB)
	ap.SetObs(z.p.Spec.Obs)
	z.pa.Zhuge = ap
	return ap.DownlinkIn(), ap.UplinkIn()
}

// fastackAttachment counterfeits TCP ACKs at 802.11 delivery: it taps the
// shared delivery demux and interposes only on the uplink.
type fastackAttachment struct {
	p  *Path
	pa *PathAP
}

func (f *fastackAttachment) Attach(a *topo.AP, wanOut netem.Receiver) (netem.Receiver, netem.Receiver) {
	fa := baseline.NewFastAck(f.p.S, wanOut)
	fa.Loop = f.p.Spec.Obs.ControlLoop()
	f.pa.FastAck = fa
	a.Delivery.AddTap(fa.OnDelivered)
	return a.Downlink, fa.UplinkIn()
}

// abcAttachment marks accelerate/brake on the downlink queue; the
// datapath itself passes through.
type abcAttachment struct {
	p  *Path
	pa *PathAP
}

func (b *abcAttachment) Attach(a *topo.AP, wanOut netem.Receiver) (netem.Receiver, netem.Receiver) {
	abc := baseline.NewABCRouter(b.p.S, a.Qdisc)
	b.pa.ABC = abc
	a.Downlink.AddObserver(abc)
	return a.Downlink, wanOut
}
