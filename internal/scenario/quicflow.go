package scenario

import (
	"github.com/zhuge-project/zhuge/internal/cca"
	"github.com/zhuge-project/zhuge/internal/netem"
	"github.com/zhuge-project/zhuge/internal/transport/quicsim"
)

// QUICVideoFlow is an RTC stream over QUIC (§6's scalability case): the
// transport is end-to-end encrypted, so the AP sees nothing but the
// 5-tuple and packet direction — exactly what the out-of-band Feedback
// Updater needs. The application layer is TCPVideoFlow's, shared.
type QUICVideoFlow struct {
	*streamVideo
	Sender *quicsim.Sender
}

// AddQUICVideoFlow attaches a QUIC video stream, whatever cfg.Kind says.
// The CCA field accepts "copa" (default), "cubic", "bbr" or "pcc". With
// SolutionZhuge the flow is optimised out-of-band, identically to TCP — no
// part of the datapath inspects the (notionally encrypted) payload.
func (p *Path) AddQUICVideoFlow(cfg FlowSpec) *QUICVideoFlow {
	cfg = cfg.withDefaults()
	f := &QUICVideoFlow{}
	f.streamVideo = p.addStreamVideo(cfg, 17, func(flow netem.FlowKey, h streamHooks) streamTransport {
		var cc cca.TCP
		if cfg.CCA == "pcc" {
			cc = cca.NewPCC(cfg.StartRate, cfg.MinRate, 2*cfg.MaxRate)
		} else {
			cc = newTCPController(cfg.CCA, "quic")
		}
		f.Sender = quicsim.NewSender(p.S, flow, cc, p.ServerOut())
		rcv := quicsim.NewReceiver(p.S, flow.Reverse(), p.ClientOut())
		rcv.OnDeliver, rcv.OnAck = h.OnDeliver, h.OnAck
		p.RegisterClient(flow, rcv)
		p.RegisterServer(flow, f.Sender)
		return f.Sender
	})
	return f
}
