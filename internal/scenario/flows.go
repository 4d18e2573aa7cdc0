package scenario

import (
	"fmt"
	"time"

	"github.com/zhuge-project/zhuge/internal/cca"
	"github.com/zhuge-project/zhuge/internal/core"
	"github.com/zhuge-project/zhuge/internal/metrics"
	"github.com/zhuge-project/zhuge/internal/netem"
	"github.com/zhuge-project/zhuge/internal/sim"
	"github.com/zhuge-project/zhuge/internal/transport/rtp"
	"github.com/zhuge-project/zhuge/internal/transport/tcpsim"
	"github.com/zhuge-project/zhuge/internal/video"
)

// FlowMetrics is the one record of a measured flow, whatever its
// transport: the application half (the embedded FrameStats — frame delay,
// per-second frame rate) and the network half below.
type FlowMetrics struct {
	*video.FrameStats

	// RTT is the per-data-packet network RTT: the measured one-way
	// downlink delay plus the stable return path. Identical definition
	// for every solution, so Zhuge's deliberate ACK delays cannot skew
	// the comparison.
	RTT *metrics.Histogram
	// RTTSeries records (time, RTT ms) per data packet for degradation
	// analysis; nil, and recording nothing, unless its reader sets it
	// before the run.
	RTTSeries *metrics.Series
	// RateSeries records (time, target rate bps) of the sender's CCA.
	RateSeries metrics.Series
	// DeliveredBytes is the total application payload delivered to the
	// client; goodput is this over the run's duration.
	DeliveredBytes float64
}

// measure starts a flow's record: frames is the recorder its application
// feeds, and a delivery tap fills the network half from every data packet
// of the flow delivered over the air.
func (p *Path) measure(flow netem.FlowKey, frames *video.FrameStats) *FlowMetrics {
	m := &FlowMetrics{FrameStats: frames, RTT: metrics.NewHistogram()}
	p.AddDeliveryTap(func(pkt *netem.Packet) {
		if pkt.Flow != flow || pkt.Kind != netem.KindData {
			return
		}
		now := p.S.Now()
		rtt := now - pkt.SentAt + p.FlowReturnBase(flow)
		m.RTT.Add(rtt)
		if m.RTTSeries != nil {
			m.RTTSeries.Add(now, float64(rtt.Milliseconds()))
		}
		m.DeliveredBytes += float64(pkt.Size)
	})
	return m
}

// RTPFlowConfig and TCPFlowConfig are FlowSpec under the names
// benchmark/cells.go still uses; they go when that package moves onto
// AddFlow.
type (
	RTPFlowConfig = FlowSpec
	TCPFlowConfig = FlowSpec
)

// RTPFlow is a WebRTC-style video call over RTP/RTCP with GCC.
type RTPFlow struct {
	Flow    netem.FlowKey
	Sender  *rtp.Sender
	Encoder *video.Encoder
	Decoder *video.Decoder
	Metrics *FlowMetrics
}

// AddRTPFlow attaches an RTP/GCC video flow to the path, whatever cfg.Kind
// says. With SolutionZhuge the flow is optimised in in-band mode.
func (p *Path) AddRTPFlow(cfg FlowSpec) *RTPFlow {
	cfg = cfg.withDefaults()
	flow := p.NewFlowKey()
	st := p.station(cfg.Station)
	pa := st.AP()

	var rc cca.Rate
	switch cfg.CCA {
	case "", "gcc":
		rc = cca.NewGCC(cfg.StartRate, minRate, cfg.MaxRate)
	case "nada":
		rc = cca.NewNADA(cfg.StartRate, minRate, cfg.MaxRate)
	default:
		panic(fmt.Sprintf("scenario: unknown CCA %q for rtp", cfg.CCA))
	}
	snd := rtp.NewSender(p.S, flow, uint32(flow.SrcPort), rc, p.ServerOut())
	snd.GapLoss = cfg.GapLoss
	dec := video.NewDecoder()
	m := p.measure(flow, dec.FrameStats)
	rcv := rtp.NewReceiver(p.S, flow.Reverse(), uint32(flow.SrcPort), dec, p.ClientOut())
	p.RegisterClient(flow, rcv)
	p.RegisterServer(flow, snd)

	enc := video.NewEncoder(p.S, video.EncoderConfig{FPS: cfg.FPS, StartBitrate: cfg.StartRate},
		p.S.NewRand("enc"+flow.String()))
	enc.OnFrame = snd.SendFrame
	snd.Encoder = enc
	// Hoist the control-loop tracker once: the per-rate-update closure then
	// pays one nil check, and the per-send hook is only installed at all
	// when the tracker exists (the obs-disabled path keeps OnSend nil).
	lt := p.Spec.Obs.ControlLoop()
	snd.OnRate = func(now sim.Time, bps float64) {
		m.RateSeries.Add(now, bps)
		if lt != nil {
			lt.OnReact(now, flow)
		}
	}
	if lt != nil {
		snd.OnSend = func(now sim.Time) { lt.OnAir(now, flow) }
	}

	if pa.Spec.Solution == SolutionZhuge && !cfg.Unoptimized {
		pa.Zhuge.Optimize(flow, core.ModeInBand)
		// The AP now builds this flow's feedback at packet arrival; its
		// arrival entries no longer prove receiver possession, so the
		// sender must keep retransmission payloads until the horizon.
		snd.APFeedback = true
	} else if lt != nil {
		// Without Zhuge the control loop closes at the client: the
		// receiver's packet arrivals are the observations and its TWCC
		// departures the feedback — the long loop the recorder contrasts
		// against the AP-side instants of the optimised path.
		rcv.SetLoopHooks(
			func(now sim.Time) { lt.OnObserve(now, flow) },
			func(now sim.Time) { lt.OnFeedbackOut(now, flow) },
		)
	}
	p.bindFlow(flow, st)

	p.S.Schedule(cfg.StartAt, func() {
		enc.Start()
		rcv.Start()
	})
	return &RTPFlow{Flow: flow, Sender: snd, Encoder: enc, Decoder: dec, Metrics: m}
}

// streamTransport is what the stream-video application needs from a
// reliable transport's sender: hand it bytes, ask how many were
// acknowledged. tcpsim.Sender and quicsim.Sender both satisfy it.
type streamTransport interface {
	Write(n int)
	Acked() uint64
}

// streamHooks are the client-side callbacks the application hands a
// transport's receiver.
type streamHooks struct {
	// OnDeliver decodes frames as the in-order stream prefix advances.
	OnDeliver func(now sim.Time, upTo uint64)
	// OnAck is non-nil only when the control-loop recorder is on and the
	// loop closes at the client (no AP-side solution serves the flow).
	OnAck func(now sim.Time)
}

// streamVideo is the application layer of an RTC stream over a reliable
// transport (the cloud-gaming/low-latency streaming style of Table 2),
// shared by TCPVideoFlow and QUICVideoFlow: encoder frames are written
// into a byte stream; the application adapts the encoder bitrate to the
// delivery rate and drops frames when the transport backlog exceeds one
// second of video.
type streamVideo struct {
	Flow    netem.FlowKey
	Metrics *FlowMetrics

	// frame accounting
	FramesSent    int
	FramesDropped int

	frames sim.Deque[streamFrame]
}

type streamFrame struct {
	end      uint64 // stream offset one past the frame's last byte
	captured sim.Time
}

// delivered is the receiver's OnDeliver hook: in-order delivery reaching
// a frame boundary decodes the frame.
func (f *streamVideo) delivered(now sim.Time, upTo uint64) {
	for f.frames.Len() > 0 && f.frames.Front().end <= upTo {
		f.Metrics.AddFrame(now, f.frames.PopFront().captured)
	}
}

// newTCPController builds the window controller a flow of the given kind
// names; "" is the kind's default, cubic for bulk and copa for the video
// streams. An unknown name is a build-time configuration bug and panics
// rather than measuring the default under the wrong label.
func newTCPController(name, kind string) cca.TCP {
	if name == "" {
		name = "copa"
		if kind == "bulk" {
			name = "cubic"
		}
	}
	switch name {
	case "copa":
		return cca.NewCopa()
	case "cubic":
		return cca.NewCubic()
	case "bbr":
		return cca.NewBBR()
	case "abc":
		return cca.NewABCSender()
	default:
		panic(fmt.Sprintf("scenario: unknown CCA %q for %s", name, kind))
	}
}

// addStreamVideo attaches a video stream over a reliable transport. dial
// builds the transport's two endpoints for the allocated flow key, installs
// the hooks on its receiver, registers both ends and returns the sender.
// With SolutionZhuge the flow is optimised out-of-band; with
// SolutionFastAck a TCP flow's ACKs are counterfeited by the AP (FastAck
// reads TCP sequence numbers, so a QUIC flow passes it untouched).
func (p *Path) addStreamVideo(cfg FlowSpec, proto uint8, dial func(netem.FlowKey, streamHooks) streamTransport) *streamVideo {
	flow := p.NewFlowKey()
	flow.Proto = proto
	st := p.station(cfg.Station)
	pa := st.AP()
	m := p.measure(flow, video.NewFrameStats())
	f := &streamVideo{Flow: flow, Metrics: m}

	zhuge := !cfg.Unoptimized && pa.Spec.Solution == SolutionZhuge
	fastAck := !cfg.Unoptimized && pa.Spec.Solution == SolutionFastAck && proto == 6
	hooks := streamHooks{OnDeliver: f.delivered}
	lt := p.Spec.Obs.ControlLoop()
	if lt != nil && !zhuge && !fastAck {
		// A baseline stream closes the control loop at the client: each ACK
		// departure is both observation and feedback instant. Zhuge
		// (out-of-band) and FastAck move the feedback origin to the AP and
		// tap the recorder there instead.
		hooks.OnAck = func(now sim.Time) {
			lt.OnObserve(now, flow)
			lt.OnFeedbackOut(now, flow)
		}
	}
	snd := dial(flow, hooks)

	if zhuge {
		pa.Zhuge.Optimize(flow, core.ModeOutOfBand)
	} else if fastAck {
		pa.FastAck.Optimize(flow)
	}
	p.bindFlow(flow, st)

	enc := video.NewEncoder(p.S, video.EncoderConfig{FPS: cfg.FPS, StartBitrate: cfg.StartRate},
		p.S.NewRand("enc"+flow.String()))
	var streamEnd uint64
	var lastAcked uint64
	var lastRateUpdate sim.Time
	enc.OnFrame = func(fr video.Frame) {
		// The adaptation loop of stream-based RTC services: probe the
		// bitrate up while the transport keeps pace (un-acked backlog
		// under ~100ms of video), follow 0.85x the measured delivery
		// rate when it falls behind. Because the congestion window only
		// grows while it is actually used (RFC 7661 in internal/cca),
		// the delivery rate — and hence the encoder — is governed by the
		// CCA the moment the path degrades; that is the control loop
		// Zhuge shortens. Frames are dropped outright when the backlog
		// exceeds ~1s of video.
		now := p.S.Now()
		acked := snd.Acked()
		backlog := streamEnd - acked
		if now > lastRateUpdate+500*time.Millisecond && now > time.Second {
			elapsed := (now - lastRateUpdate).Seconds()
			ackRate := float64(acked-lastAcked) * 8 / elapsed
			var target float64
			if float64(backlog) < 0.1*enc.Target()/8 {
				target = enc.Target() * 1.08
			} else {
				target = 0.85 * ackRate
			}
			if target < minRate {
				target = minRate
			}
			if target > cfg.MaxRate {
				target = cfg.MaxRate
			}
			enc.SetTargetBitrate(target)
			m.RateSeries.Add(now, target)
			// The encoder adaptation is this transport's sender reaction:
			// acked-rate feedback (whose pacing Zhuge's delayed ACKs shape)
			// has just been folded into a new target bitrate.
			if lt != nil {
				lt.OnReact(now, flow)
			}
			lastAcked = acked
			lastRateUpdate = now
		}
		if float64(backlog) > enc.Target()/8 {
			f.FramesDropped++
			return
		}
		f.FramesSent++
		streamEnd += uint64(fr.Size)
		f.frames.PushBack(streamFrame{end: streamEnd, captured: fr.CapturedAt})
		if lt != nil {
			lt.OnAir(now, flow)
		}
		snd.Write(fr.Size)
	}

	p.S.Schedule(cfg.StartAt, enc.Start)
	return f
}

// TCPVideoFlow is an RTC stream over TCP: the shared stream-video
// application (its Metrics and frame counters are promoted) over a tcpsim
// sender.
type TCPVideoFlow struct {
	*streamVideo
	Sender *tcpsim.Sender
}

// AddTCPVideoFlow attaches a TCP video stream, whatever cfg.Kind says. The
// CCA field accepts "copa" (default), "cubic", "bbr" or "abc". With
// SolutionZhuge the flow is optimised in out-of-band mode; with
// SolutionFastAck its ACKs are counterfeited by the AP.
func (p *Path) AddTCPVideoFlow(cfg FlowSpec) *TCPVideoFlow {
	cfg = cfg.withDefaults()
	f := &TCPVideoFlow{}
	f.streamVideo = p.addStreamVideo(cfg, 6, func(flow netem.FlowKey, h streamHooks) streamTransport {
		f.Sender = tcpsim.NewSender(p.S, flow, newTCPController(cfg.CCA, "tcp"), p.ServerOut())
		rcv := tcpsim.NewReceiver(p.S, flow.Reverse(), p.ClientOut())
		rcv.OnDeliver, rcv.OnAck = h.OnDeliver, h.OnAck
		p.RegisterClient(flow, rcv)
		p.RegisterServer(flow, f.Sender)
		return f.Sender
	})
	return f
}

// BulkFlow is a TCP bulk download used as competitor: on an own-queue
// station of its own it costs the RTC flow airtime, not queue space (Figure
// 16); on the RTC flow's station it shares its queue (the scp workload of
// Figure 18).
type BulkFlow struct {
	Flow   netem.FlowKey
	Sender *tcpsim.Sender
}

// addBulk attaches a bulk download to fs.Station with fs.CCA (default
// cubic). If fs.Period > 0 the transfer alternates period on / period off
// (scp style); otherwise it runs continuously from fs.StartAt.
func (p *Path) addBulk(fs FlowSpec) *BulkFlow {
	flow := p.NewFlowKey()
	flow.Proto = 6
	st := p.station(fs.Station)
	snd := tcpsim.NewSender(p.S, flow, newTCPController(fs.CCA, "bulk"), p.ServerOut())
	rcv := tcpsim.NewReceiver(p.S, flow.Reverse(), p.ClientOut())
	p.RegisterClient(flow, rcv)
	p.RegisterServer(flow, snd)
	p.bindFlow(flow, st)

	// Keep the pipe full by topping up the app buffer periodically while
	// "on".
	on := true
	if fs.Period > 0 {
		var flip func()
		flip = func() {
			on = !on
			p.S.ScheduleAfter(fs.Period, flip)
		}
		p.S.Schedule(fs.StartAt+fs.Period, flip)
	}
	var feed func()
	feed = func() {
		if on && snd.Pending() < 1<<20 {
			snd.Write(1 << 20)
		}
		p.S.ScheduleAfter(100*time.Millisecond, feed)
	}
	p.S.Schedule(fs.StartAt, feed)
	return &BulkFlow{Flow: flow, Sender: snd}
}
