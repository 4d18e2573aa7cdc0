// Package liveap implements the userspace Zhuge AP over real UDP sockets:
// the production-shaped counterpart of the simulator datapath, mirroring
// the paper's OpenWrt packet-socket implementation (§7.1). It relays
// RTP/RTCP sessions between a server and a wireless client and shapes the
// downlink to a configurable (optionally trace-driven) rate through a real
// queue, paced against a departure clock with ~2 ms of credit rather than a
// sleep per packet, which the runtime's timer rounding would stretch by
// ~0.6 ms each. Its Zhuge state is the simulator's own: a core.FortuneTeller fed
// wall-clock offsets and a core.InbandUpdater that records transport-wide
// sequence numbers from real RTP header bytes, constructs real TWCC RTCP
// packets and absorbs the client's own TWCC. The relay is that updater's
// core.Clock: time.Since(start), and time.AfterFunc callbacks that run under
// the relay mutex, which also covers every other call into core.
//
// Media streams are told apart by SSRC: each one carrying transport-wide
// sequence numbers gets its own feedback stream over its own sequence space;
// all share the one downlink queue.
package liveap

import (
	"fmt"
	"math"
	"net"
	"sync"
	"time"

	"github.com/zhuge-project/zhuge/internal/core"
	"github.com/zhuge-project/zhuge/internal/netem"
	"github.com/zhuge-project/zhuge/internal/packet"
	"github.com/zhuge-project/zhuge/internal/queue"
	"github.com/zhuge-project/zhuge/internal/sim"
	"github.com/zhuge-project/zhuge/internal/trace"
)

// Config parameterises the relay.
type Config struct {
	// MediaListen is the UDP address the server sends media to.
	MediaListen string
	// FeedbackListen is the UDP address the client sends RTCP to.
	FeedbackListen string
	// Client is where shaped media is forwarded.
	Client string
	// Server is where (rewritten) feedback is forwarded.
	Server string

	// Rate shapes the downlink, bits per second: positive and finite.
	// Ignored if Trace is set.
	Rate float64
	// Trace optionally drives a time-varying downlink rate. While it reads
	// 0 bit/s the link is out and the queue holds.
	Trace *trace.Trace

	// QueueLimit bounds the downlink queue in bytes (default 256 KiB).
	QueueLimit int
	// Zhuge enables the Fortune Teller + in-band Feedback Updater;
	// disabled, the relay is a plain shaped AP for A/B comparison.
	Zhuge bool
	// FeedbackEvery is the TWCC construction interval (default 40ms).
	FeedbackEvery time.Duration
}

// Stats is a snapshot of relay counters. A peer that has received a packet
// always finds it counted: MediaOut is bumped before the socket write (and
// taken back if it fails), the feedback counters under the mutex the write
// is made under.
type Stats struct {
	MediaIn         int
	MediaOut        int
	Dropped         int // queue overflow, or the write to the client failed
	FeedbackBuilt   int // core.InbandUpdater.Constructed
	ClientTWCCDrops int // core.InbandUpdater.DroppedClientFeedback
	FeedbackRelayed int
}

// Relay is a running live AP.
type Relay struct {
	cfg Config

	mediaConn *net.UDPConn
	fbConn    *net.UDPConn
	client    *net.UDPAddr
	server    *net.UDPAddr

	start time.Time

	mu    sync.Mutex // guards everything below and every call into core
	q     *queue.FIFO
	ft    *core.FortuneTeller
	ib    *core.InbandUpdater // consulted only if cfg.Zhuge
	stats Stats

	kick chan struct{}
	done chan struct{}
	wg   sync.WaitGroup
}

// media is a relayed downlink datagram. One that parsed as RTP with a
// transport-wide sequence number is handed to the updater as a
// core.TWCCCarrier.
type media struct {
	wire []byte
	ssrc uint32
	seq  uint16
}

// TWCCInfo implements core.TWCCCarrier.
func (m *media) TWCCInfo() (uint32, uint16) { return m.ssrc, m.seq }

// rtcp is a client RTCP datagram on its way to the server.
type rtcp []byte

// RawRTCP implements core.RTCPCarrier.
func (b rtcp) RawRTCP() []byte { return b }

// flowOf is a media stream's identity inside the qdisc and the updater, which
// keys its flows by FlowKey: the SSRC stands in for the source address.
func flowOf(ssrc uint32) netem.FlowKey {
	return netem.FlowKey{SrcIP: ssrc, DstIP: 1, SrcPort: 5004, DstPort: 5004, Proto: packet.ProtoUDP}
}

// New creates and starts a relay.
func New(cfg Config) (*Relay, error) {
	if cfg.QueueLimit == 0 {
		cfg.QueueLimit = 256 << 10
	}
	if cfg.FeedbackEvery == 0 {
		cfg.FeedbackEvery = 40 * time.Millisecond
	}
	if cfg.Trace == nil && !(cfg.Rate > 0 && cfg.Rate <= math.MaxFloat64) {
		return nil, fmt.Errorf("liveap: Rate %v bit/s: want a positive finite rate, or a Trace", cfg.Rate)
	}
	mediaAddr, err := net.ResolveUDPAddr("udp", cfg.MediaListen)
	if err != nil {
		return nil, fmt.Errorf("liveap: media listen: %w", err)
	}
	fbAddr, err := net.ResolveUDPAddr("udp", cfg.FeedbackListen)
	if err != nil {
		return nil, fmt.Errorf("liveap: feedback listen: %w", err)
	}
	client, err := net.ResolveUDPAddr("udp", cfg.Client)
	if err != nil {
		return nil, fmt.Errorf("liveap: client addr: %w", err)
	}
	server, err := net.ResolveUDPAddr("udp", cfg.Server)
	if err != nil {
		return nil, fmt.Errorf("liveap: server addr: %w", err)
	}
	mediaConn, err := net.ListenUDP("udp", mediaAddr)
	if err != nil {
		return nil, err
	}
	fbConn, err := net.ListenUDP("udp", fbAddr)
	if err != nil {
		mediaConn.Close()
		return nil, err
	}

	q := queue.NewFIFO(cfg.QueueLimit)
	r := &Relay{
		cfg:       cfg,
		mediaConn: mediaConn,
		fbConn:    fbConn,
		client:    client,
		server:    server,
		q:         q,
		ft:        core.NewFortuneTeller(q, core.FortuneTellerConfig{}),
		start:     time.Now(),
		kick:      make(chan struct{}, 1),
		done:      make(chan struct{}),
	}
	r.ib = core.NewInbandUpdater(r, netem.ReceiverFunc(r.toServer), cfg.FeedbackEvery)
	r.wg.Add(3)
	go r.mediaLoop()
	go r.drainLoop()
	go r.feedbackLoop()
	return r, nil
}

// MediaAddr returns the bound media-listen address.
func (r *Relay) MediaAddr() *net.UDPAddr { return r.mediaConn.LocalAddr().(*net.UDPAddr) }

// FeedbackAddr returns the bound feedback-listen address.
func (r *Relay) FeedbackAddr() *net.UDPAddr { return r.fbConn.LocalAddr().(*net.UDPAddr) }

// Stats returns a snapshot of the relay counters.
func (r *Relay) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.stats
	st.FeedbackBuilt, st.ClientTWCCDrops = r.ib.Constructed(), r.ib.DroppedClientFeedback()
	return st
}

// Close stops the relay and releases its sockets.
func (r *Relay) Close() {
	close(r.done)
	r.mediaConn.Close()
	r.fbConn.Close()
	r.wg.Wait()
}

// Now implements core.Clock: wall time since the relay started.
func (r *Relay) Now() sim.Time { return time.Since(r.start) }

// ScheduleAfter implements core.Clock. fn runs on a runtime timer goroutine
// under the relay mutex, and not at all once the relay is closed.
func (r *Relay) ScheduleAfter(d time.Duration, fn func()) {
	time.AfterFunc(d, func() {
		r.mu.Lock()
		defer r.mu.Unlock()
		select {
		case <-r.done:
		default:
			fn()
		}
	})
}

func (r *Relay) rateAt(now time.Duration) float64 {
	if r.cfg.Trace != nil {
		return r.cfg.Trace.RateAt(now)
	}
	return r.cfg.Rate
}

// mediaLoop receives downlink datagrams, records fortunes, and enqueues.
func (r *Relay) mediaLoop() {
	defer r.wg.Done()
	buf := make([]byte, 64<<10)
	for {
		n, _, err := r.mediaConn.ReadFromUDP(buf)
		if err != nil {
			return // closed
		}
		data := make([]byte, n)
		copy(data, buf[:n])

		m := &media{wire: data}
		twcc := false
		if r.cfg.Zhuge && !packet.IsRTCP(data) {
			var hdr packet.RTPHeader
			if _, err := hdr.Unmarshal(data); err == nil && hdr.HasTWCC {
				m.ssrc, m.seq, twcc = hdr.SSRC, hdr.TWCCSeq, true
			}
		}
		now := r.Now()
		p := &netem.Packet{Flow: flowOf(m.ssrc), Kind: netem.KindData, Size: n + packet.UDPOverhead, Payload: m}
		r.mu.Lock()
		r.stats.MediaIn++
		var pred core.Prediction
		if twcc {
			pred = r.ft.Predict(now, p.Flow)
		}
		ok := r.q.Enqueue(now, p)
		if !ok {
			r.stats.Dropped++
		} else if twcc {
			// Only what the queue accepted is recorded, with the prediction
			// taken before it went in, as core.AP does: an AP-dropped packet
			// must not be reported as received.
			r.ib.OnDataPacket(now, p.Flow, p, pred)
		}
		r.mu.Unlock()
		if ok {
			select {
			case r.kick <- struct{}{}:
			default:
			}
		}
	}
}

const (
	// maxCredit is how far the departure clock may trail now: about one
	// timer overshoot, so a late wake-up is won back but an idle link
	// earns no burst.
	maxCredit = 2 * time.Millisecond
	// outagePoll is how often a link at rate 0 reads its rate again.
	outagePoll = time.Millisecond
)

// drainLoop serialises the queue at the shaped rate toward the client. It
// paces against a departure clock, next, that each packet moves on by its
// airtime, and sleeps only while next is ahead of now: a sub-millisecond
// sleep wakes ~0.6 ms late, so the packets that fell due meanwhile go out
// back to back rather than each paying the overshoot again.
func (r *Relay) drainLoop() {
	defer r.wg.Done()
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	sleep := func(d time.Duration) bool {
		timer.Reset(d)
		select {
		case <-timer.C:
			return true
		case <-r.done:
			return false
		}
	}
	var next time.Duration
	for {
		now := r.Now()
		if next > now {
			if !sleep(next - now) {
				return
			}
			continue
		}
		next = max(next, now-maxCredit)
		rate := r.rateAt(now)
		if !(rate > 0) {
			// An outage: the queue holds until the link comes back.
			if !sleep(outagePoll) {
				return
			}
			continue
		}
		r.mu.Lock()
		at := r.Now() // under the mutex: never before an enqueue it follows
		p := r.q.Dequeue(at)
		if p != nil {
			r.ft.OnDequeue(at, p)
			// Counted before the write: whoever reads the packet off the
			// client socket must already see it in Stats.
			r.stats.MediaOut++
		}
		r.mu.Unlock()
		if p == nil {
			select {
			case <-r.kick:
				continue
			case <-r.done:
				return
			}
		}
		if _, err := r.mediaConn.WriteToUDP(p.Payload.(*media).wire, r.client); err != nil {
			r.mu.Lock()
			r.stats.MediaOut--
			r.stats.Dropped++
			r.mu.Unlock()
		}
		next += time.Duration(float64(p.Size*8) / rate * float64(time.Second))
	}
}

// feedbackLoop hands client RTCP to the updater, which absorbs TWCC and
// sends the rest on; a plain relay sends everything on.
func (r *Relay) feedbackLoop() {
	defer r.wg.Done()
	buf := make([]byte, 64<<10)
	for {
		n, _, err := r.fbConn.ReadFromUDP(buf)
		if err != nil {
			return
		}
		// buf is written out or dropped before the next read reuses it.
		p := netem.NewPacket()
		*p = netem.Packet{Kind: netem.KindFeedback, Size: n + packet.UDPOverhead, Payload: rtcp(buf[:n])}
		r.mu.Lock()
		if r.cfg.Zhuge {
			r.ib.OnFeedbackPacket(r.Now(), p)
		} else {
			r.toServer(p)
		}
		r.mu.Unlock()
	}
}

// toServer is the updater's uplink: the TWCC it built and the client RTCP it
// let through go out on the server socket. Called with the mutex held.
func (r *Relay) toServer(p *netem.Packet) {
	_, relayed := p.Payload.(rtcp)
	if _, err := r.fbConn.WriteToUDP(p.Payload.(core.RTCPCarrier).RawRTCP(), r.server); err == nil && relayed {
		r.stats.FeedbackRelayed++
	}
	p.Release()
}
