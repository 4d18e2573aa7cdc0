// Package liveap implements the userspace Zhuge AP over real UDP sockets:
// the production-shaped counterpart of the simulator datapath, mirroring
// the paper's OpenWrt packet-socket implementation (§7.1). It relays an
// RTP/RTCP session between a server and a wireless client, shapes the
// downlink to a configurable (optionally trace-driven) rate through a real
// queue, runs the Fortune Teller on wall-clock offsets, and rewrites
// feedback in in-band mode: recording transport-wide sequence numbers from
// real RTP header bytes, constructing real TWCC RTCP packets, and absorbing
// the client's own TWCC.
//
// The relay serves one media flow. The first SSRC seen on a packet carrying a
// transport-wide sequence number is the flow it predicts and builds feedback
// for; such packets from any other SSRC are forwarded through the same queue
// but never recorded or predicted for - two senders' sequence spaces
// interleaved in one feedback message would be wrong for both - and are
// counted in Stats.OtherSSRC.
package liveap

import (
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/zhuge-project/zhuge/internal/core"
	"github.com/zhuge-project/zhuge/internal/netem"
	"github.com/zhuge-project/zhuge/internal/packet"
	"github.com/zhuge-project/zhuge/internal/queue"
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

	// Rate shapes the downlink, bits per second. Ignored if Trace is set.
	Rate float64
	// Trace optionally drives a time-varying downlink rate.
	Trace *trace.Trace

	// QueueLimit bounds the downlink queue in bytes (default 256 KiB).
	QueueLimit int
	// Zhuge enables the Fortune Teller + in-band Feedback Updater;
	// disabled, the relay is a plain shaped AP for A/B comparison.
	Zhuge bool
	// FeedbackEvery is the TWCC construction interval (default 40ms).
	FeedbackEvery time.Duration
}

// Stats is a snapshot of relay counters. MediaOut and FeedbackRelayed are
// bumped before the socket write (and taken back if it fails), so a peer
// that has received a packet always finds it counted.
type Stats struct {
	MediaIn         int
	MediaOut        int
	Dropped         int // queue overflow, or the write to the client failed
	FeedbackBuilt   int
	ClientTWCCDrops int
	FeedbackRelayed int
	// OtherSSRC counts media with a transport-wide sequence number from an
	// SSRC other than the first one seen: forwarded, left out of feedback.
	OtherSSRC int
}

// Relay is a running live AP.
type Relay struct {
	cfg Config

	mediaConn *net.UDPConn
	fbConn    *net.UDPConn
	client    *net.UDPAddr
	server    *net.UDPAddr

	mu      sync.Mutex
	q       *queue.FIFO
	ft      *core.FortuneTeller
	start   time.Time
	records []packet.TWCCArrival
	ssrc    uint32 // of the one flow served, latched from its first packet
	latched bool
	fbCount uint8
	stats   Stats

	kick chan struct{}
	done chan struct{}
	wg   sync.WaitGroup
}

// flowKey is the single relayed flow's identity inside the qdisc.
var flowKey = netem.FlowKey{SrcIP: 1, DstIP: 2, SrcPort: 5004, DstPort: 5004, Proto: packet.ProtoUDP}

// New creates and starts a relay.
func New(cfg Config) (*Relay, error) {
	if cfg.QueueLimit == 0 {
		cfg.QueueLimit = 256 << 10
	}
	if cfg.FeedbackEvery == 0 {
		cfg.FeedbackEvery = 40 * time.Millisecond
	}
	if cfg.Rate == 0 && cfg.Trace == nil {
		return nil, fmt.Errorf("liveap: Rate or Trace required")
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
	r.wg.Add(3)
	go r.mediaLoop()
	go r.drainLoop()
	go r.feedbackLoop()
	if cfg.Zhuge {
		r.wg.Add(1)
		go r.twccTicker()
	}
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
	return r.stats
}

// Close stops the relay and releases its sockets.
func (r *Relay) Close() {
	close(r.done)
	r.mediaConn.Close()
	r.fbConn.Close()
	r.wg.Wait()
}

func (r *Relay) now() time.Duration { return time.Since(r.start) }

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

		now := r.now()
		recorded := false
		r.mu.Lock()
		r.stats.MediaIn++
		if r.cfg.Zhuge && !packet.IsRTCP(data) {
			var hdr packet.RTPHeader
			if _, err := hdr.Unmarshal(data); err == nil && hdr.HasTWCC {
				if !r.latched {
					r.ssrc, r.latched = hdr.SSRC, true
				}
				// UDP may reorder; TWCC records must stay in ascending
				// (wrap-aware) sequence order, so late arrivals are
				// skipped (they will be reported lost, and recovered by
				// the endpoints' own loss machinery).
				inOrder := len(r.records) == 0 ||
					int16(hdr.TWCCSeq-r.records[len(r.records)-1].Seq) > 0
				if hdr.SSRC != r.ssrc {
					r.stats.OtherSSRC++
				} else if inOrder {
					pred := r.ft.Predict(now, flowKey)
					// Faithful per-packet prediction, matching the
					// simulator's in-band updater (see internal/core).
					r.records = append(r.records, packet.TWCCArrival{Seq: hdr.TWCCSeq, At: now + pred.Total})
					recorded = true
				}
			}
		}
		ok := r.q.Enqueue(now, &netem.Packet{Flow: flowKey, Kind: netem.KindData, Size: n + 28, Payload: data})
		if !ok {
			r.stats.Dropped++
			// An AP-dropped packet must not be reported as received.
			if recorded {
				r.records = r.records[:len(r.records)-1]
			}
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

// drainLoop serialises the queue at the shaped rate toward the client.
func (r *Relay) drainLoop() {
	defer r.wg.Done()
	for {
		r.mu.Lock()
		p := r.q.Dequeue(r.now())
		if p != nil {
			r.ft.OnDequeue(r.now(), p)
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
		data := p.Payload.([]byte)
		if _, err := r.mediaConn.WriteToUDP(data, r.client); err != nil {
			r.mu.Lock()
			r.stats.MediaOut--
			r.stats.Dropped++
			r.mu.Unlock()
		}
		rate := r.rateAt(r.now())
		if rate > 0 {
			airtime := time.Duration(float64(p.Size*8) / rate * float64(time.Second))
			select {
			case <-time.After(airtime):
			case <-r.done:
				return
			}
		}
	}
}

// feedbackLoop relays client RTCP, absorbing TWCC in Zhuge mode.
func (r *Relay) feedbackLoop() {
	defer r.wg.Done()
	buf := make([]byte, 64<<10)
	for {
		n, _, err := r.fbConn.ReadFromUDP(buf)
		if err != nil {
			return
		}
		if r.cfg.Zhuge {
			if pt, fmtField, _, err := packet.RTCPKind(buf[:n]); err == nil &&
				pt == packet.RTCPTypeRTPFB && fmtField == packet.RTPFBTWCC {
				r.mu.Lock()
				r.stats.ClientTWCCDrops++
				r.mu.Unlock()
				continue
			}
		}
		// Counted before the write, like MediaOut in drainLoop.
		r.mu.Lock()
		r.stats.FeedbackRelayed++
		r.mu.Unlock()
		if _, err := r.fbConn.WriteToUDP(buf[:n], r.server); err != nil {
			r.mu.Lock()
			r.stats.FeedbackRelayed--
			r.mu.Unlock()
		}
	}
}

// twccTicker constructs the AP's own TWCC feedback every interval.
func (r *Relay) twccTicker() {
	defer r.wg.Done()
	tick := time.NewTicker(r.cfg.FeedbackEvery)
	defer tick.Stop()
	for {
		select {
		case <-r.done:
			return
		case <-tick.C:
		}
		r.mu.Lock()
		if len(r.records) == 0 {
			r.mu.Unlock()
			continue
		}
		fb := packet.BuildTWCC(r.ssrc, r.ssrc, r.fbCount, r.records)
		r.fbCount++
		r.records = r.records[:0]
		r.stats.FeedbackBuilt++
		r.mu.Unlock()
		raw := fb.Marshal(nil)
		r.fbConn.WriteToUDP(raw, r.server)
	}
}
