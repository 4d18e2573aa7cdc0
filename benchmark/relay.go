package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/zhuge-project/zhuge/internal/liveap"
	"github.com/zhuge-project/zhuge/internal/packet"
)

const (
	relayDatagram   = 1200 // RTP header, TWCC extension and payload
	relayWireSize   = relayDatagram + 28
	relayMediaSSRC  = 0x5a487547
	relayClientSSRC = 0x00c11e47 // sender SSRC of the client's own TWCC
	relayFeedback   = 40 * time.Millisecond
	relayIdleLimit  = 2 * time.Second // a receiver that hears nothing this long gives up
)

// relayHarness is a live relay on loopback with the benchmark's own server
// and client sockets around it. Deliveries are counted at the client socket,
// never from Relay.Stats, whose MediaOut trails the write.
type relayHarness struct {
	relay  *liveap.Relay
	server *net.UDPConn // sends media, receives the feedback the relay emits
	client *net.UDPConn // receives media, sends the client's RTCP
	epoch  time.Time

	template []byte // payload pattern every packet carries after its stamp

	// Feedback read at the server socket, for the harness's lifetime.
	fbWG       sync.WaitGroup
	fbPackets  atomic.Int64 // parseable AP-built TWCC messages
	fbCovered  atomic.Int64 // sequence numbers they report received
	fbLeaked   atomic.Int64 // client-built TWCC that got past the relay
	fbBad      atomic.Int64 // feedback that did not parse
	fbMu       sync.Mutex
	fbKeep     bool // paced pass: keep each message's arrival time and coverage
	fbMessages []fbMessage
}

type fbMessage struct {
	at   time.Duration // since epoch
	seqs []uint16
}

func openRelay(rate float64, zhuge bool) (*relayHarness, error) {
	loop := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)}
	server, err := net.ListenUDP("udp", loop)
	if err != nil {
		return nil, err
	}
	client, err := net.ListenUDP("udp", loop)
	if err != nil {
		server.Close()
		return nil, err
	}
	relay, err := liveap.New(liveap.Config{
		MediaListen: "127.0.0.1:0", FeedbackListen: "127.0.0.1:0",
		Client: client.LocalAddr().String(), Server: server.LocalAddr().String(),
		Rate: rate, Zhuge: zhuge, FeedbackEvery: relayFeedback,
	})
	if err != nil {
		server.Close()
		client.Close()
		return nil, fmt.Errorf("liveap.New: %w", err)
	}
	h := &relayHarness{relay: relay, server: server, client: client, epoch: time.Now()}
	h.template = make([]byte, relayDatagram-20)
	for i := range h.template {
		h.template[i] = byte(i*31 + 7)
	}
	h.fbWG.Add(1)
	go h.readFeedback()
	return h, nil
}

// close stops the relay and the feedback reader and waits for both.
func (h *relayHarness) close() {
	if h == nil {
		return
	}
	h.relay.Close()
	h.server.Close()
	h.client.Close()
	h.fbWG.Wait()
}

// settle waits until done holds or the limit has passed: the relay emits its
// feedback on its own 40 ms clock, so counts read right after the last
// delivery can be one interval short.
func settle(limit time.Duration, done func() bool) {
	for end := time.Now().Add(limit); !done() && time.Now().Before(end); {
		time.Sleep(time.Millisecond)
	}
}

// readFeedback drains the server socket until it is closed.
func (h *relayHarness) readFeedback() {
	defer h.fbWG.Done()
	buf := make([]byte, 64<<10)
	for {
		n, err := h.server.Read(buf)
		if err != nil {
			return // closed
		}
		at := time.Since(h.epoch)
		fb, err := packet.UnmarshalTWCC(buf[:n])
		if err != nil {
			h.fbBad.Add(1)
			continue
		}
		if fb.SenderSSRC == relayClientSSRC {
			h.fbLeaked.Add(1)
			continue
		}
		arrivals := fb.Arrivals()
		h.fbPackets.Add(1)
		h.fbCovered.Add(int64(len(arrivals)))
		h.fbMu.Lock()
		if h.fbKeep {
			m := fbMessage{at: at}
			for _, a := range arrivals {
				m.seqs = append(m.seqs, a.Seq)
			}
			h.fbMessages = append(h.fbMessages, m)
		}
		h.fbMu.Unlock()
	}
}

// sender marshals and writes media packets; it owns its buffers, so the
// receiver can read the shared template while packets go out.
type relaySender struct {
	h       *relayHarness
	payload []byte // the template, stamped per packet with index and due time
	wire    []byte
}

func (h *relayHarness) newSender() *relaySender {
	return &relaySender{h: h, payload: append([]byte(nil), h.template...), wire: make([]byte, 0, relayDatagram)}
}

// send writes media packet i, stamped with its due time, to the relay.
func (s *relaySender) send(i int, due time.Duration) error {
	binary.BigEndian.PutUint64(s.payload[0:8], uint64(i))
	binary.BigEndian.PutUint64(s.payload[8:16], uint64(due))
	hdr := packet.RTPHeader{PayloadType: 96, Seq: uint16(i), Timestamp: uint32(i),
		SSRC: relayMediaSSRC, HasTWCC: true, TWCCSeq: uint16(i)}
	s.wire = hdr.Marshal(s.wire[:0], s.payload)
	_, err := s.h.server.WriteToUDP(s.wire, s.h.relay.MediaAddr())
	return err
}

// relayRun is what one pass through the relay measured at the sockets.
type relayRun struct {
	sent, delivered int
	bad             int           // out of order, duplicated or corrupted at the client
	start           time.Duration // first send, since the harness's epoch
	wall            time.Duration // first send to last delivery
	span            time.Duration // first delivery to last delivery
	latencies       []float64     // us, from each packet's due time; paced only
	genLateMax      time.Duration // how late the open-loop generator ran at worst
	clientFeedback  int           // TWCC messages the client sent toward the relay
	timedOut        bool
}

func (r relayRun) pps() float64 {
	if r.wall <= 0 {
		return 0
	}
	return float64(r.delivered) / r.wall.Seconds()
}

// shapedRatio is the delivered wire rate between the first and the last
// delivery as a share of the configured rate.
func (r relayRun) shapedRatio(rate float64) float64 {
	if r.delivered < 2 || r.span <= 0 {
		return 0
	}
	return float64(r.delivered-1) * relayWireSize * 8 / r.span.Seconds() / rate
}

// shapedGap is the mean time between deliveries beyond the airtime the
// configured rate gives one packet.
func (r relayRun) shapedGap(rate float64) time.Duration {
	if r.delivered < 2 {
		return 0
	}
	airtime := time.Duration(relayWireSize * 8 / rate * float64(time.Second))
	return r.span/time.Duration(r.delivered-1) - airtime
}

// receive reads n media packets at the client socket, checking order and
// payload, and hands a credit back per delivery. With feedback set it also
// plays a WebRTC client: it reports its arrivals to the relay as TWCC every
// 40 ms, which a Zhuge relay must absorb.
func (h *relayHarness) receive(n int, credits chan<- struct{}, abort chan struct{}, feedback bool, res *relayRun) {
	buf := make([]byte, 2048)
	var first, last time.Duration
	var arrivals []packet.TWCCArrival
	var fbCount uint8
	nextFb := time.Since(h.epoch) + relayFeedback
	for res.delivered < n {
		if res.delivered%64 == 0 {
			h.client.SetReadDeadline(time.Now().Add(relayIdleLimit))
		}
		m, err := h.client.Read(buf)
		if err != nil {
			res.timedOut = true
			close(abort)
			break
		}
		now := time.Since(h.epoch)
		var hdr packet.RTPHeader
		payload, err := hdr.Unmarshal(buf[:m])
		switch {
		case err != nil || len(payload) != len(h.template):
			res.bad++
		case binary.BigEndian.Uint64(payload[0:8]) != uint64(res.delivered) ||
			!bytes.Equal(payload[16:], h.template[16:]):
			res.bad++
		}
		if res.delivered == 0 {
			first = now
		}
		last = now
		res.delivered++
		if credits != nil {
			credits <- struct{}{}
		}
		if feedback && len(payload) >= 16 {
			due := time.Duration(binary.BigEndian.Uint64(payload[8:16]))
			res.latencies = append(res.latencies, float64(now-due)/float64(time.Microsecond))
			arrivals = append(arrivals, packet.TWCCArrival{Seq: hdr.TWCCSeq, At: now})
			if now >= nextFb {
				raw := packet.BuildTWCC(relayClientSSRC, relayMediaSSRC, fbCount, arrivals).Marshal(nil)
				if _, err := h.client.WriteToUDP(raw, h.relay.FeedbackAddr()); err == nil {
					res.clientFeedback++
				}
				fbCount++
				arrivals = arrivals[:0]
				nextFb = now + relayFeedback
			}
		}
	}
	res.span = last - first
	if res.delivered > 0 {
		res.wall = last - res.start
	}
}

// closedLoop pushes n packets through the relay keeping at most window in
// flight: the next packet goes out only when a delivery frees a slot.
func (h *relayHarness) closedLoop(n, window int) relayRun {
	res := relayRun{start: time.Since(h.epoch)}
	// One credit per packet allowed in flight.
	credits := make(chan struct{}, window)
	for i := 0; i < window; i++ {
		credits <- struct{}{}
	}
	abort := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		h.receive(n, credits, abort, false, &res)
	}()
	snd := h.newSender()
	sent := 0
send:
	for sent < n {
		select {
		case <-credits:
		case <-abort:
			break send
		}
		if snd.send(sent, 0) != nil {
			break send
		}
		sent++
	}
	if sent < n {
		// The receiver waits for packets that will never come; let it time out.
		h.client.SetReadDeadline(time.Now())
	}
	<-done
	res.sent = sent
	return res
}

// openLoop sends n packets on a fixed schedule whatever the relay does, and
// times each from when it was due.
func (h *relayHarness) openLoop(n int, interval time.Duration) relayRun {
	res := relayRun{start: time.Since(h.epoch)}
	abort := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		h.receive(n, nil, abort, true, &res)
	}()
	snd := h.newSender()
	sent := 0
	var late time.Duration
	for ; sent < n; sent++ {
		due := res.start + time.Duration(sent)*interval
		if d := due - time.Since(h.epoch); d > 0 {
			time.Sleep(d)
		}
		if l := time.Since(h.epoch) - due; l > late {
			late = l
		}
		if snd.send(sent, due) != nil {
			break
		}
	}
	if sent < n {
		h.client.SetReadDeadline(time.Now())
	}
	<-done
	res.sent = sent
	res.genLateMax = late
	return res
}

// relayWorkload is relay-flood or relay-shaped: closed-loop passes through
// one long-lived Zhuge relay.
type relayWorkload struct {
	cfg       config
	shaped    bool
	n, window int
	rate      float64
	h         *relayHarness

	sent, delivered int // over every repeat of the run
	runs            []relayRun
}

func newRelayWorkload(cfg config) *relayWorkload {
	w := &relayWorkload{cfg: cfg, n: 25_000, window: 32, rate: 100e9}
	if cfg.workload == "relay-shaped" {
		w.shaped, w.n, w.window, w.rate = true, 500, 16, 20e6
	}
	if cfg.smoke {
		w.n = 2000
		if w.shaped {
			w.n = 200
		}
	}
	return w
}

func (w *relayWorkload) prepare(tr *tracer, parent spanID) error {
	id := tr.begin(parent, "liveap.new")
	defer tr.end(id)
	w.h.close()
	w.runs, w.sent, w.delivered = nil, 0, 0 // counted per relay, like its own stats
	h, err := openRelay(w.rate, true)
	w.h = h
	return err
}

// checkRun turns one pass's socket counts into operations and problems.
func checkRun(res relayRun) outcome {
	out := outcome{ops: res.sent, failed: res.sent - res.delivered + res.bad}
	if res.timedOut || res.delivered != res.sent {
		out.problems = append(out.problems, fmt.Sprintf("%d of %d packets delivered", res.delivered, res.sent))
	}
	if res.bad > 0 {
		out.problems = append(out.problems, fmt.Sprintf("%d packets out of order or corrupted", res.bad))
	}
	return out
}

func (w *relayWorkload) repeat(tr *tracer, parent spanID) (outcome, error) {
	id := tr.begin(parent, "liveap.closed-loop")
	res := w.h.closedLoop(w.n, w.window)
	tr.end(id)
	w.runs = append(w.runs, res)
	w.sent += res.sent
	w.delivered += res.delivered
	out := checkRun(res)
	if res.sent < w.n {
		return out, fmt.Errorf("sent %d of %d packets, then the relay stopped delivering", res.sent, w.n)
	}
	return out, nil
}

func (w *relayWorkload) results(r *report) {
	settle(4*relayFeedback, func() bool { return w.h.fbPackets.Load() > 0 })
	st := w.h.relay.Stats()
	r.set("liveap.delivered_share", float64(w.delivered)/float64(w.sent))
	r.set("liveap.queue_drops", float64(st.Dropped))
	r.set("liveap.feedback_built", float64(st.FeedbackBuilt))
	covered := float64(w.h.fbCovered.Load()) / float64(w.sent)
	r.set("liveap.twcc_coverage_share", covered)
	if st.Dropped > 0 {
		r.Failed += st.Dropped
		r.problem("the relay's queue dropped %d packets", st.Dropped)
	}
	if w.h.fbPackets.Load() == 0 {
		r.problem("no AP-built TWCC reached the server socket")
	}
	if bad := w.h.fbBad.Load(); bad > 0 {
		r.problem("%d feedback packets at the server socket did not parse", bad)
	}
	var pps, ratio, gap []float64
	for _, run := range w.runs {
		pps = append(pps, run.pps())
		ratio = append(ratio, run.shapedRatio(w.rate))
		gap = append(gap, run.shapedGap(w.rate).Seconds()*1e6)
	}
	if w.shaped {
		r.setFrom("relay_shaped_ratio", maxOf(ratio), ratio)
		r.setFrom("liveap.shaped_gap_us", minOf(gap), gap)
	} else {
		r.setFrom("relay_pps", maxOf(pps), pps)
	}
}

func (w *relayWorkload) layers(rc *runCtx) error {
	if w.shaped {
		return w.shapedLayers(rc)
	}
	r := rc.rep
	r.set("liveap.cpu_us_per_packet", rc.cpu*1e6/float64(w.n))

	// The same flood through a plain relay: what Zhuge's per-packet work costs.
	plain, err := openRelay(w.rate, false)
	if err != nil {
		return err
	}
	id := rc.tr.begin(rc.parent, "liveap.flood-plain")
	res := plain.closedLoop(w.n, w.window)
	rc.tr.end(id)
	plain.close()
	r.account(checkRun(res), "plain flood")
	r.set("liveap.plain_pps", res.pps())
	r.set("liveap.zhuge_cost_ratio", res.pps()/r.Metrics["relay_pps"].Value)
	return w.pacedLayers(rc)
}

// pacedLayers is the open-loop pass: 500 packets/s through a 50 Mbit/s Zhuge
// relay with the processor idle, the client reporting its own TWCC.
func (w *relayWorkload) pacedLayers(rc *runCtx) error {
	r := rc.rep
	const interval = 2 * time.Millisecond
	n := 2500
	if rc.cfg.smoke {
		n = 250
	}
	h, err := openRelay(50e6, true)
	if err != nil {
		return err
	}
	defer h.close()
	h.fbMu.Lock()
	h.fbKeep = true
	h.fbMu.Unlock()
	id := rc.tr.begin(rc.parent, "liveap.paced")
	res := h.openLoop(n, interval)
	rc.tr.end(id)
	// The last TWCC interval is still open at the relay, and the client's
	// last TWCC may still be in its socket.
	settle(time.Second, func() bool {
		return h.fbCovered.Load() >= int64(res.sent) && h.relay.Stats().ClientTWCCDrops >= res.clientFeedback
	})

	r.account(checkRun(res), "paced")
	st := h.relay.Stats()
	if st.Dropped > 0 {
		r.Failed += st.Dropped
		r.problem("paced: the relay's queue dropped %d packets", st.Dropped)
	}
	if leaked := h.fbLeaked.Load(); leaked > 0 {
		r.problem("paced: %d client TWCC messages reached the server", leaked)
	}
	if st.ClientTWCCDrops != res.clientFeedback {
		r.problem("paced: relay absorbed %d of the client's %d TWCC messages", st.ClientTWCCDrops, res.clientFeedback)
	}
	// About one AP-built TWCC per 40 ms (a ticker skips beats when its
	// goroutine is kept waiting, so half is the floor), together covering at
	// least 95 % of what was sent.
	want := int(time.Duration(n) * interval / relayFeedback)
	if got := int(h.fbPackets.Load()); got < want/2 {
		r.problem("paced: %d AP-built TWCC messages in %v, want about %d", got, time.Duration(n)*interval, want)
	}
	if covered := float64(h.fbCovered.Load()) / float64(res.sent); covered < 0.95 {
		r.problem("paced: AP-built TWCC covers %.1f%% of the sent sequence numbers, want 95%%", covered*100)
	}

	sort.Float64s(res.latencies)
	q := func(p float64) float64 {
		if len(res.latencies) == 0 {
			return 0
		}
		return res.latencies[int(p*float64(len(res.latencies)-1))]
	}
	r.set("relay_latency_p50_us", q(0.50))
	r.set("liveap.latency_p99_us", q(0.99))
	r.set("liveap.latency_max_us", q(1))
	r.set("liveap.gen_late_max_us", float64(res.genLateMax)/float64(time.Microsecond))
	r.set("liveap.client_twcc_absorbed", float64(st.ClientTWCCDrops))

	// Feedback age: from when a packet was due to when the AP-built TWCC
	// covering it was read at the server socket - the shortened loop, on
	// real sockets.
	var ages []float64
	h.fbMu.Lock()
	for _, m := range h.fbMessages {
		for _, seq := range m.seqs {
			due := res.start + time.Duration(seq)*interval
			ages = append(ages, float64(m.at-due)/float64(time.Millisecond))
		}
	}
	h.fbMu.Unlock()
	r.set("liveap.feedback_age_p50_ms", median(ages))
	return nil
}

func (w *relayWorkload) shapedLayers(rc *runCtx) error {
	r := rc.rep
	n := 600
	if rc.cfg.smoke {
		n = 60
	}
	const rate = 4e6
	h, err := openRelay(rate, true)
	if err != nil {
		return err
	}
	id := rc.tr.begin(rc.parent, "liveap.shaped-4mbps")
	res := h.closedLoop(n, w.window)
	rc.tr.end(id)
	h.close()
	r.account(checkRun(res), "shaped 4 Mbit/s")
	r.set("liveap.shaped_ratio_4mbps", res.shapedRatio(rate))
	return nil
}

func (w *relayWorkload) close() { w.h.close() }
