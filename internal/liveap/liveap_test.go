package liveap

import (
	"math"
	"net"
	"slices"
	"testing"
	"time"

	"github.com/zhuge-project/zhuge/internal/packet"
	"github.com/zhuge-project/zhuge/internal/trace"
)

// startRelay brings up a relay on loopback ephemeral ports with stub
// server/client sockets, returning the relay and both endpoints.
func startRelay(t *testing.T, zhuge bool, rate float64) (*Relay, *net.UDPConn, *net.UDPConn) {
	t.Helper()
	return startRelayWith(t, Config{Rate: rate, Zhuge: zhuge})
}

// startRelayWith is startRelay for a Config whose shaping fields are set;
// it fills in the addresses and the feedback interval.
func startRelayWith(t *testing.T, cfg Config) (*Relay, *net.UDPConn, *net.UDPConn) {
	t.Helper()
	serverSock, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	clientSock, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	cfg.MediaListen, cfg.FeedbackListen = "127.0.0.1:0", "127.0.0.1:0"
	cfg.Client, cfg.Server = clientSock.LocalAddr().String(), serverSock.LocalAddr().String()
	cfg.FeedbackEvery = 20 * time.Millisecond
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		r.Close()
		serverSock.Close()
		clientSock.Close()
	})
	return r, serverSock, clientSock
}

func sendRTP(t *testing.T, from *net.UDPConn, to *net.UDPAddr, twccSeq uint16, size int) {
	t.Helper()
	sendRTPFrom(t, 0x1234, from, to, twccSeq, size)
}

func sendRTPFrom(t *testing.T, ssrc uint32, from *net.UDPConn, to *net.UDPAddr, twccSeq uint16, size int) {
	t.Helper()
	hdr := packet.RTPHeader{PayloadType: 96, Seq: twccSeq, SSRC: ssrc, HasTWCC: true, TWCCSeq: twccSeq}
	wire := hdr.Marshal(nil, make([]byte, size))
	if _, err := from.WriteToUDP(wire, to); err != nil {
		t.Fatal(err)
	}
}

func TestRelayForwardsMedia(t *testing.T) {
	r, serverSock, clientSock := startRelay(t, false, 10e6)
	for i := 0; i < 10; i++ {
		sendRTP(t, serverSock, r.MediaAddr(), uint16(i), 500)
	}
	clientSock.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 2048)
	got := 0
	for got < 10 {
		n, err := clientSock.Read(buf)
		if err != nil {
			t.Fatalf("received %d/10 packets: %v", got, err)
		}
		var hdr packet.RTPHeader
		if _, err := hdr.Unmarshal(buf[:n]); err != nil {
			t.Fatalf("bad RTP forwarded: %v", err)
		}
		got++
	}
	st := r.Stats()
	if st.MediaIn != 10 || st.MediaOut != 10 {
		t.Errorf("stats %+v, want 10 in / 10 out", st)
	}
}

// TestZhugeRelayBuildsTWCC shapes the relay to 1 Mbit/s, 10 ms of airtime
// per packet, and sends a packet every 2 ms, so the queue builds. The AP
// reports every packet in TWCC it builds from its predictions, and later
// packets are reported arriving progressively later: the predicted queueing
// delay rises with the queue.
func TestZhugeRelayBuildsTWCC(t *testing.T) {
	const n, gap, base = 60, 2 * time.Millisecond, 100
	r, serverSock, _ := startRelay(t, true, 1e6)
	sent := make([]time.Duration, n) // on the relay's clock
	start := time.Now()
	for i := 0; i < n; i++ {
		// A fixed schedule: a late wake-up is made up, so the offered rate
		// stays five times the shaped one.
		time.Sleep(time.Until(start.Add(time.Duration(i) * gap)))
		sent[i] = r.Now()
		sendRTP(t, serverSock, r.MediaAddr(), uint16(base+i), shapedPayload)
	}
	serverSock.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 2048)
	delay := map[int]time.Duration{} // reported arrival - send, by packet
	for len(delay) < n {
		m, err := serverSock.Read(buf)
		if err != nil {
			t.Fatalf("AP feedback reported %d of %d packets: %v", len(delay), n, err)
		}
		fb, err := packet.UnmarshalTWCC(buf[:m])
		if err != nil {
			t.Fatalf("AP feedback not TWCC: %v", err)
		}
		if fb.MediaSSRC != 0x1234 {
			t.Fatalf("feedback SSRC %#x, want 0x1234", fb.MediaSSRC)
		}
		for _, a := range fb.Arrivals() {
			i := int(a.Seq) - base
			if i < 0 || i >= n {
				t.Fatalf("feedback reports sequence %d, outside the sent %d..%d", a.Seq, base, base+n-1)
			}
			delay[i] = a.At - sent[i]
		}
	}
	// Medians, so that one early prediction made before the first dequeue
	// (no rate measured yet) cannot decide the outcome.
	median := func(from int) time.Duration {
		d := make([]time.Duration, 0, n/3)
		for i := from; i < from+n/3; i++ {
			d = append(d, delay[i])
		}
		slices.Sort(d)
		return d[len(d)/2]
	}
	early, late := median(0), median(n-n/3)
	t.Logf("median reported one-way delay: %v over the first %d packets, %v over the last", early, n/3, late)
	if late < early+100*time.Millisecond {
		t.Errorf("the growing queue added %v to the median reported delay, want at least 100 ms", late-early)
	}
}

// TestTwoSSRCsEachGetTheirOwnFeedback sends two senders' media through one
// relay: both cross it, and every message the AP builds covers one SSRC's
// sequence space only - two spaces interleaved in one message would be wrong
// for both senders.
func TestTwoSSRCsEachGetTheirOwnFeedback(t *testing.T) {
	r, serverSock, clientSock := startRelay(t, true, 10e6)
	const each = 15
	base := map[uint32]uint16{0x1234: 100, 0xbeef: 5000}
	for i := 0; i < each; i++ {
		for ssrc, b := range base {
			sendRTPFrom(t, ssrc, serverSock, r.MediaAddr(), b+uint16(i), 300)
		}
		time.Sleep(time.Millisecond)
	}
	clientSock.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 2048)
	for got := 0; got < 2*each; got++ {
		if _, err := clientSock.Read(buf); err != nil {
			t.Fatalf("client received %d of %d packets: %v", got, 2*each, err)
		}
	}
	if st := r.Stats(); st.MediaOut != 2*each {
		t.Errorf("stats %+v, want %d forwarded", st, 2*each)
	}
	// Every message, until both flows' last packets have been reported.
	serverSock.SetReadDeadline(time.Now().Add(2 * time.Second))
	covered := map[uint32]int{}
	for covered[0x1234] < each || covered[0xbeef] < each {
		n, err := serverSock.Read(buf)
		if err != nil {
			t.Fatalf("feedback covered %v of %d sequence numbers per SSRC: %v", covered, each, err)
		}
		fb, err := packet.UnmarshalTWCC(buf[:n])
		if err != nil {
			t.Fatalf("AP feedback not TWCC: %v", err)
		}
		b, known := base[fb.MediaSSRC]
		if !known {
			t.Fatalf("feedback for SSRC %#x, sent by nobody", fb.MediaSSRC)
		}
		for _, a := range fb.Arrivals() {
			if a.Seq < b || a.Seq >= b+each {
				t.Fatalf("feedback for SSRC %#x reports sequence %d, outside its %d..%d", fb.MediaSSRC, a.Seq, b, b+each-1)
			}
			covered[fb.MediaSSRC]++
		}
	}
}

func TestZhugeRelayAbsorbsClientTWCC(t *testing.T) {
	r, serverSock, clientSock := startRelay(t, true, 10e6)
	// Client sends one TWCC (must be absorbed) and one NACK (forwarded).
	twcc := packet.BuildTWCC(1, 1, 0, []packet.TWCCArrival{{Seq: 5, At: time.Millisecond}}).Marshal(nil)
	nack := (&packet.NACK{SenderSSRC: 1, MediaSSRC: 1, Lost: []uint16{9}}).Marshal(nil)
	clientSock.WriteToUDP(twcc, r.FeedbackAddr())
	clientSock.WriteToUDP(nack, r.FeedbackAddr())

	serverSock.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 2048)
	n, err := serverSock.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := packet.UnmarshalNACK(buf[:n]); err != nil {
		t.Fatalf("expected forwarded NACK, got %x", buf[:n])
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if r.Stats().ClientTWCCDrops == 1 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := r.Stats(); st.ClientTWCCDrops != 1 {
		t.Errorf("client TWCC drops %d, want 1", st.ClientTWCCDrops)
	}
}

// shapedPayload makes a 1250-byte packet on the shaper's books (20 bytes of
// RTP header with the TWCC extension, 28 of UDP/IP): 10 kbit of airtime.
const (
	shapedPayload = 1202
	shapedBits    = 10e3
)

// TestRelayShapesRate pins the shaped rate from both sides. A closed loop
// keeps a window of packets queued at the relay, and the rate delivered
// between the skip-th and the last arrival must be within [0.85, 1.10] of
// the rate asked for; the first arrivals spend the departure clock's
// start-up credit and are skipped.
func TestRelayShapesRate(t *testing.T) {
	for _, c := range []struct {
		name string
		rate float64
		n    int
	}{
		{"20Mbps", 20e6, 300}, // 150 ms of airtime
		{"4Mbps", 4e6, 70},    // 175 ms
	} {
		t.Run(c.name, func(t *testing.T) {
			const window, skip = 32, 8
			r, serverSock, clientSock := startRelay(t, false, c.rate)
			for i := 0; i < window; i++ {
				sendRTP(t, serverSock, r.MediaAddr(), uint16(i), shapedPayload)
			}
			clientSock.SetReadDeadline(time.Now().Add(5 * time.Second))
			buf := make([]byte, 2048)
			var from time.Time
			for got := 0; got < c.n; got++ {
				if _, err := clientSock.Read(buf); err != nil {
					t.Fatalf("got %d/%d: %v", got, c.n, err)
				}
				if got == skip {
					from = time.Now()
				}
				if next := got + window; next < c.n {
					sendRTP(t, serverSock, r.MediaAddr(), uint16(next), shapedPayload)
				}
			}
			span := time.Since(from)
			ratio := float64(c.n-1-skip) * shapedBits / span.Seconds() / c.rate
			if ratio < 0.85 || ratio > 1.10 {
				t.Errorf("%d packets in %v: %.3f of the configured rate, want [0.85, 1.10]", c.n-1-skip, span, ratio)
			}
		})
	}
}

// TestRelayKeepsRateThroughLateWakeups: a backlogged relay whose drain
// wakes up late wins the time back. The test holds the relay mutex for
// 10 ms in every 20, so the drain cannot dequeue while it is held; the
// closed loop of TestRelayShapesRate must still read [0.85, 1.10] of the
// configured rate. A departure clock clamped to ~2 ms of credit on every
// pass read 0.52-0.58 here.
func TestRelayKeepsRateThroughLateWakeups(t *testing.T) {
	const rate, n, window, skip = 20e6, 300, 32, 8
	r, serverSock, clientSock := startRelay(t, false, rate)
	stop := make(chan struct{})
	stalled := make(chan struct{})
	go func() {
		defer close(stalled)
		for {
			select {
			case <-stop:
				return
			case <-time.After(10 * time.Millisecond):
			}
			r.mu.Lock()
			time.Sleep(10 * time.Millisecond)
			r.mu.Unlock()
		}
	}()
	defer func() { close(stop); <-stalled }()
	for i := 0; i < window; i++ {
		sendRTP(t, serverSock, r.MediaAddr(), uint16(i), shapedPayload)
	}
	clientSock.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 2048)
	var from time.Time
	for got := 0; got < n; got++ {
		if _, err := clientSock.Read(buf); err != nil {
			t.Fatalf("got %d/%d: %v", got, n, err)
		}
		if got == skip {
			from = time.Now()
		}
		if next := got + window; next < n {
			sendRTP(t, serverSock, r.MediaAddr(), uint16(next), shapedPayload)
		}
	}
	span := time.Since(from)
	ratio := float64(n-1-skip) * shapedBits / span.Seconds() / rate
	if ratio < 0.85 || ratio > 1.10 {
		t.Errorf("%d packets in %v: %.3f of the configured rate, want [0.85, 1.10]", n-1-skip, span, ratio)
	}
}

// TestRelayIdleCreditIsCapped: an idle link saves up no burst. After 50 ms
// with an empty queue, a batch sent back to back may skip at most the
// departure clock's credit (~2 packets at 1 ms each), where a clock left
// 50 ms behind would let the whole batch out at once.
func TestRelayIdleCreditIsCapped(t *testing.T) {
	const rate, batch = 10e6, 40
	r, serverSock, clientSock := startRelay(t, false, rate)
	clientSock.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 2048)
	sendRTP(t, serverSock, r.MediaAddr(), 0, shapedPayload)
	if _, err := clientSock.Read(buf); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	start := time.Now()
	for i := 1; i <= batch; i++ {
		sendRTP(t, serverSock, r.MediaAddr(), uint16(i), shapedPayload)
	}
	for got := 0; got < batch; got++ {
		if _, err := clientSock.Read(buf); err != nil {
			t.Fatalf("got %d/%d: %v", got, batch, err)
		}
	}
	airtime := time.Duration(shapedBits / rate * float64(time.Second))
	if took, want := time.Since(start), (batch-5)*airtime; took < want {
		t.Errorf("%d packets of %v airtime after an idle 50 ms took %v, want at least %v", batch, airtime, took, want)
	}
}

// TestRelayHoldsQueueThroughOutage: while the trace reads 0 bit/s the link is
// out, not at line rate. The queue holds what it can, what it turns away is
// counted as dropped, and what it held goes out once the rate comes back.
func TestRelayHoldsQueueThroughOutage(t *testing.T) {
	const held, sent = 5, 10
	outage := &trace.Trace{Samples: []trace.Sample{{At: 0, Rate: 0}, {At: 100 * time.Millisecond, Rate: 10e6}}}
	start := time.Now()
	r, serverSock, clientSock := startRelayWith(t, Config{Trace: outage, QueueLimit: held * shapedBits / 8})
	for i := 0; i < sent; i++ {
		sendRTP(t, serverSock, r.MediaAddr(), uint16(i), shapedPayload)
	}
	clientSock.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 2048)
	for got := 0; got < held; got++ {
		if _, err := clientSock.Read(buf); err != nil {
			t.Fatalf("got %d/%d: %v", got, held, err)
		}
		if got == 0 {
			if at := time.Since(start); at < 100*time.Millisecond {
				t.Errorf("first packet forwarded %v after start, inside the 100 ms outage", at)
			}
		}
	}
	if st := r.Stats(); st.MediaIn != sent || st.MediaOut != held || st.Dropped != sent-held {
		t.Errorf("stats %+v, want %d in, %d out, %d dropped", st, sent, held, sent-held)
	}
}

// TestNewRefusesBadRates: a rate that is not a positive finite number is an
// error, not an unshaped relay; with a Trace, Rate is ignored.
func TestNewRefusesBadRates(t *testing.T) {
	steady := trace.Constant("steady", 10e6, time.Second)
	for _, c := range []struct {
		name  string
		rate  float64
		trace *trace.Trace
		ok    bool
	}{
		{"zero", 0, nil, false},
		{"negative", -1, nil, false},
		{"NaN", math.NaN(), nil, false},
		{"+Inf", math.Inf(1), nil, false},
		{"-Inf", math.Inf(-1), nil, false},
		{"positive", 20e6, nil, true},
		{"trace", 0, steady, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			r, err := New(Config{MediaListen: "127.0.0.1:0", FeedbackListen: "127.0.0.1:0",
				Client: "127.0.0.1:9", Server: "127.0.0.1:9", Rate: c.rate, Trace: c.trace})
			if err == nil {
				r.Close()
			}
			if (err == nil) != c.ok {
				t.Errorf("New(Rate %v, Trace %v) error = %v, want ok %v", c.rate, c.trace != nil, err, c.ok)
			}
		})
	}
}
