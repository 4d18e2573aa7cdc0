package tcpsim

import (
	"testing"
	"time"

	"github.com/zhuge-project/zhuge/internal/cca"
	"github.com/zhuge-project/zhuge/internal/netem"
	"github.com/zhuge-project/zhuge/internal/queue"
	"github.com/zhuge-project/zhuge/internal/sim"
	"github.com/zhuge-project/zhuge/internal/wireless"
)

var testFlow = netem.FlowKey{SrcIP: 1, DstIP: 2, SrcPort: 100, DstPort: 200, Proto: 6}

// pipe builds sender <-> receiver over symmetric fixed links.
func pipe(s *sim.Simulator, cc cca.TCP, rate float64, delay time.Duration) (*Sender, *Receiver, *netem.Link) {
	fwd := netem.NewLink(s, rate, delay, nil)
	rev := netem.NewLink(s, rate, delay, nil)
	snd := NewSender(s, testFlow, cc, fwd)
	rcv := NewReceiver(s, testFlow.Reverse(), rev)
	fwd.SetDst(rcv)
	rev.SetDst(snd)
	return snd, rcv, fwd
}

func TestBulkTransferDelivers(t *testing.T) {
	s := sim.New(1)
	snd, rcv, _ := pipe(s, cca.NewCubic(), 10e6, 25*time.Millisecond)
	const total = 500 * 1000
	snd.Write(total)
	s.RunUntil(30 * time.Second)
	if rcv.Delivered() != total {
		t.Fatalf("delivered %d bytes, want %d (retx=%d rto=%d)", rcv.Delivered(), total, snd.Retransmits(), snd.Timeouts())
	}
	if snd.Acked() != total {
		t.Errorf("sender acked %d, want %d", snd.Acked(), total)
	}
	if snd.InFlight() != 0 {
		t.Errorf("in flight %d after completion", snd.InFlight())
	}
}

func TestRTTEstimate(t *testing.T) {
	s := sim.New(1)
	var samples []time.Duration
	snd, _, _ := pipe(s, cca.NewCubic(), 100e6, 30*time.Millisecond)
	snd.OnRTT = func(_ sim.Time, rtt time.Duration) { samples = append(samples, rtt) }
	snd.Write(100 * 1000)
	s.RunUntil(10 * time.Second)
	if len(samples) == 0 {
		t.Fatal("no RTT samples")
	}
	// Path RTT = 60ms + serialisation; samples should be close to it.
	for _, rtt := range samples {
		if rtt < 60*time.Millisecond || rtt > 80*time.Millisecond {
			t.Fatalf("RTT sample %v outside [60,80]ms", rtt)
		}
	}
	if snd.SRTT() < 60*time.Millisecond || snd.SRTT() > 80*time.Millisecond {
		t.Errorf("srtt %v", snd.SRTT())
	}
}

// lossyHop drops the packets whose transport Seq is in drop (first pass only).
type lossyHop struct {
	out     netem.Receiver
	drop    map[uint64]bool
	dropped int
}

func (l *lossyHop) Receive(p *netem.Packet) {
	if l.drop[p.Seq] {
		delete(l.drop, p.Seq)
		l.dropped++
		return
	}
	l.out.Receive(p)
}

func TestFastRetransmitRecoversLoss(t *testing.T) {
	s := sim.New(1)
	fwd := netem.NewLink(s, 10e6, 20*time.Millisecond, nil)
	rev := netem.NewLink(s, 10e6, 20*time.Millisecond, nil)
	hop := &lossyHop{drop: map[uint64]bool{uint64(cca.MSS) * 5: true}}
	snd := NewSender(s, testFlow, cca.NewCubic(), hop)
	rcv := NewReceiver(s, testFlow.Reverse(), rev)
	hop.out = fwd
	fwd.SetDst(rcv)
	rev.SetDst(snd)

	const total = 200 * 1000
	snd.Write(total)
	s.RunUntil(20 * time.Second)
	if rcv.Delivered() != total {
		t.Fatalf("delivered %d, want %d", rcv.Delivered(), total)
	}
	if hop.dropped != 1 {
		t.Fatalf("dropped %d, want 1", hop.dropped)
	}
	if snd.Retransmits() == 0 {
		t.Error("loss should trigger a retransmission")
	}
	if snd.Timeouts() > 0 {
		t.Errorf("single loss recovered via %d RTOs; fast retransmit expected", snd.Timeouts())
	}
}

// blackhole drops everything while active.
type blackhole struct {
	out    netem.Receiver
	active bool
}

func (b *blackhole) Receive(p *netem.Packet) {
	if !b.active {
		b.out.Receive(p)
	}
}

func TestRTORecoversFromBlackout(t *testing.T) {
	s := sim.New(1)
	fwd := netem.NewLink(s, 10e6, 20*time.Millisecond, nil)
	rev := netem.NewLink(s, 10e6, 20*time.Millisecond, nil)
	hole := &blackhole{out: fwd}
	snd := NewSender(s, testFlow, cca.NewCubic(), hole)
	rcv := NewReceiver(s, testFlow.Reverse(), rev)
	fwd.SetDst(rcv)
	rev.SetDst(snd)

	const total = 300 * 1000
	snd.Write(total)
	// Black out the path between 100ms and 2s.
	s.At(100*time.Millisecond, func() { hole.active = true })
	s.At(2*time.Second, func() { hole.active = false })
	s.RunUntil(60 * time.Second)
	if rcv.Delivered() != total {
		t.Fatalf("delivered %d, want %d (rto=%d)", rcv.Delivered(), total, snd.Timeouts())
	}
	if snd.Timeouts() == 0 {
		t.Error("blackout should force at least one RTO")
	}
}

func TestAllCCAsCompleteTransfer(t *testing.T) {
	mkCCA := map[string]func() cca.TCP{
		"cubic": func() cca.TCP { return cca.NewCubic() },
		"copa":  func() cca.TCP { return cca.NewCopa() },
		"bbr":   func() cca.TCP { return cca.NewBBR() },
	}
	for name, mk := range mkCCA {
		t.Run(name, func(t *testing.T) {
			s := sim.New(2)
			snd, rcv, _ := pipe(s, mk(), 20e6, 25*time.Millisecond)
			const total = 1000 * 1000
			snd.Write(total)
			s.RunUntil(120 * time.Second)
			if rcv.Delivered() != total {
				t.Fatalf("%s delivered %d of %d (retx=%d rto=%d)", name, rcv.Delivered(), total, snd.Retransmits(), snd.Timeouts())
			}
		})
	}
}

func TestOverWirelessBottleneck(t *testing.T) {
	// End-to-end: sender -> WAN link -> wireless AP queue -> client, acks
	// return over a fixed uplink. Copa should keep delivering through a
	// mid-stream bandwidth drop.
	s := sim.New(3)
	rateFn := func(at sim.Time) float64 {
		if at > 3*time.Second && at < 5*time.Second {
			return 2e6
		}
		return 20e6
	}
	rev := netem.NewLink(s, 100e6, 25*time.Millisecond, nil)
	rcv := NewReceiver(s, testFlow.Reverse(), rev)
	wl := wireless.NewLink(s, wireless.Config{Rate: rateFn}, queue.NewFIFO(0), rcv, s.NewRand("wl"))
	wan := netem.NewLink(s, 100e6, 25*time.Millisecond, wl)
	snd := NewSender(s, testFlow, cca.NewCopa(), wan)
	rev.SetDst(snd)

	// Steady application supply: 1.5 Mbps in 30KB chunks.
	for at := time.Duration(0); at < 8*time.Second; at += 160 * time.Millisecond {
		s.At(at, func() { snd.Write(30 * 1000) })
	}
	s.RunUntil(30 * time.Second)
	want := uint64(8 * 1000 / 160 * 30 * 1000)
	if rcv.Delivered() != want {
		t.Fatalf("delivered %d, want %d (retx=%d rto=%d)", rcv.Delivered(), want, snd.Retransmits(), snd.Timeouts())
	}
}

func TestAckClockRespectsWindow(t *testing.T) {
	// With a tiny constant cwnd the in-flight bytes never exceed it.
	s := sim.New(1)
	cc := &fixedCwnd{w: 4 * cca.MSS}
	snd, _, _ := pipe(s, cc, 10e6, 20*time.Millisecond)
	snd.Write(500 * 1000)
	maxSeen := 0
	var poll func()
	poll = func() {
		if f := snd.InFlight(); f > maxSeen {
			maxSeen = f
		}
		if s.Now() < 5*time.Second {
			s.After(time.Millisecond, poll)
		}
	}
	s.After(0, poll)
	s.RunUntil(5 * time.Second)
	if maxSeen > 4*cca.MSS {
		t.Errorf("in-flight reached %d, window is %d", maxSeen, 4*cca.MSS)
	}
}

// fixedCwnd holds the window at w and records when RTOs fire.
type fixedCwnd struct {
	w    int
	rtos []sim.Time
}

func (f *fixedCwnd) Name() string                { return "fixed" }
func (f *fixedCwnd) OnAck(cca.AckEvent)          {}
func (f *fixedCwnd) OnLoss(sim.Time)             {}
func (f *fixedCwnd) OnRTO(now sim.Time)          { f.rtos = append(f.rtos, now) }
func (f *fixedCwnd) CWND() int                   { return f.w }
func (f *fixedCwnd) PacingRate(sim.Time) float64 { return 0 }

// TestPropertyReliableUnderRandomLoss: whatever random loss pattern the
// path applies (up to ~15%), every byte is eventually delivered in order.
func TestPropertyReliableUnderRandomLoss(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		seed := seed
		s := sim.New(seed)
		rng := s.NewRand("loss")
		fwd := netem.NewLink(s, 10e6, 20*time.Millisecond, nil)
		rev := netem.NewLink(s, 10e6, 20*time.Millisecond, nil)
		drop := netem.ReceiverFunc(func(p *netem.Packet) {
			if rng.Float64() < 0.15 {
				return
			}
			fwd.Receive(p)
		})
		snd := NewSender(s, testFlow, cca.NewCubic(), drop)
		rcv := NewReceiver(s, testFlow.Reverse(), rev)
		fwd.SetDst(rcv)
		rev.SetDst(snd)
		const total = 150 * 1000
		snd.Write(total)
		s.RunUntil(5 * time.Minute)
		if rcv.Delivered() != total {
			t.Errorf("seed %d: delivered %d of %d (retx=%d rto=%d)",
				seed, rcv.Delivered(), total, snd.Retransmits(), snd.Timeouts())
		}
	}
}

// TestRTOBackoffIsCapped sends into a path that drops everything for three
// simulated hours: the RTO doubles from one second up to a minute and then
// fires a minute apart. Shifting the RTO by the backoff unbounded overflowed
// after 34 timeouts and scheduled the next one in the past.
func TestRTOBackoffIsCapped(t *testing.T) {
	s := sim.New(1)
	cc := &fixedCwnd{w: 10 * cca.MSS}
	snd := NewSender(s, testFlow, cc, netem.ReceiverFunc(func(*netem.Packet) {}))
	snd.Write(cca.MSS)
	s.RunUntil(3 * time.Hour)
	// 1+2+4+8+16+32 s, then a minute apart: 6 + 178 timeouts.
	if snd.Timeouts() != 184 || len(cc.rtos) != 184 {
		t.Fatalf("%d timeouts (%d told to the controller), want 184", snd.Timeouts(), len(cc.rtos))
	}
	var prev sim.Time
	for i, at := range cc.rtos {
		want := time.Minute
		if i < 6 {
			want = time.Second << i
		}
		if at-prev != want {
			t.Fatalf("timeout %d came %v after the one before, want %v", i+1, at-prev, want)
		}
		prev = at
	}
}
