package ackclock

import (
	"testing"
	"time"

	"github.com/zhuge-project/zhuge/internal/cca"
	"github.com/zhuge-project/zhuge/internal/netem"
	"github.com/zhuge-project/zhuge/internal/sim"
)

func TestEstimatorFollowsRFC6298(t *testing.T) {
	var c Sender
	var seen []time.Duration
	c.OnRTT = func(_ sim.Time, rtt time.Duration) { seen = append(seen, rtt) }
	for _, step := range []struct {
		rtt, srtt, rttvar, rto time.Duration
	}{
		// The first sample: srtt = rtt, rttvar = rtt/2.
		{100 * time.Millisecond, 100 * time.Millisecond, 50 * time.Millisecond, 300 * time.Millisecond},
		// rttvar = (3*50 + |100-60|)/4, srtt = (7*100 + 60)/8.
		{60 * time.Millisecond, 95 * time.Millisecond, 47500 * time.Microsecond, 285 * time.Millisecond},
		// rttvar = (3*47.5 + |95-95|)/4, srtt unchanged; 95 + 4*35.625 = 237.5.
		{95 * time.Millisecond, 95 * time.Millisecond, 35625 * time.Microsecond, 237500 * time.Microsecond},
	} {
		c.Sample(0, step.rtt)
		if c.srtt != step.srtt || c.rttvar != step.rttvar || c.rto != step.rto {
			t.Fatalf("after %v: srtt %v rttvar %v rto %v, want %v %v %v",
				step.rtt, c.srtt, c.rttvar, c.rto, step.srtt, step.rttvar, step.rto)
		}
	}
	if len(seen) != 3 || seen[1] != 60*time.Millisecond {
		t.Errorf("OnRTT saw %v, want every sample", seen)
	}

	var fast, slow Sender
	fast.Sample(0, 10*time.Millisecond) // 10 + 4*5 ms
	slow.Sample(0, 30*time.Second)      // 30 + 4*15 s
	if fast.rto != minRTO || slow.rto != maxRTO {
		t.Errorf("rto %v and %v, want the %v floor and the %v ceiling", fast.rto, slow.rto, minRTO, maxRTO)
	}
}

// stubCC never limits the sender and records what it is told.
type stubCC struct {
	pacing float64
	acks   []cca.AckEvent
	rtos   []sim.Time
}

func (c *stubCC) Name() string                { return "stub" }
func (c *stubCC) OnAck(ev cca.AckEvent)       { c.acks = append(c.acks, ev) }
func (c *stubCC) OnLoss(sim.Time)             {}
func (c *stubCC) OnRTO(now sim.Time)          { c.rtos = append(c.rtos, now) }
func (c *stubCC) CWND() int                   { return 1 << 30 }
func (c *stubCC) PacingRate(sim.Time) float64 { return c.pacing }

// blackhole is a clock over a path that loses everything: what it sends stays
// in flight, and a timeout sends one more byte.
type blackhole struct {
	Sender
	s        *sim.Simulator
	cc       stubCC
	inFlight int
}

func newBlackhole() *blackhole {
	b := &blackhole{s: sim.New(1)}
	b.Init(b.s, netem.FlowKey{}, &b.cc, netem.ReceiverFunc(func(*netem.Packet) {}), 40, Hooks{
		InFlight:    func() int { return b.inFlight },
		LostWaiting: func() bool { return false },
		Send: func() int {
			off, n := b.Take()
			b.inFlight += n
			b.Emit(off, 0, n, nil)
			return n
		},
		Timeout: func() { b.Emit(0, 0, 1, nil) },
	})
	return b
}

// wantGaps checks that timeouts came at the RTO, doubled per timeout up to a
// minute, counting from from.
func wantGaps(t *testing.T, rtos []sim.Time, from sim.Time, rto time.Duration) {
	t.Helper()
	gap := rto
	for i, at := range rtos {
		if at-from != gap {
			t.Fatalf("timeout %d came %v after the one before, want %v", i+1, at-from, gap)
		}
		from, gap = at, min(2*gap, maxRTO)
	}
}

func TestBackoffDoublesToAMinuteAndResetsOnNewData(t *testing.T) {
	b := newBlackhole()
	b.Write(cca.MSS)
	b.s.RunUntil(3 * time.Hour)
	// 1+2+4+8+16+32 s, then a minute apart: 6 + 178 timeouts in 3 h.
	if b.Timeouts() != 184 || len(b.cc.rtos) != 184 {
		t.Fatalf("%d timeouts (%d told to the controller), want 184", b.Timeouts(), len(b.cc.rtos))
	}
	wantGaps(t, b.cc.rtos, 0, initialRTO)
	if b.rtoBackoff != maxBackoff {
		t.Errorf("backoff %d after 184 timeouts, want it held at %d", b.rtoBackoff, maxBackoff)
	}

	// New data acknowledged: the backoff starts over from the RTO.
	now := b.s.Now()
	b.NewDataAcked(now, 1, 0, 0, 1)
	if b.rtoBackoff != 0 || !b.rtoTimer.Pending() || b.rtoTimer.At() != now+initialRTO {
		t.Fatalf("after new data: backoff %d, RTO at %v, want 0 and %v", b.rtoBackoff, b.rtoTimer.At(), now+initialRTO)
	}
	b.cc.rtos = nil
	b.s.RunUntil(now + 10*time.Minute)
	wantGaps(t, b.cc.rtos, now, initialRTO)

	// Nothing left in flight: the RTO stops.
	b.inFlight = 0
	b.NewDataAcked(b.s.Now(), cca.MSS, 0, 0, cca.MSS)
	if b.rtoTimer.Pending() {
		t.Error("RTO still armed with nothing in flight")
	}
	if ev := b.cc.acks[len(b.cc.acks)-1]; !ev.AppLimited || ev.AckedBytes != cca.MSS {
		t.Errorf("controller saw %+v, want an app-limited ACK of %d bytes", ev, cca.MSS)
	}
}

func TestPacedSendsAreSpacedByTheirWireSize(t *testing.T) {
	b := newBlackhole()
	b.cc.pacing = 1e6 // 1400+40 bytes take 11.52 ms at 1 Mbit/s
	var sent []sim.Time
	b.out = netem.ReceiverFunc(func(p *netem.Packet) { sent = append(sent, p.SentAt) })
	b.Write(3 * cca.MSS)
	b.s.RunUntil(time.Second / 2)
	gap := time.Duration(float64(cca.MSS+40) * 8 / 1e6 * float64(time.Second))
	if len(sent) != 3 || sent[1] != gap || sent[2] != 2*gap {
		t.Fatalf("sends at %v, want 0, %v and %v", sent, gap, 2*gap)
	}
	if n := b.s.Pending(); n != 1 {
		t.Errorf("%d events pending once everything is sent, want 1 (the RTO)", n)
	}
}
