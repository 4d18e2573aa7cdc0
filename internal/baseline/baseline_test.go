package baseline

import (
	"testing"
	"time"

	"github.com/zhuge-project/zhuge/internal/netem"
	"github.com/zhuge-project/zhuge/internal/queue"
	"github.com/zhuge-project/zhuge/internal/sim"
	"github.com/zhuge-project/zhuge/internal/transport/tcpsim"
)

var flow = netem.FlowKey{SrcIP: 1, DstIP: 2, SrcPort: 7, DstPort: 8, Proto: 6}

func dataPkt(seq uint64, size int) *netem.Packet {
	return &netem.Packet{Flow: flow, Kind: netem.KindData, Size: size, Seq: seq}
}

func TestABCMarksAccelerateWhenIdle(t *testing.T) {
	s := sim.New(1)
	q := queue.NewFIFO(0)
	r := NewABCRouter(s, q)
	// Empty queue, steady drain: delay below target, target rate ~ eta*mu
	// exceeds the incoming rate -> mostly accelerate.
	now := sim.Time(0)
	for i := 0; i < 200; i++ {
		now += 5 * time.Millisecond
		p := dataPkt(uint64(i), 1200)
		r.OnDequeue(now, p)
		if i > 50 && p.ABCMark == 0 {
			t.Fatal("packet left unmarked")
		}
	}
	if r.Accelerates() <= r.Brakes() {
		t.Errorf("idle queue: accel=%d brake=%d, want mostly accelerate", r.Accelerates(), r.Brakes())
	}
}

func TestABCBrakesUnderStandingQueue(t *testing.T) {
	s := sim.New(1)
	q := queue.NewFIFO(0)
	r := NewABCRouter(s, q)
	// A deep standing queue (>> target delay at the drain rate) forces the
	// target rate toward zero: brakes dominate.
	for i := 0; i < 200; i++ {
		q.Enqueue(0, dataPkt(uint64(1000+i), 1200))
	}
	now := sim.Time(0)
	accelLate, brakeLate := 0, 0
	for i := 0; i < 200; i++ {
		now += 5 * time.Millisecond
		p := dataPkt(uint64(i), 1200)
		r.OnDequeue(now, p)
		if i > 100 {
			if p.ABCMark == 1 {
				accelLate++
			} else {
				brakeLate++
			}
		}
	}
	if brakeLate <= accelLate {
		t.Errorf("standing queue: accel=%d brake=%d late marks, want mostly brake", accelLate, brakeLate)
	}
}

func TestABCIgnoresNonData(t *testing.T) {
	s := sim.New(1)
	r := NewABCRouter(s, queue.NewFIFO(0))
	p := &netem.Packet{Flow: flow, Kind: netem.KindAck, Size: 64}
	r.OnDequeue(time.Millisecond, p)
	if p.ABCMark != 0 {
		t.Error("ACKs must not be marked")
	}
}

type ackLog struct {
	acks []tcpsim.AckInfo
}

func (a *ackLog) Receive(p *netem.Packet) {
	if info, ok := tcpsim.AckOf(p); ok {
		a.acks = append(a.acks, info)
	}
}

// tcpPacket returns a packet of flow carrying the TCP header hdr.
func tcpPacket(flow netem.FlowKey, hdr interface{ Put(*netem.Packet) }) *netem.Packet {
	p := &netem.Packet{Flow: flow}
	hdr.Put(p)
	return p
}

func TestFastAckSynthesizesCumulativeAcks(t *testing.T) {
	s := sim.New(1)
	out := &ackLog{}
	fa := NewFastAck(s, out)
	fa.Optimize(flow)

	deliver := func(seq uint64, length int) {
		fa.OnDelivered(tcpPacket(flow, tcpsim.Segment{Seq: seq, Len: length, SentAt: s.Now()}))
	}
	deliver(0, 1000)
	deliver(1000, 1000)
	// Out of order: 3000 before 2000.
	deliver(3000, 1000)
	deliver(2000, 1000)

	if len(out.acks) != 4 {
		t.Fatalf("synthesized %d acks, want 4", len(out.acks))
	}
	wantAcks := []uint64{1000, 2000, 2000, 4000}
	for i, want := range wantAcks {
		if out.acks[i].Ack != want {
			t.Errorf("ack %d = %d, want %d", i, out.acks[i].Ack, want)
		}
	}
	if fa.Synthesized() != 4 {
		t.Errorf("Synthesized() = %d", fa.Synthesized())
	}
}

func TestFastAckAbsorbsClientAcks(t *testing.T) {
	s := sim.New(1)
	out := &ackLog{}
	fa := NewFastAck(s, out)
	fa.Optimize(flow)
	in := fa.UplinkIn()

	// Client ACK of the optimised flow: absorbed.
	in.Receive(tcpPacket(flow.Reverse(), tcpsim.AckInfo{Ack: 500}))
	if len(out.acks) != 0 || fa.Absorbed() != 1 {
		t.Errorf("client ack not absorbed: forwarded=%d absorbed=%d", len(out.acks), fa.Absorbed())
	}
	// An unrelated flow's ACK passes through.
	other := netem.FlowKey{SrcIP: 9, DstIP: 9, SrcPort: 1, DstPort: 1, Proto: 6}
	in.Receive(tcpPacket(other, tcpsim.AckInfo{Ack: 7}))
	if len(out.acks) != 1 {
		t.Error("unoptimised flow's ack should pass through")
	}
}

func TestFastAckIgnoresUnoptimizedDeliveries(t *testing.T) {
	s := sim.New(1)
	out := &ackLog{}
	fa := NewFastAck(s, out)
	fa.OnDelivered(tcpPacket(flow, tcpsim.Segment{Seq: 0, Len: 48}))
	if fa.Synthesized() != 0 {
		t.Error("unoptimised flow should not get synthetic acks")
	}
}
