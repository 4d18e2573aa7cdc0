package core

import (
	"testing"
	"testing/quick"
	"time"

	"github.com/zhuge-project/zhuge/internal/netem"
	"github.com/zhuge-project/zhuge/internal/packet"
	"github.com/zhuge-project/zhuge/internal/sim"
)

func ackPkt(seq uint64) *netem.Packet {
	return &netem.Packet{Flow: dataFlow.Reverse(), Kind: netem.KindAck, Size: 64, Seq: seq}
}

type arrivalLog struct {
	s     *sim.Simulator
	seqs  []uint64
	times []sim.Time
}

func (a *arrivalLog) Receive(p *netem.Packet) {
	a.seqs = append(a.seqs, p.Seq)
	a.times = append(a.times, a.s.Now())
}

func TestOOBNoDeltasPassThrough(t *testing.T) {
	s := sim.New(1)
	out := &arrivalLog{s: s}
	u := NewOOBUpdater(s, out, s.NewRand("oob"), 0)
	for i := 0; i < 5; i++ {
		i := i
		s.At(time.Duration(i)*time.Millisecond, func() {
			u.OnAckPacket(s.Now(), dataFlow, ackPkt(uint64(i)))
		})
	}
	s.Run()
	for i, at := range out.times {
		if at != time.Duration(i)*time.Millisecond {
			t.Errorf("ack %d delayed to %v with no recorded deltas", i, at)
		}
	}
}

func TestOOBDistributionalEquivalence(t *testing.T) {
	// The mean extra ACK delay should approximate the mean recorded
	// positive delta (§5.2, "distributional equivalence").
	s := sim.New(2)
	out := &arrivalLog{s: s}
	u := NewOOBUpdater(s, out, s.NewRand("oob"), time.Hour) // no expiry
	// Record deltas: predictions rising by exactly 2ms per packet.
	pred := Prediction{}
	for i := 0; i < 20; i++ {
		pred.QLong += 2 * time.Millisecond
		u.OnDataPacket(s.Now(), dataFlow, pred)
	}
	// Feed 200 ACKs spaced 10ms apart.
	for i := 0; i < 200; i++ {
		i := i
		s.At(time.Duration(i)*10*time.Millisecond, func() {
			u.OnAckPacket(s.Now(), dataFlow, ackPkt(uint64(i)))
		})
	}
	s.Run()
	_, mean := u.Stats(dataFlow)
	if mean < time.Millisecond || mean > 3*time.Millisecond {
		t.Errorf("mean ACK delay %v, want ~2ms (the recorded delta)", mean)
	}
}

func TestOOBTokensOffsetDelays(t *testing.T) {
	// Negative deltas bank tokens that cancel later positive samples, so
	// the net added delay matches the net predicted change (§5.2 tokens).
	s := sim.New(3)
	out := &arrivalLog{s: s}
	u := NewOOBUpdater(s, out, s.NewRand("oob"), time.Hour)
	// One +10ms delta, then one -10ms delta -> 10ms of tokens banked,
	// delta history holds the +10ms.
	u.OnDataPacket(0, dataFlow, Prediction{QLong: 10 * time.Millisecond})
	u.OnDataPacket(0, dataFlow, Prediction{QLong: 20 * time.Millisecond})
	u.OnDataPacket(0, dataFlow, Prediction{QLong: 10 * time.Millisecond})
	// First ACK samples +10ms but the 10ms token cancels it.
	u.OnAckPacket(0, dataFlow, ackPkt(1))
	s.Run()
	if len(out.times) != 1 || out.times[0] != 0 {
		t.Fatalf("ack times %v, want [0] (token cancels delay)", out.times)
	}
	// Next ACK: token bank empty, +10ms sample applies.
	u.OnAckPacket(0, dataFlow, ackPkt(2))
	s.Run()
	if len(out.times) != 2 || out.times[1] != 10*time.Millisecond {
		t.Fatalf("second ack at %v, want 10ms", out.times[1:])
	}
}

func TestOOBOrderPreserved(t *testing.T) {
	// Property: whatever the delta/token pattern, ACKs leave the AP in
	// arrival order with non-decreasing timestamps (§5.2 order
	// preservation).
	f := func(deltas []int8, ackGapsMS []uint8) bool {
		s := sim.New(4)
		out := &arrivalLog{s: s}
		u := NewOOBUpdater(s, out, s.NewRand("oob"), time.Hour)
		pred := Prediction{QLong: 100 * time.Millisecond}
		for _, d := range deltas {
			pred.QLong += time.Duration(d) * time.Millisecond
			if pred.QLong < 0 {
				pred.QLong = 0
			}
			u.OnDataPacket(s.Now(), dataFlow, pred)
		}
		at := time.Duration(0)
		for i, g := range ackGapsMS {
			at += time.Duration(g%20) * time.Millisecond
			i := i
			myAt := at
			s.At(myAt, func() {
				u.OnAckPacket(s.Now(), dataFlow, ackPkt(uint64(i)))
			})
		}
		s.Run()
		for i := 1; i < len(out.seqs); i++ {
			if out.seqs[i] != out.seqs[i-1]+1 {
				return false
			}
			if out.times[i] < out.times[i-1] {
				return false
			}
		}
		return len(out.seqs) == len(ackGapsMS)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

type twccPayload struct {
	ssrc uint32
	seq  uint16
}

func (p twccPayload) TWCCInfo() (uint32, uint16) { return p.ssrc, p.seq }

// rawRTCP is a client's uplink feedback payload.
type rawRTCP []byte

func (b rawRTCP) RawRTCP() []byte { return b }

func TestInbandConstructsFeedbackFromPredictions(t *testing.T) {
	s := sim.New(5)
	out := &arrivalLog{s: s}
	var raws [][]byte
	sink := netem.ReceiverFunc(func(p *netem.Packet) {
		out.Receive(p)
		raws = append(raws, append([]byte(nil), p.Payload.(RTCPCarrier).RawRTCP()...))
	})
	u := NewInbandUpdater(s, sink, 40*time.Millisecond)
	// Three data packets with rising predictions.
	for i := 0; i < 3; i++ {
		p := &netem.Packet{Flow: dataFlow, Kind: netem.KindData, Size: 1000,
			Payload: twccPayload{ssrc: 42, seq: uint16(100 + i)}}
		u.OnDataPacket(sim.Time(i)*sim.Time(5*time.Millisecond), dataFlow, p,
			Prediction{Total: time.Duration(10+5*i) * time.Millisecond})
	}
	s.RunUntil(100 * time.Millisecond)
	u.Stop()
	if u.Constructed() == 0 || len(raws) == 0 {
		t.Fatal("no feedback constructed")
	}
	fb, err := packet.UnmarshalTWCC(raws[0])
	if err != nil {
		t.Fatal(err)
	}
	if fb.BaseSeq != 100 || len(fb.Packets) != 3 {
		t.Fatalf("feedback base=%d count=%d, want 100/3", fb.BaseSeq, len(fb.Packets))
	}
	arr := fb.Arrivals()
	// Arrival i = i*5ms (packet time) + (10+5i)ms (prediction):
	// 10ms, 20ms, 30ms.
	for i, a := range arr {
		want := time.Duration(10+10*i) * time.Millisecond
		d := a.At - want
		if d < -time.Millisecond || d > time.Millisecond {
			t.Errorf("arrival %d at %v, want ~%v", i, a.At, want)
		}
	}
}

func TestInbandDropsClientTWCCForwardsNACK(t *testing.T) {
	s := sim.New(6)
	out := &arrivalLog{s: s}
	u := NewInbandUpdater(s, out, 40*time.Millisecond)
	twcc := packet.BuildTWCC(1, 1, 0, []packet.TWCCArrival{{Seq: 1, At: time.Millisecond}}).Marshal(nil)
	nack := (&packet.NACK{SenderSSRC: 1, MediaSSRC: 1, Lost: []uint16{7}}).Marshal(nil)
	u.OnFeedbackPacket(0, &netem.Packet{Flow: dataFlow.Reverse(), Kind: netem.KindFeedback, Size: 80, Seq: 1, Payload: rawRTCP(twcc)})
	u.OnFeedbackPacket(0, &netem.Packet{Flow: dataFlow.Reverse(), Kind: netem.KindFeedback, Size: 80, Seq: 2, Payload: rawRTCP(nack)})
	if len(out.seqs) != 1 || out.seqs[0] != 2 {
		t.Fatalf("forwarded seqs %v, want only the NACK (2)", out.seqs)
	}
	if u.DroppedClientFeedback() != 1 {
		t.Errorf("dropped %d, want 1", u.DroppedClientFeedback())
	}
}

// fakeClock is a Clock with no simulator behind it. One slot is enough: the
// updater keeps one timer outstanding per flow, and the test has one flow.
type fakeClock struct {
	now, due sim.Time
	fn       func()
}

func (c *fakeClock) Now() sim.Time { return c.now }

func (c *fakeClock) ScheduleAfter(d time.Duration, fn func()) { c.due, c.fn = c.now+d, fn }

// advance moves time to t, firing what comes due on the way.
func (c *fakeClock) advance(t sim.Time) {
	for c.fn != nil && c.due <= t {
		fn := c.fn
		c.now, c.fn = c.due, nil
		fn()
	}
	c.now = t
}

// TestInbandRunsOnAnyClock drives the updater the way the live relay does:
// no simulator, just Now and ScheduleAfter. Fortunes in, one TWCC out per
// interval that recorded any, a datagram reordered across a flush left out,
// a restarted sender given a new message, client TWCC absorbed, NACK
// forwarded.
func TestInbandRunsOnAnyClock(t *testing.T) {
	const ms = time.Millisecond
	clk := &fakeClock{}
	var out []*packet.TWCCFeedback
	var other int
	u := NewInbandUpdater(clk, netem.ReceiverFunc(func(p *netem.Packet) {
		if fb, err := packet.UnmarshalTWCC(p.Payload.(RTCPCarrier).RawRTCP()); err == nil {
			out = append(out, fb)
		} else {
			other++
		}
		p.Release()
	}), 40*ms)
	data := func(at sim.Time, seq uint16) {
		clk.advance(at)
		p := &netem.Packet{Flow: dataFlow, Kind: netem.KindData, Size: 1000, Payload: twccPayload{ssrc: 42, seq: seq}}
		u.OnDataPacket(at, dataFlow, p, Prediction{Total: 10 * ms})
	}
	want := func(when string, n int, base uint16, statuses int) {
		t.Helper()
		if len(out) != n {
			t.Fatalf("%s: %d feedback messages, want %d", when, len(out), n)
		}
		if fb := out[n-1]; fb.MediaSSRC != 42 || fb.BaseSeq != base || len(fb.Packets) != statuses {
			t.Fatalf("%s: message %d is SSRC %d base %d with %d statuses, want 42/%d/%d",
				when, n, fb.MediaSSRC, fb.BaseSeq, len(fb.Packets), base, statuses)
		}
	}

	data(0, 1)
	data(5*ms, 2)
	data(10*ms, 4)
	clk.advance(39 * ms)
	if len(out) != 0 {
		t.Fatalf("feedback before the interval passed: %d messages", len(out))
	}
	clk.advance(40 * ms)
	want("first interval", 1, 1, 4) // 1, 2, lost 3, 4
	if at := out[0].Arrivals()[0].At; at < 9*ms || at > 11*ms {
		t.Errorf("first arrival reported at %v, want its fortune 0 + 10ms", at)
	}

	// 3 overtaken by 4 and by the flush: reported lost, not as the base of a
	// message that starts before the previous one ended.
	data(45*ms, 3)
	data(50*ms, 5)
	clk.advance(80 * ms)
	want("reordered across the flush", 2, 5, 1)

	clk.advance(160 * ms) // two intervals that recorded nothing
	if len(out) != 2 {
		t.Fatalf("idle intervals built feedback: %d messages, want 2", len(out))
	}

	// A sender that starts over closes the open message at once, so each
	// message's sequence numbers still ascend.
	data(165*ms, 30000)
	data(170*ms, 6)
	want("restart", 3, 30000, 1)
	clk.advance(200 * ms)
	want("after the restart", 4, 6, 1)
	if u.Constructed() != 4 {
		t.Errorf("Constructed() = %d, want 4", u.Constructed())
	}

	twcc := packet.BuildTWCC(1, 42, 0, []packet.TWCCArrival{{Seq: 1, At: ms}}).Marshal(nil)
	nack := (&packet.NACK{SenderSSRC: 1, MediaSSRC: 42, Lost: []uint16{3}}).Marshal(nil)
	for _, raw := range [][]byte{twcc, nack} {
		u.OnFeedbackPacket(clk.Now(), &netem.Packet{Flow: dataFlow.Reverse(), Kind: netem.KindFeedback, Size: 80, Payload: rawRTCP(raw)})
	}
	if len(out) != 4 || other != 1 || u.DroppedClientFeedback() != 1 {
		t.Errorf("client RTCP: %d TWCC and %d others reached the uplink, %d absorbed; want 4 (none new), 1, 1",
			len(out), other, u.DroppedClientFeedback())
	}
}

// TestInbandHoldsVisitUntilFeedbackLeaves: records of packets that entered
// a visit keep it live after the packets die, with one hold however many
// records wait. The feedback built from them carries the hold to its own
// Release, and exporting or dropping the flow gives back a hold whose
// records leave with the flow state.
func TestInbandHoldsVisitUntilFeedbackLeaves(t *testing.T) {
	s := sim.New(6)
	var fbs []*netem.Packet
	u := NewInbandUpdater(s, netem.ReceiverFunc(func(p *netem.Packet) { fbs = append(fbs, p) }), 40*time.Millisecond)
	var v netem.Visit
	seq := uint16(100)
	record := func() {
		p := netem.NewPacket()
		p.Flow, p.Kind, p.Size = dataFlow, netem.KindData, 1000
		p.Payload = twccPayload{ssrc: 42, seq: seq}
		seq++
		v.Enter(p)
		u.OnDataPacket(s.Now(), dataFlow, p, Prediction{Total: 10 * time.Millisecond})
		p.Release()
	}
	for i := 0; i < 3; i++ {
		record()
	}
	if v.Live() != 1 {
		t.Fatalf("three records waiting: live %d, want the one hold", v.Live())
	}
	s.RunUntil(45 * time.Millisecond)
	if len(fbs) != 1 || fbs[0].Visit() != &v || v.Live() != 1 {
		t.Fatalf("after the flush: %d feedback packets, live %d; want one carrying the hold, live 1", len(fbs), v.Live())
	}
	fbs[0].Release()
	if v.Live() != 0 {
		t.Fatalf("feedback released: live %d, want 0", v.Live())
	}
	for _, leave := range []func(){
		func() { u.exportFlow(dataFlow) },
		func() { u.dropFlow(dataFlow) },
	} {
		record()
		leave()
		if v.Live() != 0 {
			t.Fatalf("flow state left with its records: live %d, want 0", v.Live())
		}
	}
	u.Stop()
}
