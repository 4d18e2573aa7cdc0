package quicsim

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"github.com/zhuge-project/zhuge/internal/cca"
	"github.com/zhuge-project/zhuge/internal/netem"
	"github.com/zhuge-project/zhuge/internal/sim"
	"github.com/zhuge-project/zhuge/internal/transport/ackclock"
)

var testFlow = netem.FlowKey{SrcIP: 1, DstIP: 2, SrcPort: 443, DstPort: 50000, Proto: 17}

func pipe(s *sim.Simulator, cc cca.TCP, rate float64, delay time.Duration) (*Sender, *Receiver) {
	fwd := netem.NewLink(s, rate, delay, nil)
	rev := netem.NewLink(s, rate, delay, nil)
	snd := NewSender(s, testFlow, cc, fwd)
	rcv := NewReceiver(s, testFlow.Reverse(), rev)
	fwd.SetDst(rcv)
	rev.SetDst(snd)
	return snd, rcv
}

func TestBulkTransferDelivers(t *testing.T) {
	s := sim.New(1)
	snd, rcv := pipe(s, cca.NewCubic(), 10e6, 25*time.Millisecond)
	const total = 500 * 1000
	snd.Write(total)
	s.RunUntil(30 * time.Second)
	if rcv.Delivered() != total {
		t.Fatalf("delivered %d, want %d (lost=%d pto=%d)", rcv.Delivered(), total, snd.LostPackets(), snd.Timeouts())
	}
	if snd.Acked() != total {
		t.Errorf("acked %d, want %d", snd.Acked(), total)
	}
	if snd.InFlight() != 0 {
		t.Errorf("in flight %d after completion", snd.InFlight())
	}
}

func TestRTTSamples(t *testing.T) {
	s := sim.New(1)
	snd, _ := pipe(s, cca.NewCubic(), 100e6, 30*time.Millisecond)
	var samples int
	snd.OnRTT = func(_ sim.Time, rtt time.Duration) {
		samples++
		if rtt < 60*time.Millisecond || rtt > 90*time.Millisecond {
			t.Fatalf("RTT sample %v outside [60,90]ms", rtt)
		}
	}
	snd.Write(100 * 1000)
	s.RunUntil(10 * time.Second)
	if samples == 0 {
		t.Fatal("no RTT samples")
	}
}

// lossyHop drops the i-th data packets listed in drop (first pass only).
type lossyHop struct {
	out     netem.Receiver
	dropPNs map[uint64]bool
	dropped int
}

func (l *lossyHop) Receive(p *netem.Packet) {
	if p.Kind == netem.KindData && l.dropPNs[p.Seq] {
		delete(l.dropPNs, p.Seq)
		l.dropped++
		return
	}
	l.out.Receive(p)
}

func TestLossRecoveredByNewPacketNumbers(t *testing.T) {
	s := sim.New(1)
	fwd := netem.NewLink(s, 10e6, 20*time.Millisecond, nil)
	rev := netem.NewLink(s, 10e6, 20*time.Millisecond, nil)
	hop := &lossyHop{dropPNs: map[uint64]bool{5: true, 6: true}}
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
	if hop.dropped != 2 {
		t.Fatalf("dropped %d, want 2", hop.dropped)
	}
	if snd.LostPackets() < 2 {
		t.Errorf("declared %d lost, want >= 2", snd.LostPackets())
	}
	if snd.Timeouts() > 0 {
		t.Errorf("recovered via %d PTOs; packet-threshold detection expected", snd.Timeouts())
	}
}

func TestBlackoutRecoversViaPTO(t *testing.T) {
	s := sim.New(1)
	fwd := netem.NewLink(s, 10e6, 20*time.Millisecond, nil)
	rev := netem.NewLink(s, 10e6, 20*time.Millisecond, nil)
	active := false
	hole := netem.ReceiverFunc(func(p *netem.Packet) {
		if !active {
			fwd.Receive(p)
		}
	})
	snd := NewSender(s, testFlow, cca.NewCubic(), hole)
	rcv := NewReceiver(s, testFlow.Reverse(), rev)
	fwd.SetDst(rcv)
	rev.SetDst(snd)

	const total = 100 * 1000
	snd.Write(total)
	s.At(50*time.Millisecond, func() { active = true })
	s.At(2*time.Second, func() { active = false })
	s.RunUntil(60 * time.Second)
	if rcv.Delivered() != total {
		t.Fatalf("delivered %d, want %d (pto=%d)", rcv.Delivered(), total, snd.Timeouts())
	}
	if snd.Timeouts() == 0 {
		t.Error("blackout should force a PTO")
	}
}

func TestAllCCAsComplete(t *testing.T) {
	for name, mk := range map[string]func() cca.TCP{
		"cubic": func() cca.TCP { return cca.NewCubic() },
		"copa":  func() cca.TCP { return cca.NewCopa() },
		"bbr":   func() cca.TCP { return cca.NewBBR() },
	} {
		t.Run(name, func(t *testing.T) {
			s := sim.New(2)
			snd, rcv := pipe(s, mk(), 20e6, 25*time.Millisecond)
			const total = 1000 * 1000
			snd.Write(total)
			s.RunUntil(120 * time.Second)
			if rcv.Delivered() != total {
				t.Fatalf("delivered %d of %d", rcv.Delivered(), total)
			}
		})
	}
}

func TestPacketNumbersNeverReused(t *testing.T) {
	s := sim.New(3)
	fwd := netem.NewLink(s, 5e6, 20*time.Millisecond, nil)
	rev := netem.NewLink(s, 5e6, 20*time.Millisecond, nil)
	seen := map[uint64]bool{}
	dupe := false
	tap := netem.ReceiverFunc(func(p *netem.Packet) {
		if p.Kind == netem.KindData {
			if seen[p.Seq] {
				dupe = true
			}
			seen[p.Seq] = true
		}
		// Drop 1 in 20 to force retransmissions.
		if p.Seq%20 == 7 && !seen[p.Seq+1<<40] {
			seen[p.Seq+1<<40] = true
			return
		}
		fwd.Receive(p)
	})
	snd := NewSender(s, testFlow, cca.NewCubic(), tap)
	rcv := NewReceiver(s, testFlow.Reverse(), rev)
	fwd.SetDst(rcv)
	rev.SetDst(snd)
	snd.Write(300 * 1000)
	s.RunUntil(30 * time.Second)
	if dupe {
		t.Error("a packet number was reused")
	}
	if rcv.Delivered() != 300*1000 {
		t.Errorf("delivered %d", rcv.Delivered())
	}
}

func TestPropertyRangeSetMatchesBrute(t *testing.T) {
	f := func(ops [][2]uint8) bool {
		rs := newRangeSet()
		brute := map[uint64]bool{}
		for _, op := range ops {
			lo := uint64(op[0])
			hi := lo + uint64(op[1]%16) + 1
			rs.add(lo, hi)
			for v := lo; v < hi; v++ {
				brute[v] = true
			}
			// Invariants: ascending, non-overlapping, gap >= 1.
			for i := 1; i < len(rs.ranges); i++ {
				if rs.ranges[i].Lo <= rs.ranges[i-1].Hi+1 {
					return false
				}
			}
			// Membership equivalence.
			total := uint64(0)
			for _, r := range rs.ranges {
				for v := r.Lo; v <= r.Hi; v++ {
					if !brute[v] {
						return false
					}
					total++
				}
			}
			if int(total) != len(brute) {
				return false
			}
			// Contiguous prefix check.
			want := uint64(0)
			for brute[want] {
				want++
			}
			if rs.contiguous() != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	// The shapes the in-place add splices differently, as {lo, length-1}.
	for name, ops := range map[string][][2]uint8{
		"bridges four, abutting both ends": {{0, 0}, {4, 0}, {8, 0}, {12, 0}, {1, 10}},
		"bridges three, overlapping":       {{0, 2}, {6, 2}, {12, 2}, {20, 2}, {2, 11}},
		"abuts both neighbours":            {{0, 1}, {4, 1}, {2, 1}},
		"inserts at the front":             {{10, 2}, {20, 2}, {0, 2}},
		"inserts between, touching none":   {{0, 0}, {10, 0}, {5, 0}},
		"exact duplicates":                 {{5, 3}, {9, 0}, {5, 3}, {9, 0}, {5, 3}},
		"inside an existing range":         {{0, 15}, {3, 2}},
		"swallows everything":              {{2, 0}, {5, 0}, {8, 0}, {0, 15}},
	} {
		if !f(ops) {
			t.Errorf("%s: %v diverges from the brute-force set", name, ops)
		}
	}
}

// TestRangeSetExtendAllocatesNothing pins the common case: a packet arriving
// in order extends the last range where it lies.
func TestRangeSetExtendAllocatesNothing(t *testing.T) {
	rs := newRangeSet()
	rs.add(0, 10)
	rs.add(20, 30)
	next := uint64(30)
	if allocs := testing.AllocsPerRun(100, func() {
		rs.add(next, next+1)
		next++
	}); allocs != 0 {
		t.Errorf("extending the last range allocates %v times", allocs)
	}
	if len(rs.ranges) != 2 || rs.ranges[1] != (ackRange{20, next - 1}) {
		t.Errorf("ranges %v, want the last one extended to %d", rs.ranges, next-1)
	}
}

func TestDescendingRangesBounded(t *testing.T) {
	rs := newRangeSet()
	for i := uint64(0); i < 100; i += 2 {
		rs.add(i, i+1)
	}
	out := rs.descendingRanges(nil, 5)
	if len(out) != 5 {
		t.Fatalf("got %d ranges, want 5", len(out))
	}
	if out[0].Lo != 98 {
		t.Errorf("first range %+v, want the highest", out[0])
	}
	for i := 1; i < len(out); i++ {
		if out[i].Hi >= out[i-1].Lo {
			t.Error("ranges not descending")
		}
	}
}

// TestPropertyReliableUnderRandomLoss mirrors the TCP property over QUIC.
func TestPropertyReliableUnderRandomLoss(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
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
			t.Errorf("seed %d: delivered %d of %d (lost=%d pto=%d)",
				seed, rcv.Delivered(), total, snd.LostPackets(), snd.Timeouts())
		}
	}
}

// dropAll is a first hop that loses every packet.
var dropAll = netem.ReceiverFunc(func(*netem.Packet) {})

// TestPTOBackoffIsCapped sends into a path that drops everything for three
// simulated hours: the PTO doubles from one second up to a minute and then
// fires a minute apart. Shifting the PTO by the backoff unbounded overflowed
// after 34 timeouts and scheduled the next one in the past.
func TestPTOBackoffIsCapped(t *testing.T) {
	s := sim.New(1)
	var ptos []sim.Time
	snd := NewSender(s, testFlow, &openCC{onRTO: func() { ptos = append(ptos, s.Now()) }}, dropAll)
	snd.Write(cca.MSS)
	s.RunUntil(3 * time.Hour)
	// 1+2+4+8+16+32 s, then a minute apart: 6 + 178 timeouts.
	if snd.Timeouts() != 184 || len(ptos) != 184 || snd.LostPackets() != 184 {
		t.Fatalf("%d timeouts (%d told to the controller, %d packets lost), want 184", snd.Timeouts(), len(ptos), snd.LostPackets())
	}
	var prev sim.Time
	for i, at := range ptos {
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

// TestIdlePacedSenderArmsOnlyThePTO: once a paced sender has sent all it was
// given, the PTO is the one timer it holds; no pacing timer is left to fire
// into nothing.
func TestIdlePacedSenderArmsOnlyThePTO(t *testing.T) {
	s := sim.New(1)
	snd := NewSender(s, testFlow, &openCC{pacing: 1e6}, dropAll)
	snd.Write(3 * cca.MSS)
	// At 1 Mbit/s a packet is paced 11.56 ms after the one before.
	s.RunUntil(30 * time.Millisecond)
	if snd.Pending() != 0 || snd.InFlight() != 3*cca.MSS {
		t.Fatalf("%d bytes unsent, %d in flight, want 0 and %d", snd.Pending(), snd.InFlight(), 3*cca.MSS)
	}
	if n := s.Pending(); n != 1 {
		t.Errorf("%d events pending once everything is sent, want 1 (the PTO)", n)
	}
}

// refBook is the sender's bookkeeping as it was before the send window, kept
// as the reference the window is checked against: every packet in flight in a
// map keyed by packet number, every packet number of every ACK range looked
// up, losses collected in map order and then sorted.
type refBook struct {
	inflight      map[uint64]dataPacket
	inflightBytes int
	largestAcked  uint64
	haveAcked     bool
	rtt           ackclock.Sender // the estimator, which the window left alone
	acked         rangeSet
}

// ackOutcome is what one ACK did to the bookkeeping.
type ackOutcome struct {
	acked, lost   []uint64 // acked sorted (its order shows nowhere); lost as declared
	ackedBytes    int
	rtt           time.Duration
	inflightBytes int
}

func (b *refBook) declareLost(pn uint64) {
	b.inflightBytes -= b.inflight[pn].Len
	delete(b.inflight, pn)
}

// receive returns false for an ACK that acknowledges nothing new.
func (b *refBook) receive(ack ackFrame, now sim.Time) (out ackOutcome, ok bool) {
	var largestNewlyAcked *dataPacket
	for _, r := range ack.Ranges {
		for pn := r.Lo; pn <= r.Hi; pn++ {
			dp, ok := b.inflight[pn]
			if !ok {
				continue
			}
			delete(b.inflight, pn)
			b.inflightBytes -= dp.Len
			out.ackedBytes += dp.Len
			out.acked = append(out.acked, pn)
			b.acked.add(dp.Offset, dp.Offset+uint64(dp.Len))
			if largestNewlyAcked == nil || dp.PktNum > largestNewlyAcked.PktNum {
				cp := dp
				largestNewlyAcked = &cp
			}
		}
	}
	if len(out.acked) == 0 {
		return out, false
	}
	slices.Sort(out.acked)
	if ack.Largest > b.largestAcked || !b.haveAcked {
		b.largestAcked, b.haveAcked = ack.Largest, true
	}
	if largestNewlyAcked.PktNum == ack.Largest {
		out.rtt = now - largestNewlyAcked.SentAt
		b.rtt.Sample(now, out.rtt)
	}
	lossDelay := time.Duration(timeThresholdN * float64(max(b.rtt.SRTT(), out.rtt)))
	if lossDelay <= 0 {
		lossDelay = 200 * time.Millisecond
	}
	for pn, dp := range b.inflight {
		if pn+packetThreshold <= b.largestAcked || (dp.SentAt+lossDelay < now && pn < b.largestAcked) {
			out.lost = append(out.lost, pn)
		}
	}
	slices.Sort(out.lost)
	for _, pn := range out.lost {
		b.declareLost(pn)
	}
	out.inflightBytes = b.inflightBytes
	return out, true
}

// pto declares the oldest packet in flight lost, found by scanning the map.
func (b *refBook) pto() {
	if len(b.inflight) == 0 {
		return
	}
	oldest := uint64(1<<63 - 1)
	for pn := range b.inflight {
		if pn < oldest {
			oldest = pn
		}
	}
	b.declareLost(oldest)
}

// openCC never limits the sender, paces at pacing (0: not at all) and
// records what the sender tells it.
type openCC struct {
	onRTO  func()
	pacing float64
	acks   []cca.AckEvent
	losses int
}

func (c *openCC) Name() string                { return "open" }
func (c *openCC) OnAck(ev cca.AckEvent)       { c.acks = append(c.acks, ev) }
func (c *openCC) OnLoss(sim.Time)             { c.losses++ }
func (c *openCC) OnRTO(sim.Time)              { c.onRTO() }
func (c *openCC) CWND() int                   { return 1 << 30 }
func (c *openCC) PacingRate(sim.Time) float64 { return c.pacing }

// liveSet returns the packets the window holds in flight, checking the
// window's invariants on the way.
func liveSet(t *testing.T, snd *Sender) map[uint64]dataPacket {
	t.Helper()
	window := snd.window.Items()
	if snd.base+uint64(len(window)) != snd.nextPktNum {
		t.Fatalf("window [%d,+%d) does not end at the next packet number %d", snd.base, len(window), snd.nextPktNum)
	}
	if len(window) > 0 && !window[0].live {
		t.Fatalf("window front %d is resolved but not trimmed", snd.base)
	}
	live := map[uint64]dataPacket{}
	for i, sp := range window {
		if sp.PktNum != snd.base+uint64(i) {
			t.Fatalf("window[%d] holds packet %d, base %d", i, sp.PktNum, snd.base)
		}
		if sp.live {
			live[sp.PktNum] = sp.dataPacket
		}
	}
	return live
}

// TestWindowMatchesMapBookkeeping drives the send window and refBook with one
// seeded packet and ACK stream - random loss, reordering both ways, duplicated
// and long-stale ACKs, a receiver with far more than 32 gaps so that low
// ranges fall off the frame, and a blackout that forces PTOs - and requires
// the same packets in flight after every event and the same outcome of every
// ACK.
func TestWindowMatchesMapBookkeeping(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		s := sim.New(seed)
		rng := rand.New(rand.NewSource(seed))
		ref := &refBook{inflight: map[uint64]dataPacket{}}
		cc := &openCC{onRTO: ref.pto}

		var snd *Sender
		var sent []dataPacket  // every data packet, in sending order
		var rcvd rangeSet      // the receiver's packet numbers
		var largest uint64     // and the largest of them
		var history []ackFrame // every ACK frame built, for stale replays
		var stale, truncated, duplicated, overtaken int
		var lastRTT time.Duration
		var lastPrefix uint64

		deliverAck := func(ack ackFrame) {
			before := liveSet(t, snd)
			if d := inFlightDiff(before, ref.inflight); d != "" {
				t.Fatalf("seed %d at %v: %s", seed, s.Now(), d)
			}
			if ack.Ranges[0].Hi < snd.base {
				stale++
			}
			if ack.Largest < snd.largestAcked {
				overtaken++
			}
			nSent, nAcks, nLosses := len(sent), len(cc.acks), cc.losses
			lastRTT = 0
			want, processed := ref.receive(ack, s.Now())
			snd.Receive(&netem.Packet{Kind: netem.KindAck, Payload: &ack})
			after := liveSet(t, snd)
			if !processed {
				if len(sent) != nSent || len(cc.acks) != nAcks || inFlightDiff(after, before) != "" {
					t.Fatalf("seed %d at %v: an ACK of nothing new had an effect", seed, s.Now())
				}
				return
			}
			if len(cc.acks) != nAcks+1 {
				t.Fatalf("seed %d at %v: %d OnAck calls for one ACK of new data", seed, s.Now(), len(cc.acks)-nAcks)
			}
			// Every Write was sent in full when it was made and openCC never
			// holds the sender back, so what an ACK releases is exactly the
			// retransmissions, one per loss in the order declared.
			byOffset := map[uint64]uint64{}
			for pn, dp := range before {
				byOffset[dp.Offset] = pn
			}
			got := ackOutcome{ackedBytes: cc.acks[nAcks].AckedBytes, rtt: lastRTT, inflightBytes: snd.InFlight()}
			for _, dp := range sent[nSent:] {
				got.lost = append(got.lost, byOffset[dp.Offset])
				got.inflightBytes -= dp.Len // sent after the losses were taken out
			}
			for pn := range before {
				if _, still := after[pn]; !still && !slices.Contains(got.lost, pn) {
					got.acked = append(got.acked, pn)
				}
			}
			slices.Sort(got.acked)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d at %v: ACK %+v\n got %+v\nwant %+v", seed, s.Now(), ack, got, want)
			}
			if ev := cc.acks[nAcks]; ev.RTT != want.rtt || ev.InFlight != want.inflightBytes {
				t.Fatalf("seed %d at %v: controller saw %+v, want rtt %v in flight %d", seed, s.Now(), ev, want.rtt, want.inflightBytes)
			}
			if lossEvents := cc.losses - nLosses; lossEvents > 1 || (lossEvents == 1) != (len(want.lost) > 0) {
				t.Fatalf("seed %d at %v: %d loss events for %d losses", seed, s.Now(), lossEvents, len(want.lost))
			}
			if lastPrefix != ref.acked.contiguous() || snd.Acked() != lastPrefix {
				t.Fatalf("seed %d at %v: acknowledged prefix %d (OnAcked %d), reference %d", seed, s.Now(), snd.Acked(), lastPrefix, ref.acked.contiguous())
			}
		}

		// One way takes 10 ms and up to 1.5 ms of jitter against 1 ms between
		// packets, so neighbours swap now and then; one packet in thirty is
		// held up to 25 ms longer and arrives behind dozens. Reordering every
		// packet past the packet threshold would only measure how fast
		// spurious retransmissions breed.
		delay := func() time.Duration {
			d := 10*time.Millisecond + time.Duration(rng.Int63n(int64(1500*time.Microsecond)))
			if rng.Intn(30) == 0 {
				d += time.Duration(rng.Int63n(int64(25 * time.Millisecond)))
			}
			return d
		}
		// The application pauses from 2 s to 4 s and the path drops everything
		// from just before the pause to 3 s: nothing re-arms the PTO, and the
		// first probes are lost too.
		blackout := func() bool { return s.Now() > 1950*time.Millisecond && s.Now() < 3*time.Second }
		wire := netem.ReceiverFunc(func(p *netem.Packet) {
			dp, _ := dataOf(p)
			sent = append(sent, dp)
			ref.inflight[dp.PktNum] = dp
			ref.inflightBytes += dp.Len
			if blackout() || rng.Float64() < 0.08 {
				return
			}
			s.After(delay(), func() {
				rcvd.add(dp.PktNum, dp.PktNum+1)
				largest = max(largest, dp.PktNum)
				if len(rcvd.ranges) > 32 {
					truncated++
				}
				ack := ackFrame{Largest: largest, Ranges: rcvd.descendingRanges(nil, 32)}
				history = append(history, ack)
				copies := 1
				if rng.Float64() < 0.1 {
					copies = 2
					duplicated++
				}
				if rng.Float64() < 0.05 {
					ack = history[rng.Intn(len(history))]
				}
				for ; copies > 0; copies-- {
					s.After(delay(), func() { deliverAck(ack) })
				}
			})
		})
		snd = NewSender(s, testFlow, cc, wire)
		snd.OnRTT = func(_ sim.Time, rtt time.Duration) { lastRTT = rtt }
		snd.OnAcked = func(_ sim.Time, upTo uint64) { lastPrefix = upTo }
		for i := 0; i < 4000; i++ {
			at := time.Duration(i) * time.Millisecond
			if at >= 2*time.Second {
				at += 2 * time.Second
			}
			s.At(at, func() { snd.Write(1 + rng.Intn(cca.MSS)) })
		}
		s.RunUntil(30 * time.Second)

		if d := inFlightDiff(liveSet(t, snd), ref.inflight); d != "" || snd.InFlight() != ref.inflightBytes {
			t.Fatalf("seed %d at the end: %s; %d bytes in flight, reference %d", seed, d, snd.InFlight(), ref.inflightBytes)
		}
		if snd.Timeouts() == 0 || snd.LostPackets() < 100 || snd.Pending() != 0 || snd.Acked() != snd.Sent() || stale == 0 || truncated == 0 || duplicated == 0 || overtaken == 0 {
			t.Errorf("seed %d: stream too tame or not delivered: %d PTOs, %d lost, %d stale ACKs, %d truncated frames, %d duplicated, %d overtaken",
				seed, snd.Timeouts(), snd.LostPackets(), stale, truncated, duplicated, overtaken)
		}
	}
}

// inFlightDiff names one packet the two sets disagree on, or returns "".
func inFlightDiff(window, reference map[uint64]dataPacket) string {
	for pn, dp := range window {
		if reference[pn] != dp {
			return fmt.Sprintf("packet %d in flight in the window as %+v, in the reference as %+v", pn, dp, reference[pn])
		}
	}
	for pn, dp := range reference {
		if _, ok := window[pn]; !ok {
			return fmt.Sprintf("packet %d in flight in the reference as %+v, not in the window", pn, dp)
		}
	}
	return ""
}
