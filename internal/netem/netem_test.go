package netem

import (
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"github.com/zhuge-project/zhuge/internal/sim"
)

func TestFlowKeyReverse(t *testing.T) {
	k := FlowKey{SrcIP: 1, DstIP: 2, SrcPort: 10, DstPort: 20, Proto: 6}
	r := k.Reverse()
	if r.SrcIP != 2 || r.DstIP != 1 || r.SrcPort != 20 || r.DstPort != 10 || r.Proto != 6 {
		t.Errorf("reverse = %+v", r)
	}
	if r.Reverse() != k {
		t.Error("double reverse should be identity")
	}
}

func TestPropertyHashStableAndDirectional(t *testing.T) {
	f := func(a, b uint32, p1, p2 uint16) bool {
		k := FlowKey{SrcIP: a, DstIP: b, SrcPort: p1, DstPort: p2, Proto: 17}
		return k.Hash() == k.Hash()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHashSpreadsAcrossBuckets(t *testing.T) {
	// Ports differing only in high bits must still spread over 64 buckets
	// (regression test for the pre-avalanche hash).
	seen := map[uint32]bool{}
	for i := 0; i < 64; i++ {
		k := FlowKey{SrcIP: 1, DstIP: 2, SrcPort: uint16(i), DstPort: 80, Proto: 6}
		seen[k.Hash()%64] = true
	}
	if len(seen) < 32 {
		t.Errorf("64 distinct flows hit only %d of 64 buckets", len(seen))
	}
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{KindData: "data", KindAck: "ack", KindFeedback: "feedback", Kind(99): "unknown"}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestLinkSerialisesAndDelays(t *testing.T) {
	s := sim.New(1)
	var times []sim.Time
	dst := ReceiverFunc(func(p *Packet) { times = append(times, s.Now()) })
	// 1 Mbps, 10ms propagation: a 1250B packet takes 10ms to serialise.
	l := NewLink(s, 1e6, 10*time.Millisecond, dst)
	for i := 0; i < 3; i++ {
		l.Receive(&Packet{Size: 1250})
	}
	s.Run()
	want := []sim.Time{20 * time.Millisecond, 30 * time.Millisecond, 40 * time.Millisecond}
	if len(times) != 3 {
		t.Fatalf("delivered %d", len(times))
	}
	for i := range want {
		if times[i] != want[i] {
			t.Errorf("packet %d at %v, want %v", i, times[i], want[i])
		}
	}
}

func TestLinkInfiniteRate(t *testing.T) {
	s := sim.New(1)
	var at sim.Time
	l := NewLink(s, 0, 5*time.Millisecond, ReceiverFunc(func(p *Packet) { at = s.Now() }))
	l.Receive(&Packet{Size: 1 << 20})
	s.Run()
	if at != 5*time.Millisecond {
		t.Errorf("delivered at %v, want pure propagation 5ms", at)
	}
}

func TestLinkIdleGapResetsSerialisation(t *testing.T) {
	s := sim.New(1)
	var times []sim.Time
	l := NewLink(s, 1e6, 0, ReceiverFunc(func(p *Packet) { times = append(times, s.Now()) }))
	l.Receive(&Packet{Size: 1250}) // done at 10ms
	s.At(time.Second, func() { l.Receive(&Packet{Size: 1250}) })
	s.Run()
	if times[1] != time.Second+10*time.Millisecond {
		t.Errorf("second packet at %v, want 1.01s (no stale busyUntil)", times[1])
	}
}

// TestLinkExtraDelayShrinkKeepsFIFO: when a latency spike clears with
// packets still in flight, later packets would be due before the ones sent
// during the spike. The link clamps them to the last delivery time instead,
// so they arrive behind those, in sending order, and its delay line never
// sees a time earlier than the one before it.
func TestLinkExtraDelayShrinkKeepsFIFO(t *testing.T) {
	s := sim.New(1)
	type arrival struct {
		seq uint64
		at  sim.Time
	}
	var got []arrival
	// 1 Mbps, 10ms propagation: a 1250B packet takes 10ms to serialise.
	l := NewLink(s, 1e6, 10*time.Millisecond, ReceiverFunc(func(p *Packet) {
		got = append(got, arrival{p.Seq, s.Now()})
	}))
	l.SetExtraDelay(50 * time.Millisecond)
	l.Receive(&Packet{Seq: 0, Size: 1250}) // 10 + 10 + 50 = 70ms
	l.SetExtraDelay(0)
	if l.ExtraDelay() != 0 {
		t.Fatalf("ExtraDelay() = %v after clearing, want 0", l.ExtraDelay())
	}
	l.Receive(&Packet{Seq: 1, Size: 1250}) // 30ms unclamped
	l.Receive(&Packet{Seq: 2, Size: 1250}) // 40ms unclamped
	s.At(60*time.Millisecond, func() {
		l.Receive(&Packet{Seq: 3, Size: 1250}) // 80ms: past the clamp
	})
	s.Run()
	want := []arrival{{0, 70 * time.Millisecond}, {1, 70 * time.Millisecond}, {2, 70 * time.Millisecond}, {3, 80 * time.Millisecond}}
	if len(got) != len(want) {
		t.Fatalf("delivered %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("delivered %v, want %v", got, want)
			break
		}
	}
}

func TestSinkDiscards(t *testing.T) {
	Sink.Receive(&Packet{Size: 1}) // must not panic
}

var (
	flowA = FlowKey{SrcIP: 1, DstIP: 2, SrcPort: 10, DstPort: 20, Proto: 17}
	flowB = FlowKey{SrcIP: 1, DstIP: 3, SrcPort: 10, DstPort: 21, Proto: 17}
)

// countHop counts the packets routed to it.
type countHop struct{ n int }

func (c *countHop) Receive(*Packet) { c.n++ }

// TestRouterRouteAndReroute covers the routing table handover rewrites at
// run time: exact-match routes win, everything else takes the default, and
// routing a flow again re-points it.
func TestRouterRouteAndReroute(t *testing.T) {
	var def, special, moved countHop
	r := NewRouter(&def)
	r.Route(flowA, &special)

	r.Receive(&Packet{Flow: flowA})
	r.Receive(&Packet{Flow: flowB})
	if special.n != 1 || def.n != 1 {
		t.Fatalf("routed=%d default=%d, want 1/1", special.n, def.n)
	}

	r.Route(flowA, &moved)
	r.Receive(&Packet{Flow: flowA})
	if moved.n != 1 || special.n != 1 || def.n != 1 {
		t.Errorf("rerouted flow: moved=%d old=%d default=%d, want 1/1/1", moved.n, special.n, def.n)
	}
}

func dataPacket(flow FlowKey) *Packet {
	p := NewPacket()
	p.Flow = flow
	p.Kind = KindData
	p.Size = 100
	return p
}

func TestDemuxRoutesAndReleases(t *testing.T) {
	d := NewDemux(false)
	var a, b countHop
	d.Register(flowA, &a)
	d.Register(flowB, &b)
	var tapped int
	d.AddTap(func(*Packet) { tapped++ })

	d.Receive(dataPacket(flowA))
	d.Receive(dataPacket(flowA))
	d.Receive(dataPacket(flowB))
	// Unregistered flows are still tapped and released, just not delivered.
	d.Receive(dataPacket(FlowKey{SrcIP: 9}))

	if a.n != 2 || b.n != 1 {
		t.Errorf("deliveries a=%d b=%d, want 2/1", a.n, b.n)
	}
	if tapped != 4 {
		t.Errorf("taps saw %d packets, want all 4", tapped)
	}
}

// TestDemuxRefusesReleasedPacket: a packet released before it reaches the
// demux has nobody left to deliver it for; the demux panics on entry,
// before a tap or a receiver reads the recycled struct.
func TestDemuxRefusesReleasedPacket(t *testing.T) {
	d := NewDemux(false)
	d.AddTap(func(*Packet) { t.Error("a tap saw a released packet") })
	p := dataPacket(flowA)
	p.Release()
	defer func() {
		if r := recover(); r != "netem: released packet handed to netem.Demux" {
			t.Errorf("recovered %v, want the demux to refuse the released packet", r)
		}
	}()
	d.Receive(p)
}

func TestReverseDemuxTranslatesKeys(t *testing.T) {
	d := NewDemux(true)
	var c countHop
	d.Register(flowA, &c) // registered under the downlink key...
	d.Receive(dataPacket(flowA.Reverse()))
	if c.n != 1 {
		t.Error("reverse demux did not translate the uplink key to its registration")
	}
}

// TestDoubleReleasePanics: a second Release would put one struct in the pool
// twice and hand it to two owners, whatever the payload. The flag that
// catches it is cleared by NewPacket, so recycling stays legal.
func TestDoubleReleasePanics(t *testing.T) {
	for name, p := range map[string]*Packet{
		"pooled":  dataPacket(flowA),
		"literal": {Size: 1},
	} {
		func() {
			defer func() {
				if r := recover(); r != "netem: Packet released twice" {
					t.Errorf("%s packet: second Release recovered %v, want the double-release panic", name, r)
				}
			}()
			p.Release()
			p.Release()
		}()
	}
	// Release -> NewPacket -> Release: the pool hands released structs back.
	for i := 0; i < 100; i++ {
		dataPacket(flowA).Release()
	}
}

// TestPacketIs112Bytes pins the packet's size: Kind, ABCMark and released
// share the word after Flow, which is what made room for the visit
// pointer. The home pointer (the Maker a same-cell Release returns the
// packet to) and Aux (the header word that keeps TCP and QUIC headers out
// of a boxed payload) took it from 96 to 112 bytes, the allocator's next
// size class: any size from 97 bytes up costs 112.
func TestPacketIs112Bytes(t *testing.T) {
	if n := unsafe.Sizeof(Packet{}); n != 112 {
		t.Fatalf("unsafe.Sizeof(Packet{}) = %d, want 112", n)
	}
}

// countedPayload counts its Releases, as a payload that refuses a second
// one does.
type countedPayload struct{ released int }

func (c *countedPayload) Release() { c.released++ }

// TestMakerTakesBackSameCellPackets: a packet that dies untagged goes back
// to its Maker, one generation on, with its payload; a visit-tagged packet
// (which may die in a cell other than its maker's) goes back to no Maker,
// and neither does its payload; a Clone belongs to no Maker.
func TestMakerTakesBackSameCellPackets(t *testing.T) {
	var m Maker
	p := m.NewPacket()
	pl := &countedPayload{}
	p.Size, p.Payload = 100, pl
	gen := p.gen
	p.Release()
	if pl.released != 1 {
		t.Fatalf("payload released %d times, want 1", pl.released)
	}
	if q := m.NewPacket(); q != p || q.gen != gen+1 || q.Payload != pl || q.Size != 0 || q.released {
		t.Fatalf("same-cell packet: got %p gen %d payload %v size %d; want %p gen %d with its payload, zeroed", q, q.gen, q.Payload, q.Size, p, gen+1)
	}

	var v Visit
	v.Enter(p)
	p.Release()
	if len(m.free) != 0 || p.home != nil || p.Payload != nil {
		t.Fatalf("visit-tagged packet: %d on the list, home %p, payload %v; want none, nil, nil", len(m.free), p.home, p.Payload)
	}
	if pl.released != 2 {
		t.Fatalf("the tagged packet's payload released %d times in all, want 2", pl.released)
	}

	q := m.NewPacket()
	q.Payload = &countedPayload{}
	cp := q.Clone()
	if cp.home != nil {
		t.Fatal("a Clone belongs to its original's Maker")
	}
	q.Payload = nil
	cp.Release()
	if len(m.free) != 0 {
		t.Fatal("a Clone's Release put it on a Maker's list")
	}
	q.Release()
	if len(m.free) != 1 || m.free[0] != q {
		t.Fatal("the original did not come back after its Clone died")
	}
}

// TestVisitCountsUntilRelease walks one visit through every way its count
// moves: packets entered count in, their Release counts them out, a hold
// keeps it live until a packet carrying it is released, and an untagged
// copy or a recycled packet counts for nothing.
func TestVisitCountsUntilRelease(t *testing.T) {
	var v Visit
	p, q := dataPacket(flowA), dataPacket(flowA)
	v.Enter(p)
	v.Enter(q)
	if v.Live() != 2 || p.Visit() != &v {
		t.Fatalf("after two Enters: live %d, tag %p; want 2, %p", v.Live(), p.Visit(), &v)
	}
	cp := p.Clone() // the copy a forwarder sends home, untagged
	cp.Release()
	v.Hold() // state derived from p outlives it
	p.Release()
	if v.Live() != 2 {
		t.Fatalf("after an untagged copy's Release, a Hold and p's Release: live %d, want 2", v.Live())
	}
	fb := NewPacket()
	fb.SetVisit(&v) // the hold moves to a packet built from that state
	q.Release()
	fb.Release()
	if v.Live() != 0 {
		t.Fatalf("after every packet died: live %d, want 0", v.Live())
	}
	for i := 0; i < 10; i++ {
		if r := NewPacket(); r.Visit() != nil {
			t.Fatal("a recycled packet kept its visit tag")
		}
	}
	v.Hold()
	v.Unhold()
	if v.Live() != 0 {
		t.Fatalf("Hold then Unhold: live %d, want 0", v.Live())
	}
}
