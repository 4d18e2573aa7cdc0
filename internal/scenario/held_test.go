package scenario

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/zhuge-project/zhuge/internal/cca"
	"github.com/zhuge-project/zhuge/internal/core"
	"github.com/zhuge-project/zhuge/internal/netem"
	"github.com/zhuge-project/zhuge/internal/queue"
	"github.com/zhuge-project/zhuge/internal/shard"
	"github.com/zhuge-project/zhuge/internal/sim"
	"github.com/zhuge-project/zhuge/internal/transport/rtp"
	"github.com/zhuge-project/zhuge/internal/video"
	"github.com/zhuge-project/zhuge/internal/wireless"
)

// A holderRig hands p to a fresh instance of one packet holder, calls held
// while the holder keeps it, then makes the holder hand it on. p comes from
// a netem.Maker, and draw takes the next packet from that list, which after
// p's Release is p: recycling is deterministic. A holder that only takes
// packets it drew itself passes held its own packet, and its own draw.
type holderRig func(p *netem.Packet, draw func() *netem.Packet, held heldFunc)

// heldFunc is what a test does to p while a holder keeps it.
type heldFunc func(p *netem.Packet, draw func() *netem.Packet)

var heldFlow = netem.FlowKey{SrcIP: 1, DstIP: 2, SrcPort: 10, DstPort: 20, Proto: 17}

// holderRigs has one row for each hop that keeps a packet across events.
var holderRigs = []struct {
	holder string
	rig    holderRig
	// drawsOwn marks a holder that only takes packets it drew from its
	// own list, which are never released: it cannot be handed one.
	drawsOwn bool
}{
	{"queue", func(p *netem.Packet, draw func() *netem.Packet, held heldFunc) {
		q := queue.NewFIFO(0)
		q.Enqueue(0, p)
		held(p, draw)
		q.Dequeue(0)
	}, false},
	{"netem.Link", func(p *netem.Packet, draw func() *netem.Packet, held heldFunc) {
		s := sim.New(1)
		netem.NewLink(s, 1e6, time.Millisecond, netem.Sink).Receive(p)
		held(p, draw)
		s.Run()
	}, false},
	{"wireless.Link", func(p *netem.Packet, draw func() *netem.Packet, held heldFunc) {
		s := sim.New(1)
		cfg := wireless.Config{Rate: func(sim.Time) float64 { return 1e8 }}
		wireless.NewLink(s, cfg, &handQdisc{}, netem.Sink, s.NewRand("wl")).Receive(p)
		s.Step() // the aggregate leaves the qdisc and goes on the air
		held(p, draw)
		s.Run()
	}, false},
	{"rtp.Sender", func(_ *netem.Packet, _ func() *netem.Packet, held heldFunc) {
		s := sim.New(1)
		var sent *netem.Packet
		snd := rtp.NewSender(s, heldFlow, 1, cca.NewGCC(1e6, 1e5, 1e7), netem.ReceiverFunc(func(p *netem.Packet) { sent = p }))
		frame := video.Frame{Size: 100}
		snd.SendFrame(frame)
		s.Run()
		own := sent
		own.Release() // back on the sender's list, which the pacer draws from
		// draw has the pacer draw one packet: own, refilled, if the list
		// handed it back.
		draw := func() *netem.Packet {
			snd.SendFrame(frame)
			if own.Size == 0 {
				return nil
			}
			return own
		}
		if draw() != own {
			panic("the sender's list did not hand its packet back")
		}
		held(own, draw)
		s.Run()
	}, true},
	{"core.OOBUpdater", func(p *netem.Packet, draw func() *netem.Packet, held heldFunc) {
		s := sim.New(1)
		core.NewOOBUpdater(s, netem.Sink, s.NewRand("oob"), 0).OnAckPacket(0, heldFlow, p)
		held(p, draw)
		s.Run()
	}, false},
	{"shard.Edge", func(p *netem.Packet, draw func() *netem.Packet, held heldFunc) {
		inWindow(func(e *shard.Edge) {
			e.Send(p, netem.Sink)
			held(p, draw)
		})
	}, false},
}

// handQdisc hands the wireless link the packet it was given, released or
// not, as the qdisc a link drains.
type handQdisc struct {
	queue.FIFO
	p *netem.Packet
}

func (q *handQdisc) Enqueue(_ sim.Time, p *netem.Packet) bool { q.p = p; return true }

func (q *handQdisc) Dequeue(sim.Time) *netem.Packet {
	p := q.p
	q.p = nil
	return p
}

func (q *handQdisc) Len() int {
	if q.p == nil {
		return 0
	}
	return 1
}

// inWindow runs fn in a window of a two-cell cluster, in the source cell of
// an armed cut edge, then runs the cluster on past the edge's deliveries.
func inWindow(fn func(e *shard.Edge)) {
	c := shard.NewCluster()
	a := c.AddCell("a", sim.New(1), c.AddShard("sa"))
	b := c.AddCell("b", sim.New(2), c.AddShard("sb"))
	e, err := c.Connect("a->b", a, b, time.Millisecond)
	if err != nil {
		panic(err)
	}
	e.Arm()
	a.Sim().Schedule(time.Millisecond, func() { fn(e) })
	c.Run(10*time.Millisecond, 1)
}

// panicOf returns what fn panicked with, or "" if it returned. A panic in
// a shard window arrives wrapped, with the cell and its stack.
func panicOf(fn func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	fn()
	return ""
}

// runRig runs rig on a packet from a fresh Maker, calling held while the
// holder keeps it, and returns what the run panicked with.
func runRig(rig holderRig, held heldFunc) string {
	var m netem.Maker
	p := m.NewPacket()
	p.Flow, p.Size = heldFlow, 100
	return panicOf(func() { rig(p, m.NewPacket, held) })
}

// TestHoldersRefuseReleasedPackets pins the rule every hop that keeps a
// packet across events applies through netem.Held: a packet released
// under the hop panics, naming the hop, when the hop hands it on, also
// after NewPacket recycled the struct (the generation catches what the
// released flag cannot), and a hop handed a released packet panics at once.
func TestHoldersRefuseReleasedPackets(t *testing.T) {
	for _, r := range holderRigs {
		t.Run(r.holder, func(t *testing.T) {
			want := "netem: packet released while held by " + r.holder
			got := runRig(r.rig, func(p *netem.Packet, _ func() *netem.Packet) { p.Release() })
			if !strings.Contains(got, want) {
				t.Errorf("released after the hand-off: panic %q, want %q", got, want)
			}
			got = runRig(r.rig, func(p *netem.Packet, draw func() *netem.Packet) {
				p.Release()
				if draw() != p {
					t.Error("the list did not hand the released struct back")
				}
			})
			if !strings.Contains(got, want) {
				t.Errorf("released and recycled: panic %q, want %q", got, want)
			}
			if r.drawsOwn {
				return
			}
			want = "netem: released packet handed to " + r.holder
			var m netem.Maker
			p := m.NewPacket()
			p.Release()
			got = panicOf(func() {
				r.rig(p, m.NewPacket, func(*netem.Packet, func() *netem.Packet) { t.Error("the holder took a released packet") })
			})
			if !strings.Contains(got, want) {
				t.Errorf("handed a released packet: panic %q, want %q", got, want)
			}
		})
	}
}

// TestDemuxForwardCopyHasItsOwnGeneration: the copy demuxForward sends
// home is a pooled struct with an earlier life of its own. Copying the
// original's generation onto it could make a hop still holding the struct
// from that life match it again; the hop must refuse it.
func TestDemuxForwardCopyHasItsOwnGeneration(t *testing.T) {
	for range 20 {
		stale := &netem.Packet{Size: 100}
		q := queue.NewFIFO(0)
		q.Enqueue(0, stale)
		stale.Release() // a fault: q still holds it; the struct is pooled
		var got *netem.Packet
		home := netem.ReceiverFunc(func(p *netem.Packet) { got = p })
		// The original has the generation stale had when q took it.
		inWindow(func(e *shard.Edge) {
			demuxForward{e, home}.Receive(&netem.Packet{Flow: heldFlow, Size: 100})
		})
		if got != stale {
			continue // the copy was drawn from another struct
		}
		if got.Size != 100 || got.Flow != heldFlow {
			t.Fatalf("the copy lost the original's fields: %+v", got)
		}
		want := "netem: packet released while held by queue"
		if msg := panicOf(func() { q.Dequeue(0) }); msg != want {
			t.Fatalf("a stale holder of the copy's struct: panic %q, want %q", msg, want)
		}
		return
	}
	t.Fatal("the pool never handed the struct back")
}
