package topo

import (
	"testing"

	"github.com/zhuge-project/zhuge/internal/netem"
	"github.com/zhuge-project/zhuge/internal/sim"
	"github.com/zhuge-project/zhuge/internal/wireless"
)

var (
	flowA = netem.FlowKey{SrcIP: 1, DstIP: 2, SrcPort: 10, DstPort: 20, Proto: 17}
	flowB = netem.FlowKey{SrcIP: 1, DstIP: 3, SrcPort: 10, DstPort: 21, Proto: 17}
)

// capture counts the packets delivered to it.
type capture struct{ n int }

func (c *capture) Receive(*netem.Packet) { c.n++ }

func pkt(flow netem.FlowKey) *netem.Packet {
	p := netem.NewPacket()
	p.Flow = flow
	p.Kind = netem.KindData
	p.Size = 100
	return p
}

func TestDemuxRoutesAndReleases(t *testing.T) {
	d := NewDemux(false)
	var a, b capture
	d.Register(flowA, &a)
	d.Register(flowB, &b)
	var tapped int
	d.AddTap(func(*netem.Packet) { tapped++ })

	d.Receive(pkt(flowA))
	d.Receive(pkt(flowA))
	d.Receive(pkt(flowB))
	// Unregistered flows are still tapped and released, just not delivered.
	d.Receive(pkt(netem.FlowKey{SrcIP: 9}))

	if a.n != 2 || b.n != 1 {
		t.Errorf("deliveries a=%d b=%d, want 2/1", a.n, b.n)
	}
	if tapped != 4 {
		t.Errorf("taps saw %d packets, want all 4", tapped)
	}
}

func TestReverseDemuxTranslatesKeys(t *testing.T) {
	d := NewDemux(true)
	var c capture
	d.Register(flowA, &c) // registered under the downlink key...
	d.Receive(pkt(flowA.Reverse()))
	if c.n != 1 {
		t.Error("reverse demux did not translate the uplink key to its registration")
	}
}

// TestStationAssociateMovesChannelAndRate pins the handover mechanics at
// the radio layer: after Associate, an own-queue station's dedicated link
// contends on the new AP's channel, and DownIn still points at the
// station's own link (shared-queue stations instead follow the AP).
func TestStationAssociateMovesChannelAndRate(t *testing.T) {
	s := sim.New(1)
	delivery := NewDemux(false)
	ch0, ch1 := wireless.NewChannel(), wireless.NewChannel()
	ap0 := NewAP(s, APConfig{Name: "ap0", Channel: ch0,
		Rate: func(sim.Time) float64 { return 30e6 }}, delivery)
	ap1 := NewAP(s, APConfig{Name: "ap1", Channel: ch1,
		Rate:      func(sim.Time) float64 { return 60e6 },
		DownLabel: "ap1.downlink", UpLabel: "ap1.uplink"}, delivery)

	shared := NewStation(s, StationConfig{Name: "shared"}, ap0, delivery)
	owned := NewStation(s, StationConfig{Name: "owned", OwnQueue: true, Label: "owned"}, ap0, delivery)

	if owned.Link() == nil {
		t.Fatal("own-queue station has no dedicated link")
	}
	if owned.DownIn() != netem.Receiver(owned.Link()) {
		t.Error("own-queue DownIn is not the dedicated link")
	}
	if shared.DownIn() != ap0.DownIn {
		t.Error("shared DownIn is not ap0's datapath entry")
	}
	if got := owned.Link().Config().Channel; got != ch0 {
		t.Fatal("dedicated link does not start on ap0's channel")
	}

	shared.Associate(ap1)
	owned.Associate(ap1)

	if shared.AP() != ap1 || owned.AP() != ap1 {
		t.Error("Associate did not update the AP")
	}
	if shared.DownIn() != ap1.DownIn {
		t.Error("shared DownIn did not follow the new AP")
	}
	if got := owned.Link().Config().Channel; got != ch1 {
		t.Error("dedicated link did not move to ap1's channel after roam")
	}
	if got := owned.Link().Config().Rate(0); got != 60e6 {
		t.Errorf("dedicated link rate %g after roam, want the new AP's 60e6", got)
	}
}
