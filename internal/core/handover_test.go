package core

import (
	"reflect"
	"testing"
	"time"

	"github.com/zhuge-project/zhuge/internal/netem"
	"github.com/zhuge-project/zhuge/internal/packet"
	"github.com/zhuge-project/zhuge/internal/queue"
	"github.com/zhuge-project/zhuge/internal/sim"
	"github.com/zhuge-project/zhuge/internal/wireless"
)

// newHandoverAP builds a minimal Zhuge AP whose constructed uplink
// feedback lands in uplink.
func newHandoverAP(s *sim.Simulator, label string, uplink netem.Receiver) *AP {
	q := queue.NewFIFO(0)
	wl := wireless.NewLink(s, wireless.Config{
		Rate: func(sim.Time) float64 { return 30e6 },
	}, q, netem.Sink, s.NewRand(label+".wl"))
	return NewAP(s, wl, uplink, s.NewRand(label), FortuneTellerConfig{})
}

func TestExportFlowDetachesAndReportsMode(t *testing.T) {
	s := sim.New(1)
	a := newHandoverAP(s, "a", netem.Sink)
	a.Optimize(dataFlow, ModeInBand)

	h, ok := a.ExportFlow(dataFlow)
	if !ok || h.Mode != ModeInBand {
		t.Fatalf("ExportFlow = (%+v, %v), want in-band state", h, ok)
	}
	if _, again := a.ExportFlow(dataFlow); again {
		t.Error("second ExportFlow succeeded; flow should be detached")
	}
	if _, dropped := a.DropFlow(dataFlow); dropped {
		t.Error("DropFlow succeeded after export; flow should be gone")
	}
}

func TestDropFlowDiscardsStateOnce(t *testing.T) {
	s := sim.New(2)
	a := newHandoverAP(s, "a", netem.Sink)
	a.Optimize(dataFlow, ModeOutOfBand)

	mode, ok := a.DropFlow(dataFlow)
	if !ok || mode != ModeOutOfBand {
		t.Fatalf("DropFlow = (%v, %v), want (ModeOutOfBand, true)", mode, ok)
	}
	if _, again := a.DropFlow(dataFlow); again {
		t.Error("second DropFlow succeeded; state should be discarded")
	}
}

func TestImportZeroValueEqualsFreshOptimize(t *testing.T) {
	s := sim.New(3)
	b := newHandoverAP(s, "b", netem.Sink)
	b.ImportFlow(dataFlow, FlowHandover{Mode: ModeInBand})
	if h, ok := b.ExportFlow(dataFlow); !ok || h.Mode != ModeInBand {
		t.Fatalf("flow not optimized after zero-value import: (%+v, %v)", h, ok)
	}
}

// TestMigrateCarriesUnflushedFortunes is the heart of the migrate policy:
// fortunes recorded at the old AP but not yet flushed into a feedback
// packet must be emitted by the NEW AP, continuing the TWCC feedback
// counter, so the sender never sees a feedback gap.
func TestMigrateCarriesUnflushedFortunes(t *testing.T) {
	s := sim.New(4)
	var raws [][]byte
	sinkB := netem.ReceiverFunc(func(p *netem.Packet) {
		raws = append(raws, append([]byte(nil), p.Payload.(RTCPCarrier).RawRTCP()...))
	})
	a := newHandoverAP(s, "a", netem.Sink)
	b := newHandoverAP(s, "b", sinkB)
	a.Optimize(dataFlow, ModeInBand)

	// Record two fortunes at A and let one feedback flush there, so A's
	// feedback counter is at 1. Then record a third fortune that stays
	// unflushed and migrate.
	mk := func(seq uint16) *netem.Packet {
		return &netem.Packet{Flow: dataFlow, Kind: netem.KindData, Size: 1000,
			Payload: twccPayload{ssrc: 7, seq: seq}}
	}
	a.ib.OnDataPacket(0, dataFlow, mk(100), Prediction{Total: 5 * time.Millisecond})
	a.ib.OnDataPacket(0, dataFlow, mk(101), Prediction{Total: 5 * time.Millisecond})
	s.RunUntil(45 * time.Millisecond) // one flush interval at A
	a.ib.OnDataPacket(s.Now(), dataFlow, mk(102), Prediction{Total: 5 * time.Millisecond})

	h, ok := a.ExportFlow(dataFlow)
	if !ok || h.ib == nil {
		t.Fatalf("export carried no in-band state: (%+v, %v)", h, ok)
	}
	b.ImportFlow(dataFlow, h)
	s.RunUntil(100 * time.Millisecond)
	a.Stop()
	b.Stop()

	if len(raws) == 0 {
		t.Fatal("new AP constructed no feedback from migrated fortunes")
	}
	fb, err := packet.UnmarshalTWCC(raws[0])
	if err != nil {
		t.Fatal(err)
	}
	if fb.BaseSeq != 102 || len(fb.Packets) != 1 {
		t.Errorf("migrated feedback covers base=%d count=%d, want 102/1", fb.BaseSeq, len(fb.Packets))
	}
	if fb.FBCount != 1 {
		t.Errorf("feedback counter restarted at %d, want continuation 1", fb.FBCount)
	}
}

// TestMigrateCarriesLiveOOBState moves an out-of-band flow whose token bank
// has been partly spent: the new AP holds exactly the unspent tokens, their
// total and the delta history, and releases no ACK before the old AP's last.
func TestMigrateCarriesLiveOOBState(t *testing.T) {
	const ms = time.Millisecond
	s := sim.New(6)
	var releasedA, releasedB []sim.Time
	a := NewOOBUpdater(s, netem.ReceiverFunc(func(*netem.Packet) { releasedA = append(releasedA, s.Now()) }), s.NewRand("a"), time.Hour)
	b := NewOOBUpdater(s, netem.ReceiverFunc(func(*netem.Packet) { releasedB = append(releasedB, s.Now()) }), s.NewRand("b"), time.Hour)
	predict := func(totals ...time.Duration) {
		for _, total := range totals {
			a.OnDataPacket(0, dataFlow, Prediction{QLong: total})
		}
	}

	// One +30 ms delta; the first ACK samples it and is held 30 ms.
	predict(100*ms, 130*ms)
	a.OnAckPacket(0, dataFlow, ackPkt(1))
	// Tokens of 10, 10, 15 and 4 ms. The second ACK samples +30 ms again,
	// pays it with 10 + 10 + 10 of them, leaving 5 and 4, and goes out at the
	// order floor, right behind the first.
	predict(120*ms, 110*ms, 95*ms, 91*ms)
	a.OnAckPacket(0, dataFlow, ackPkt(2))

	st := a.exportFlow(dataFlow)
	if want := []time.Duration{5 * ms, 4 * ms}; !reflect.DeepEqual(st.tokenHistory, want) || st.tokenTotal != 9*ms {
		t.Fatalf("exported tokens %v totalling %v, want %v totalling 9ms", st.tokenHistory, st.tokenTotal, want)
	}
	if want := []timedDelta{{at: 0, delta: 30 * ms}}; !reflect.DeepEqual(st.deltaHistory, want) {
		t.Fatalf("exported deltas %v, want %v", st.deltaHistory, want)
	}
	// What B holds is what it would export.
	b.importFlow(dataFlow, st)
	if got := b.exportFlow(dataFlow); !reflect.DeepEqual(got, st) {
		t.Fatalf("imported state %+v, want %+v", got, st)
	}
	b.importFlow(dataFlow, st)

	// At B an ACK samples +30 ms, the 9 ms of tokens offset it, and the order
	// floor is A's last release at 30 ms: held 30 + 21 ms.
	b.OnAckPacket(0, dataFlow, ackPkt(3))
	s.Run()
	if want := []sim.Time{30 * ms, 30 * ms}; !reflect.DeepEqual(releasedA, want) {
		t.Errorf("A released ACKs at %v, want %v", releasedA, want)
	}
	if want := []sim.Time{51 * ms}; !reflect.DeepEqual(releasedB, want) {
		t.Errorf("B released ACKs at %v, want %v", releasedB, want)
	}
}

// TestResetAbandonsUnflushedFortunes pins the reset policy's observable
// cost: fortunes pending at the old AP are never flushed anywhere.
func TestResetAbandonsUnflushedFortunes(t *testing.T) {
	s := sim.New(5)
	var flushed int
	sink := netem.ReceiverFunc(func(*netem.Packet) { flushed++ })
	a := newHandoverAP(s, "a", sink)
	a.Optimize(dataFlow, ModeInBand)
	a.ib.OnDataPacket(0, dataFlow, &netem.Packet{Flow: dataFlow, Kind: netem.KindData, Size: 1000,
		Payload: twccPayload{ssrc: 7, seq: 200}}, Prediction{Total: time.Millisecond})
	if _, ok := a.DropFlow(dataFlow); !ok {
		t.Fatal("DropFlow failed")
	}
	s.RunUntil(200 * time.Millisecond)
	a.Stop()
	if flushed != 0 {
		t.Errorf("old AP flushed %d feedback packets after reset, want 0", flushed)
	}
}
