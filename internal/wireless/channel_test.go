package wireless

import (
	"testing"
	"time"

	"github.com/zhuge-project/zhuge/internal/queue"
	"github.com/zhuge-project/zhuge/internal/sim"
)

// twoStations builds two links on one channel, each with its own queue.
func twoStations(s *sim.Simulator, rate float64) (a, b *Link, da, db *capture) {
	ch := NewChannel()
	da, db = &capture{s: s}, &capture{s: s}
	a = NewLink(s, Config{Rate: func(sim.Time) float64 { return rate }, Channel: ch}, queue.NewFIFO(0), da, s.NewRand("a"))
	b = NewLink(s, Config{Rate: func(sim.Time) float64 { return rate }, Channel: ch}, queue.NewFIFO(0), db, s.NewRand("b"))
	return
}

func TestChannelNoOverlap(t *testing.T) {
	// Two saturated stations: their delivery bursts must interleave, and
	// aggregate goodput must be close to (not above) the channel rate.
	s := sim.New(1)
	a, b, da, db := twoStations(s, 10e6)
	for i := 0; i < 400; i++ {
		a.Receive(mkPkt(uint64(i), 1250))
		b.Receive(mkPkt(uint64(1000+i), 1250))
	}
	s.Run()
	if len(da.pkts) != 400 || len(db.pkts) != 400 {
		t.Fatalf("delivered %d/%d", len(da.pkts), len(db.pkts))
	}
	end := da.times[len(da.times)-1]
	if db.times[len(db.times)-1] > end {
		end = db.times[len(db.times)-1]
	}
	aggregate := float64(800*1250*8) / end.Seconds()
	if aggregate > 10e6 {
		t.Errorf("aggregate goodput %.1f Mbps exceeds the 10 Mbps channel", aggregate/1e6)
	}
	if aggregate < 6e6 {
		t.Errorf("aggregate goodput %.1f Mbps; channel badly underutilised", aggregate/1e6)
	}
}

func TestChannelFairnessUnderSaturation(t *testing.T) {
	// Neither saturated station should starve: long-run delivery counts
	// within 2x of each other at any sample point.
	s := sim.New(3)
	a, b, da, db := twoStations(s, 20e6)
	feed := func(l *Link, base uint64) {
		var n uint64
		var tick func()
		tick = func() {
			if s.Now() > 2*time.Second {
				return
			}
			if l.Queue().Len() < 64 {
				l.Receive(mkPkt(base+n, 1250))
				n++
			}
			s.After(400*time.Microsecond, tick)
		}
		s.After(0, tick)
	}
	feed(a, 0)
	feed(b, 1<<32)
	s.RunUntil(2 * time.Second)
	na, nb := len(da.pkts), len(db.pkts)
	if na == 0 || nb == 0 {
		t.Fatalf("starvation: %d vs %d", na, nb)
	}
	ratio := float64(na) / float64(nb)
	if ratio < 0.5 || ratio > 2 {
		t.Errorf("airtime split %d vs %d (ratio %.2f), want within 2x", na, nb, ratio)
	}
}

func TestChannelIdleWhenOneStationQuiet(t *testing.T) {
	// A quiet channel must not slow a single station: same throughput as
	// an unshared link.
	elapsed := func(shared bool) sim.Time {
		s := sim.New(5)
		var l *Link
		dst := &capture{s: s}
		cfg := Config{Rate: func(sim.Time) float64 { return 10e6 }}
		if shared {
			cfg.Channel = NewChannel()
		}
		l = NewLink(s, cfg, queue.NewFIFO(0), dst, s.NewRand("x"))
		for i := 0; i < 200; i++ {
			l.Receive(mkPkt(uint64(i), 1250))
		}
		s.Run()
		return dst.times[len(dst.times)-1]
	}
	solo, shared := elapsed(false), elapsed(true)
	diff := float64(shared-solo) / float64(solo)
	if diff > 0.05 || diff < -0.05 {
		t.Errorf("shared-but-idle channel changed completion time: %v vs %v", shared, solo)
	}
}
