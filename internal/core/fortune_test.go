package core

import (
	"testing"
	"time"

	"github.com/zhuge-project/zhuge/internal/netem"
	"github.com/zhuge-project/zhuge/internal/queue"
	"github.com/zhuge-project/zhuge/internal/sim"
	"github.com/zhuge-project/zhuge/internal/wireless"
)

var dataFlow = netem.FlowKey{SrcIP: 1, DstIP: 2, SrcPort: 9000, DstPort: 9001, Proto: 17}

func dataPkt(size int, seq uint64) *netem.Packet {
	return &netem.Packet{Flow: dataFlow, Kind: netem.KindData, Size: size, Seq: seq}
}

// driveDequeues simulates a steady drain: one packet dequeued every gap.
func driveDequeues(s *sim.Simulator, ft *FortuneTeller, q queue.Qdisc, n int, gap time.Duration) {
	for i := 0; i < n; i++ {
		s.After(time.Duration(i)*gap, func() {
			if p := q.Dequeue(s.Now()); p != nil {
				ft.OnDequeue(s.Now(), p)
			}
		})
	}
	s.Run()
}

func TestPredictEmptyQueueIsSmall(t *testing.T) {
	q := queue.NewFIFO(0)
	ft := NewFortuneTeller(q, FortuneTellerConfig{})
	pred := ft.Predict(0, dataFlow)
	if pred.Total != 0 {
		t.Errorf("empty-queue prediction %v, want 0", pred.Total)
	}
}

func TestQLongMatchesQueueOverRate(t *testing.T) {
	s := sim.New(1)
	q := queue.NewFIFO(0)
	ft := NewFortuneTeller(q, FortuneTellerConfig{DisableBurstAdjust: true, DisableQShort: true})
	// Fill the queue with 20 x 1000B and drain 1 packet per 2ms
	// (500 kB/s) so the rate estimator converges.
	for i := 0; i < 40; i++ {
		q.Enqueue(0, dataPkt(1000, uint64(i)))
	}
	driveDequeues(s, ft, q, 20, 2*time.Millisecond)
	now := s.Now()
	pred := ft.Predict(now, dataFlow)
	// Remaining queue: 20KB at 500kB/s = 40ms.
	want := 40 * time.Millisecond
	if pred.QLong < want*3/4 || pred.QLong > want*3/2 {
		t.Errorf("qLong %v, want ~%v", pred.QLong, want)
	}
}

func TestQShortReactsInstantlyToStall(t *testing.T) {
	// Figure 7: when the channel stalls, qShort rises immediately while
	// qLong (rate-window-based) lags.
	s := sim.New(1)
	q := queue.NewFIFO(0)
	ft := NewFortuneTeller(q, FortuneTellerConfig{})
	for i := 0; i < 10; i++ {
		q.Enqueue(0, dataPkt(1000, uint64(i)))
	}
	// Drain normally for 5 packets...
	driveDequeues(s, ft, q, 5, time.Millisecond)
	preStall := ft.Predict(s.Now(), dataFlow)
	// ...then the channel stalls for 30ms: no dequeues.
	s.After(30*time.Millisecond, func() {})
	s.Run()
	stalled := ft.Predict(s.Now(), dataFlow)
	if stalled.QShort < 25*time.Millisecond {
		t.Errorf("qShort after 30ms stall = %v, want >= 25ms", stalled.QShort)
	}
	if stalled.Total <= preStall.Total {
		t.Errorf("total prediction %v did not grow from %v during stall", stalled.Total, preStall.Total)
	}
}

func TestBurstAdjustmentSuppressesAggregateBacklog(t *testing.T) {
	// Packets that will leave in one aggregate burst should contribute
	// ~nothing to qLong (Eq. 1).
	q := queue.NewFIFO(0)
	ft := NewFortuneTeller(q, FortuneTellerConfig{})
	ftNoAdj := NewFortuneTeller(q, FortuneTellerConfig{DisableBurstAdjust: true})

	// Simulate aggregated departures: bursts of 8 packets within <1ms,
	// bursts spaced 5ms apart.
	now := sim.Time(0)
	for burst := 0; burst < 8; burst++ {
		for i := 0; i < 8; i++ {
			p := dataPkt(1000, uint64(burst*8+i))
			ft.OnDequeue(now+time.Duration(i)*10*time.Microsecond, p)
			ftNoAdj.OnDequeue(now+time.Duration(i)*10*time.Microsecond, p)
		}
		now += 5 * time.Millisecond
	}
	// Queue now holds exactly one burst worth of data.
	for i := 0; i < 8; i++ {
		q.Enqueue(now, dataPkt(1000, uint64(100+i)))
	}
	with := ft.Predict(now, dataFlow)
	without := ftNoAdj.Predict(now, dataFlow)
	if with.QLong >= without.QLong {
		t.Errorf("burst adjustment should reduce qLong: %v vs %v", with.QLong, without.QLong)
	}
	if with.QLong > 2*time.Millisecond {
		t.Errorf("one-burst backlog qLong %v, want ~0", with.QLong)
	}
}

func TestTxReflectsDequeueIntervals(t *testing.T) {
	q := queue.NewFIFO(0)
	ft := NewFortuneTeller(q, FortuneTellerConfig{})
	now := sim.Time(0)
	// Dequeue every 4ms (above the 1ms aggregation threshold).
	for i := 0; i < 10; i++ {
		ft.OnDequeue(now, dataPkt(1000, uint64(i)))
		now += 4 * time.Millisecond
	}
	pred := ft.Predict(now, dataFlow)
	if pred.Tx < 3*time.Millisecond || pred.Tx > 5*time.Millisecond {
		t.Errorf("tx %v, want ~4ms", pred.Tx)
	}
}

// TestIdleGapRestartsBurstTracking pins the idle-gap rule of the default
// Fortune Teller: a dequeue gap longer than maxDeqInterval is the link
// sitting idle, not a channel-access interval, so it never enters
// avg(dequeueIntvl) and the estimator resumes as if that dequeue were its
// first.
func TestIdleGapRestartsBurstTracking(t *testing.T) {
	q := queue.NewFIFO(0)
	ft := NewFortuneTeller(q, FortuneTellerConfig{})
	now := sim.Time(0)
	for i := 0; i < 10; i++ {
		ft.OnDequeue(now, dataPkt(1000, uint64(i)))
		now += 4 * time.Millisecond
	}
	now += maxDeqInterval
	ft.OnDequeue(now, dataPkt(1000, 10))
	if tx := ft.Predict(now, dataFlow).Tx; tx != 0 {
		t.Fatalf("tx %v right after a %v idle gap, want 0: the gap was recorded", tx, maxDeqInterval+4*time.Millisecond)
	}
	for i := 11; i < 13; i++ {
		now += 4 * time.Millisecond
		ft.OnDequeue(now, dataPkt(1000, uint64(i)))
	}
	if tx := ft.Predict(now, dataFlow).Tx; tx != 4*time.Millisecond {
		t.Errorf("tx %v after the link resumed at one dequeue per 4ms, want 4ms", tx)
	}
}

func TestSubMillisecondIntervalsExcludedFromTx(t *testing.T) {
	q := queue.NewFIFO(0)
	ft := NewFortuneTeller(q, FortuneTellerConfig{})
	now := sim.Time(0)
	// Bursts of 4 packets 100us apart, bursts every 8ms: tx should be
	// ~8ms, not polluted by the 100us intra-burst gaps (§4.2).
	for b := 0; b < 5; b++ {
		for i := 0; i < 4; i++ {
			ft.OnDequeue(now, dataPkt(1000, uint64(b*4+i)))
			now += 100 * time.Microsecond
		}
		now += 8 * time.Millisecond
	}
	pred := ft.Predict(now, dataFlow)
	if pred.Tx < 6*time.Millisecond {
		t.Errorf("tx %v, want ~8ms (sub-ms intervals excluded)", pred.Tx)
	}
}

func TestPredictionAccuracyOverWireless(t *testing.T) {
	// End-to-end Figure 19 property: predictions at the AP track the
	// actual AP-to-client delay within a reasonable factor.
	s := sim.New(7)
	q := queue.NewFIFO(0)
	type sample struct {
		predicted time.Duration
		actual    time.Duration
	}
	var samples []sample
	client := netem.ReceiverFunc(func(p *netem.Packet) {
		samples = append(samples, sample{p.Predicted, s.Now() - p.APArrival})
	})
	wl := wireless.NewLink(s, wireless.Config{
		Rate: func(at sim.Time) float64 {
			if at > 500*time.Millisecond && at < time.Second {
				return 2e6 // transient drop
			}
			return 20e6
		},
	}, q, client, s.NewRand("wl"))
	ft := NewFortuneTeller(q, FortuneTellerConfig{})
	wl.AddObserver(ft)

	// 2 Mbps of 1000B packets for 2s.
	seq := uint64(0)
	for at := time.Duration(0); at < 2*time.Second; at += 4 * time.Millisecond {
		at := at
		s.At(at, func() {
			p := dataPkt(1000, seq)
			seq++
			pred := ft.Predict(s.Now(), p.Flow)
			p.APArrival = s.Now()
			p.Predicted = pred.Total
			wl.Receive(p)
		})
	}
	s.Run()
	if len(samples) < 400 {
		t.Fatalf("only %d samples", len(samples))
	}
	// Median absolute error must be well below the 50ms RTT the paper
	// compares against.
	var errs []time.Duration
	for _, sm := range samples {
		e := sm.predicted - sm.actual
		if e < 0 {
			e = -e
		}
		errs = append(errs, e)
	}
	// median
	for i := 0; i < len(errs); i++ {
		for j := i + 1; j < len(errs); j++ {
			if errs[j] < errs[i] {
				errs[i], errs[j] = errs[j], errs[i]
			}
		}
	}
	med := errs[len(errs)/2]
	if med > 20*time.Millisecond {
		t.Errorf("median prediction error %v, want < 20ms", med)
	}
}

func TestSelectiveEstimationCache(t *testing.T) {
	q := queue.NewFIFO(0)
	ft := NewFortuneTeller(q, FortuneTellerConfig{SampleEvery: 5 * time.Millisecond})
	// Predictions inside the interval are served from cache.
	p1 := ft.Predict(0, dataFlow)
	q.Enqueue(time.Millisecond, dataPkt(5000, 1))
	p2 := ft.Predict(time.Millisecond, dataFlow)
	if p1 != p2 {
		t.Errorf("cached prediction differs: %+v vs %+v", p1, p2)
	}
	if ft.CacheHits() != 1 {
		t.Errorf("cache hits %d, want 1", ft.CacheHits())
	}
	// After the interval, a fresh prediction sees the queued packet.
	p3 := ft.Predict(6*time.Millisecond, dataFlow)
	if p3 == p1 {
		t.Error("expired cache entry should recompute")
	}
	if ft.Predictions() != 2 {
		t.Errorf("computed predictions %d, want 2", ft.Predictions())
	}
}

func TestSelectiveEstimationKeepsTailReduction(t *testing.T) {
	// §7.6: "as long as the time interval between estimation is
	// negligible (e.g., several milliseconds), the control loop is still
	// reduced" — the cached variant must still track a stall.
	q := queue.NewFIFO(0)
	ft := NewFortuneTeller(q, FortuneTellerConfig{SampleEvery: 3 * time.Millisecond})
	for i := 0; i < 10; i++ {
		q.Enqueue(0, dataPkt(1000, uint64(i)))
	}
	// Stalled channel: predictions at 3ms steps must keep growing.
	prev := ft.Predict(0, dataFlow)
	for at := 4 * time.Millisecond; at <= 40*time.Millisecond; at += 4 * time.Millisecond {
		cur := ft.Predict(sim.Time(at), dataFlow)
		if cur.Total < prev.Total {
			t.Fatalf("prediction shrank during stall at %v: %v -> %v", at, prev.Total, cur.Total)
		}
		prev = cur
	}
	if prev.QShort < 30*time.Millisecond {
		t.Errorf("final qShort %v, want the stall visible", prev.QShort)
	}
}
