package main

import (
	"fmt"
	"math"
	"time"

	"github.com/zhuge-project/zhuge/internal/core"
	"github.com/zhuge-project/zhuge/internal/metrics"
	"github.com/zhuge-project/zhuge/internal/netem"
	"github.com/zhuge-project/zhuge/internal/packet"
	"github.com/zhuge-project/zhuge/internal/parallel"
	"github.com/zhuge-project/zhuge/internal/queue"
	"github.com/zhuge-project/zhuge/internal/sim"
	"github.com/zhuge-project/zhuge/internal/wireless"
)

// A drill loops over one package's public API in isolation for at least
// drillTime, so a layer's own cost can be read apart from the workloads that
// mix it with others. Every traced run makes all of them.
const (
	drillTime      = 500 * time.Millisecond
	drillTimeSmoke = 10 * time.Millisecond
	drillBatch     = 1024 // cheap operations between looks at the clock
)

// drillResult is the cost of one unit of the drilled layer's work.
type drillResult struct{ ns, allocs float64 }

// drill calls op in batches until the time is up. The units of work are
// operations, or what units counts when it is not nil (a drill whose
// operation does a varying amount of work). The time per unit is that of the
// fastest batch - the floor, as for the workloads - and the allocations per
// unit are the mean over all batches.
func (rc *runCtx) drill(name string, batch int, units func() uint64, op func(i int)) drillResult {
	limit := drillTime
	if rc.cfg.smoke {
		limit = drillTimeSmoke
	}
	n := 0
	if units == nil {
		units = func() uint64 { return uint64(n) }
	}
	for ; n < batch; n++ { // warm the caches, pools and free lists
		op(n)
	}
	id := rc.tr.begin(rc.parent, "drill:"+name)
	first := units()
	before := readAllocs()
	best := math.Inf(1)
	start := time.Now()
	for mark, u0 := start, first; mark.Sub(start) < limit; {
		for end := n + batch; n < end; n++ {
			op(n)
		}
		now, u1 := time.Now(), units()
		if u1 > u0 {
			best = math.Min(best, float64(now.Sub(mark))/float64(u1-u0))
		}
		mark, u0 = now, u1
	}
	a := readAllocs().since(before)
	rc.tr.end(id)
	return drillResult{ns: best, allocs: float64(a.objects) / float64(units()-first)}
}

// releaseSink consumes packets terminally, returning them to the pool.
var releaseSink = netem.ReceiverFunc(func(p *netem.Packet) { p.Release() })

// twccPayload is the least a data packet must carry for the in-band updater
// to record its fortune.
type twccPayload struct {
	ssrc uint32
	seq  uint16
}

func (t *twccPayload) TWCCInfo() (uint32, uint16) { return t.ssrc, t.seq }

var drillFlow = netem.FlowKey{SrcIP: 1, DstIP: 2, SrcPort: 9, DstPort: 9, Proto: 17}

func runDrills(rc *runCtx) {
	r := rc.rep

	// sim: 8192 standing self-rescheduling timers whose offsets repeat, so
	// same-instant batches occur; each op advances virtual time by 1 us and
	// the cost is per event fired.
	{
		s := sim.New(1)
		offsets := [8]time.Duration{
			4 * time.Microsecond, 64 * time.Microsecond, 4 * time.Microsecond,
			256 * time.Microsecond, 16 * time.Microsecond, 4 * time.Microsecond,
			1 * time.Millisecond, 64 * time.Microsecond,
		}
		for i := 0; i < 8192; i++ {
			d := offsets[i%len(offsets)]
			var fn func()
			fn = func() { s.ScheduleAfter(d, fn) }
			s.Schedule(time.Duration(i%64)*time.Microsecond, fn)
		}
		res := rc.drill("sim", drillBatch, s.Fired, func(i int) { s.RunUntil(time.Duration(i+1) * time.Microsecond) })
		r.set("sim.drill_ns_per_event", res.ns)
		r.set("sim.drill_allocs_per_event", res.allocs)
	}

	// netem: a pooled packet through a 1 Gbit/s link into a releasing sink.
	{
		s := sim.New(1)
		l := netem.NewLink(s, 1e9, time.Millisecond, releaseSink)
		res := rc.drill("netem.link", drillBatch, nil, func(int) {
			p := netem.NewPacket()
			p.Flow, p.Kind, p.Size = drillFlow, netem.KindData, 1200
			l.Receive(p)
			s.RunUntil(s.Now() + 10*time.Microsecond)
		})
		s.Run() // deliver, and so release, what is still in flight
		r.set("netem.link_ns_per_packet", res.ns)
		r.set("netem.link_allocs_per_packet", res.allocs)
	}

	// queue: enqueue + dequeue against 20 standing packets.
	for _, q := range []struct {
		name string
		q    queue.Qdisc
	}{
		{"fifo", queue.NewFIFO(0)},
		{"codel", queue.NewCoDel(0)},
		{"fqcodel", queue.NewFQCoDel(0, 0)},
	} {
		var now sim.Time
		for i := 0; i < 20; i++ {
			q.q.Enqueue(now, &netem.Packet{Flow: drillFlow, Size: 1200})
		}
		pkt := &netem.Packet{Flow: drillFlow, Size: 1200}
		res := rc.drill("queue."+q.name, drillBatch, nil, func(int) {
			now += 100 * time.Microsecond
			q.q.Enqueue(now, pkt)
			if out := q.q.Dequeue(now); out != nil {
				pkt = out
			} else {
				pkt = &netem.Packet{Flow: drillFlow, Size: 1200} // CoDel dropped it
			}
		})
		r.set("queue."+q.name+"_ns_per_op", res.ns)
	}

	// wireless: a saturated link on a constant 20 Mbit/s rate into the sink.
	{
		s := sim.New(1)
		q := queue.NewFIFO(0)
		delivered := uint64(0)
		sink := netem.ReceiverFunc(func(p *netem.Packet) {
			delivered++
			p.Release()
		})
		l := wireless.NewLink(s, wireless.Config{Rate: func(sim.Time) float64 { return 20e6 }},
			q, sink, s.NewRand("bench.wireless"))
		res := rc.drill("wireless", drillBatch, func() uint64 { return delivered }, func(int) {
			for q.Len() < 64 { // keep the queue from ever running dry
				p := netem.NewPacket()
				p.Flow, p.Kind, p.Size = drillFlow, netem.KindData, 1200
				l.Receive(p)
			}
			s.RunUntil(s.Now() + time.Millisecond)
		})
		r.set("wireless.ns_per_packet", res.ns)
		r.set("wireless.allocs_per_packet", res.allocs)
	}

	// core, out-of-band (the Fig. 21 datapath): per data packet a dequeue
	// observation, a prediction and a delta; per ACK, Algorithm 2.
	var oobAllocs float64
	for _, nFlows := range []int{1, 5} {
		s := sim.New(1)
		q := queue.NewFIFO(0)
		ft := core.NewFortuneTeller(q, core.FortuneTellerConfig{})
		oob := core.NewOOBUpdater(s, netem.Sink, s.NewRand("bench.oob"), 0)
		flows := make([]netem.FlowKey, nFlows)
		acks := make([]*netem.Packet, nFlows)
		data := make([]*netem.Packet, nFlows)
		for i := range flows {
			flows[i] = netem.FlowKey{SrcIP: 1, DstIP: 2, SrcPort: uint16(1000 + i), DstPort: 80, Proto: 6}
			acks[i] = &netem.Packet{Flow: flows[i].Reverse(), Kind: netem.KindAck, Size: 64}
			data[i] = &netem.Packet{Flow: flows[i], Size: 1200}
		}
		for i := 0; i < 20; i++ {
			q.Enqueue(0, &netem.Packet{Flow: flows[i%nFlows], Size: 1200})
		}
		var now sim.Time
		res := rc.drill(fmt.Sprintf("core.oob.flows-%d", nFlows), drillBatch, nil, func(i int) {
			now += 4 * time.Millisecond
			f := flows[i%nFlows]
			ft.OnDequeue(now, data[i%nFlows])
			oob.OnDataPacket(now, f, ft.Predict(now, f))
			oob.OnAckPacket(now, f, acks[i%nFlows])
			s.RunUntil(now)
		})
		r.set(fmt.Sprintf("core.oob_ns_per_packet.flows-%d", nFlows), res.ns)
		if nFlows == 1 {
			oobAllocs = res.allocs
		}
	}
	r.set("core.allocs_per_packet", oobAllocs)

	// core, in-band: record a fortune per packet; the updater's own ticker
	// builds and emits TWCC every 40 ms of virtual time.
	{
		s := sim.New(1)
		q := queue.NewFIFO(0)
		ft := core.NewFortuneTeller(q, core.FortuneTellerConfig{})
		ib := core.NewInbandUpdater(s, releaseSink, 0)
		for i := 0; i < 20; i++ {
			q.Enqueue(0, &netem.Packet{Flow: drillFlow, Size: 1200})
		}
		carrier := &twccPayload{ssrc: 1}
		pkt := &netem.Packet{Flow: drillFlow, Kind: netem.KindData, Size: 1200, Payload: carrier}
		var now sim.Time
		res := rc.drill("core.inband", drillBatch, nil, func(i int) {
			now += 4 * time.Millisecond
			carrier.seq = uint16(i)
			ft.OnDequeue(now, pkt)
			ib.OnDataPacket(now, drillFlow, pkt, ft.Predict(now, drillFlow))
			s.RunUntil(now)
		})
		ib.Stop()
		r.set("core.inband_ns_per_packet", res.ns)

		res = rc.drill("core.predict", drillBatch, nil, func(int) {
			now += 500 * time.Microsecond
			ft.OnDequeue(now, pkt)
			ft.Predict(now, drillFlow)
		})
		r.set("core.predict_ns", res.ns)
	}

	// packet: the live relay's wire formats.
	{
		hdr := packet.RTPHeader{PayloadType: 96, Seq: 7, SSRC: 1, HasTWCC: true, TWCCSeq: 77}
		wire := hdr.Marshal(nil, make([]byte, relayDatagram-20))
		failed := 0
		res := rc.drill("packet.rtp-parse", drillBatch, nil, func(int) {
			var h packet.RTPHeader
			if _, err := h.Unmarshal(wire); err != nil {
				failed++
			}
		})
		r.set("packet.rtp_parse_ns", res.ns)

		arrivals := make([]packet.TWCCArrival, 50)
		for i := range arrivals {
			arrivals[i] = packet.TWCCArrival{Seq: uint16(i), At: time.Duration(i) * 4 * time.Millisecond}
		}
		res = rc.drill("packet.twcc-build", drillBatch, nil, func(i int) {
			if len(packet.BuildTWCC(1, 1, uint8(i), arrivals).Marshal(nil)) == 0 {
				failed++
			}
		})
		r.set("packet.twcc_build_ns", res.ns)
		r.set("packet.twcc_build_allocs", res.allocs)

		twcc := packet.BuildTWCC(1, 1, 0, arrivals).Marshal(nil)
		res = rc.drill("packet.twcc-parse", drillBatch, nil, func(int) {
			if _, err := packet.UnmarshalTWCC(twcc); err != nil {
				failed++
			}
		})
		r.set("packet.twcc_parse_ns", res.ns)
		if failed > 0 {
			r.problem("packet drills: %d operations failed", failed)
		}
	}

	// parallel: the cell runner's own cost, 100 000 empty cells per op.
	{
		cells := 100_000
		if rc.cfg.smoke {
			cells = 1000
		}
		done := uint64(0)
		res := rc.drill("parallel.map", 1, func() uint64 { return done }, func(int) {
			parallel.Map(rc.cfg.nproc, cells, func(int) {})
			done += uint64(cells)
		})
		r.set("parallel.map_us_per_cell", res.ns/1e3)
	}

	// metrics: one histogram add per delivered packet in every scenario.
	{
		h := metrics.NewHistogram()
		res := rc.drill("metrics.hist-add", drillBatch, nil, func(i int) {
			h.Add(time.Duration(i%4096) * 100 * time.Microsecond)
		})
		r.set("metrics.hist_add_ns", res.ns)
	}
}
