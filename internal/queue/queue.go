// Package queue implements the queue disciplines evaluated in the paper:
// tail-drop FIFO, CoDel (RFC 8289, drop-from-front) and FQ-CoDel (per-flow
// DRR with per-queue CoDel, the systemd default qdisc mentioned in §4.1).
//
// Every qdisc additionally exposes the per-flow statistics the Zhuge
// Fortune Teller needs: the backlog of the RTC flow's own queue and the
// time its current front packet became front ("Calculation with queue
// disciplines", §4.1).
package queue

import (
	"github.com/zhuge-project/zhuge/internal/netem"
	"github.com/zhuge-project/zhuge/internal/sim"
)

// Qdisc is the interface between the AP's network layer and the wireless
// driver. Enqueue may drop (tail drop or AQM); Dequeue may also drop
// (CoDel's drop-from-front) before returning the next packet to transmit.
type Qdisc interface {
	// Enqueue offers p to the queue at virtual time now. It reports
	// whether the packet was accepted; false means dropped.
	Enqueue(now sim.Time, p *netem.Packet) bool
	// Dequeue removes and returns the next packet to transmit, or nil
	// when the queue is empty.
	Dequeue(now sim.Time) *netem.Packet
	// Len returns the number of queued packets.
	Len() int
	// Bytes returns the total queued bytes.
	Bytes() int
	// FlowBytes returns the backlog of the queue that packets of flow k
	// occupy. For single-queue disciplines this is the total backlog.
	FlowBytes(k netem.FlowKey) int
	// FrontSince returns the time the current front packet of flow k's
	// queue became front, and false when that queue is empty.
	FrontSince(k netem.FlowKey) (sim.Time, bool)
	// Drops returns the cumulative count of dropped packets.
	Drops() int
}

// DropFunc observes a packet the instant a qdisc discards it, before the
// packet is released. Enqueue-time rejections are visible to
// wireless.Observer already (accepted == false); this hook exists for the
// drops only the qdisc sees — CoDel's drop-from-front inside Dequeue.
type DropFunc func(now sim.Time, p *netem.Packet)

// DropObservable is implemented by disciplines that can report their
// internal (dequeue-time) drops to the observability layer.
type DropObservable interface {
	SetDropHook(h DropFunc)
}

// fifoCore is the packet buffer shared by all disciplines: a FIFO with byte
// accounting and front-since tracking.
type fifoCore struct {
	pkts       sim.Deque[netem.Held]
	bytes      int
	frontSince sim.Time
}

// holder names the qdisc buffer in a netem.Held panic.
const holder = "queue"

func (f *fifoCore) len() int    { return f.pkts.Len() }
func (f *fifoCore) size() int   { return f.bytes }
func (f *fifoCore) empty() bool { return f.len() == 0 }

func (f *fifoCore) push(now sim.Time, p *netem.Packet) {
	if f.empty() {
		f.frontSince = now
	}
	f.pkts.PushBack(netem.Hold(p, holder))
	f.bytes += p.Size
}

func (f *fifoCore) pop(now sim.Time) *netem.Packet {
	if f.empty() {
		return nil
	}
	p := f.pkts.PopFront().Packet(holder)
	f.bytes -= p.Size
	if !f.empty() {
		f.frontSince = now
	}
	return p
}

// FIFO is a tail-drop FIFO queue bounded in bytes.
type FIFO struct {
	core  fifoCore
	limit int
	drops int
}

// DefaultFIFOLimit is the byte limit used when none is given: a bufferbloated
// consumer AP buffer (~333 ms at 30 Mbps), matching the paper's setting where
// queues can hold hundreds of milliseconds.
const DefaultFIFOLimit = 1250 * 1000

// NewFIFO returns a tail-drop FIFO bounded at limitBytes (DefaultFIFOLimit
// when limitBytes <= 0).
func NewFIFO(limitBytes int) *FIFO {
	if limitBytes <= 0 {
		limitBytes = DefaultFIFOLimit
	}
	return &FIFO{limit: limitBytes}
}

// Enqueue implements Qdisc.
func (q *FIFO) Enqueue(now sim.Time, p *netem.Packet) bool {
	if q.core.bytes+p.Size > q.limit {
		q.drops++
		return false
	}
	p.EnqueuedAt = now
	q.core.push(now, p)
	return true
}

// Dequeue implements Qdisc.
func (q *FIFO) Dequeue(now sim.Time) *netem.Packet { return q.core.pop(now) }

// Len implements Qdisc.
func (q *FIFO) Len() int { return q.core.len() }

// Bytes implements Qdisc.
func (q *FIFO) Bytes() int { return q.core.size() }

// FlowBytes implements Qdisc; FIFO shares one queue across flows.
func (q *FIFO) FlowBytes(netem.FlowKey) int { return q.core.size() }

// FrontSince implements Qdisc.
func (q *FIFO) FrontSince(netem.FlowKey) (sim.Time, bool) {
	if q.core.empty() {
		return 0, false
	}
	return q.core.frontSince, true
}

// Drops implements Qdisc.
func (q *FIFO) Drops() int { return q.drops }
