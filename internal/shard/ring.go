package shard

import (
	"sync/atomic"

	"github.com/zhuge-project/zhuge/internal/netem"
	"github.com/zhuge-project/zhuge/internal/sim"
)

// Parcel is one cross-cell hand-off in flight: a packet, the virtual time
// it arrives, and the receiver it is delivered to on the destination shard.
type Parcel struct {
	P   *netem.Packet
	At  sim.Time
	Dst netem.Receiver
}

// ringCap is the initial inbox capacity per edge (must be a power of two).
// A window's worth of traffic on one cut edge rarely exceeds a handful of
// packets; a burst beyond the current capacity grows the buffer in place.
const ringCap = 256

// ring is a single-producer single-consumer queue of parcels. The producer
// is the source cell's events (one goroutine per window); the consumer is
// the coordinator at the barrier. head and tail are monotonic atomics so
// in-window pushes are cleanly published, but the design leans on the
// barrier: the consumer only drains between windows, after the worker
// pool's check-out counter (the atomic count of shards still running,
// which parallel.Pool.Do waits to read zero) has established
// happens-before with every producer.
//
// Capacity grows geometrically inside push when a window's burst exceeds
// it. Growth is safe precisely because the ring is SPSC with a consumer
// that drains only between windows: during a window only the producer
// touches buf, so it may replace the slice; the barrier's happens-before
// edge publishes the new header to the consumer before the next drain. Capacity stays a power of
// two so position i lives at buf[i % len(buf)] before and after growth.
//
// Both sides assert the context they depend on against the cluster's
// window predicate (active: shard executors inside a window): push panics
// when no window is executing, drain when one is — whatever calls them.
// That is the *when* of the single-producer/single-consumer rule; *which*
// cell's events produce onto an edge is fixed at Connect and not checked.
type ring struct {
	active *atomic.Int32 // the owning Cluster's executor count
	buf    []Parcel      // power-of-two length; nil until first push
	head   atomic.Uint64 // next slot to pop (consumer-owned)
	tail   atomic.Uint64 // next slot to push (producer-owned)
}

// push enqueues a parcel, growing the buffer when full. Producer side only.
func (r *ring) push(p Parcel) {
	if r.active.Load() == 0 {
		panic("shard: Edge.Send outside a window: a cut edge's ring has one producer, its source cell's " +
			"in-window events; a barrier action (Cluster.At) or build code must schedule the send on the cell's simulator instead")
	}
	t := r.tail.Load()
	if n := uint64(len(r.buf)); t-r.head.Load() == n {
		r.grow()
	}
	r.buf[t%uint64(len(r.buf))] = p
	r.tail.Store(t + 1)
}

// grow doubles the buffer (or allocates the initial one), re-laying live
// parcels so absolute position i stays at buf[i % len(buf)]. Producer side
// only, inside a window, while the consumer drains only at barriers.
func (r *ring) grow() {
	if r.buf == nil {
		r.buf = make([]Parcel, ringCap)
		return
	}
	old := r.buf
	next := make([]Parcel, 2*len(old))
	h, t := r.head.Load(), r.tail.Load()
	for i := h; i < t; i++ {
		next[i%uint64(len(next))] = old[i%uint64(len(old))]
	}
	r.buf = next
}

// drain pops every queued parcel in FIFO order into fn. Consumer side
// only, at a barrier.
func (r *ring) drain(fn func(Parcel)) {
	if r.active.Load() != 0 {
		panic("shard: edge ring drained while a window is executing: its one consumer is the coordinator, between windows")
	}
	h, t := r.head.Load(), r.tail.Load()
	for ; h < t; h++ {
		i := h % uint64(len(r.buf))
		fn(r.buf[i])
		r.buf[i] = Parcel{}
	}
	r.head.Store(h)
}
