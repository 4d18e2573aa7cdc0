package shard

import (
	"sync/atomic"

	"github.com/zhuge-project/zhuge/internal/netem"
	"github.com/zhuge-project/zhuge/internal/sim"
)

// Parcel is one cross-cell hand-off in flight: a packet, the virtual time
// it arrives, and the receiver it is delivered to on the destination shard.
type Parcel struct {
	P   netem.Held
	At  sim.Time
	Dst netem.Receiver
}

// holder names a cut edge in a netem.Held panic.
const holder = "shard.Edge"

// inbox is a cut edge's queue of parcels. Its one producer is the source
// cell's events, inside a window; its one consumer is the coordinator, at
// the barrier. The two never overlap, and the barrier orders them: every
// shard's window checks out of parallel.Pool.Do's atomic count of cells
// left before the coordinator drains, and the coordinator drains before
// it publishes the next window's round. So the queue itself needs no
// synchronisation, and a sim.Deque is all of it.
//
// Both sides assert the context they depend on against the cluster's
// window predicate (active: shard executors inside a window): push panics
// when no window is executing, drain when one is — whatever calls them.
// That is the *when* of the one-producer/one-consumer rule; *which* cell's
// events produce onto an edge is fixed at Connect and not checked.
type inbox struct {
	active *atomic.Int32 // the owning Cluster's executor count
	q      sim.Deque[Parcel]
}

// push enqueues a parcel. Producer side only, inside a window.
func (b *inbox) push(p Parcel) {
	if b.active.Load() == 0 {
		panic("shard: Edge.Send outside a window: a cut edge's inbox has one producer, its source cell's " +
			"in-window events; a barrier action (Cluster.At) or build code must schedule the send on the cell's simulator instead")
	}
	b.q.PushBack(p)
}

// drain pops every queued parcel in FIFO order into fn. Consumer side
// only, at a barrier.
func (b *inbox) drain(fn func(Parcel)) {
	if b.active.Load() != 0 {
		panic("shard: edge inbox drained while a window is executing: its one consumer is the coordinator, between windows")
	}
	for b.q.Len() > 0 {
		fn(b.q.PopFront())
	}
}
