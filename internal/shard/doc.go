// Package shard runs one simulated topology across several event heaps in
// parallel — conservative parallel discrete-event simulation in the
// bounded-time-window (null-message) style.
//
// The unit of decomposition is a cell: a subgraph that owns its own
// sim.Simulator (the PR 4 flat 4-ary event core, running as a cell-local
// clock) and shares no mutable state with any other cell. A shard is a
// parallel execution slot — the set of cells one worker advances during a
// window — and residency is pure scheduling: it decides which core runs a
// cell's events, never what those events do. That split is what makes
// barrier-time migration safe: moving a cell between shards moves a
// pointer, not state.
//
// Cells are joined only by Edges — explicit links with a positive minimum
// delay, mirroring a topology's wired netem.Links, whose delay is the
// lookahead that makes conservative synchronisation possible: a packet
// sent at time t cannot arrive before t+delay, so while the global minimum
// next-event time is m, every shard may safely execute events strictly
// before m+L (L = the minimum delay over the armed edges) without ever
// receiving a message in its past. Only an armed edge may carry a packet;
// arming is a per-edge route count changed at barriers (Edge.Arm, Disarm,
// DisarmWhenDrained), so with nothing armed the m+L term drops out.
//
// A Cluster advances its shards in lockstep windows:
//
//	W = min(m + L, next barrier action, horizon)
//	every shard runs its cells' events in [now, W) in parallel (RunBefore)
//	edge inboxes drain in global edge order            (barrier)
//	actions scheduled exactly at W run single-threaded (barrier)
//	routes whose visit has drained disarm their edges  (barrier)
//
// Edges never deliver at send time — not even when source and destination
// happen to share a shard. Sends enqueue (packet, arrival, dst) into the
// edge's inbox ring; the coordinator drains every edge at every barrier in
// name order and schedules the arrivals on the destination simulators.
// Deferring uniformly is what makes placement invisible: the order in
// which cross-cell arrivals obtain event sequence numbers depends only on
// the (fixed) edge order and each edge's (deterministic, per-cell) FIFO
// content, never on which shard a cell happened to reside on.
//
// Ownership rules for the inbox rings: an Edge has exactly one producer
// (events of its source cell, run by whichever worker owns that cell's
// shard during a window) and one consumer (the coordinator, at the
// barrier). The barrier's WaitGroup gives the happens-before edge between
// the two; the ring's atomics additionally make in-window publication safe
// under the race detector. A packet pushed into an edge belongs to the
// edge until the barrier delivers it; senders must not retain or release
// it.
//
// Migration (Cluster.Migrate) re-homes a cell at a barrier, when no shard
// goroutine is running: the cell's event heap changes executor and the
// producer side of its edges changes with it, inside the same
// happens-before edge every barrier already provides. The Rebalancer
// drives migration from the Profiler's per-window load measurements —
// observe the imbalance at a barrier, react in that same barrier — and
// because placement is invisible, even a wall-clock-driven migration
// schedule cannot perturb outputs.
//
// Every rule above is asserted at runtime against one predicate — a window
// is executing (Cluster.active != 0): Edge.Send panics outside a window;
// draining a ring, Cluster.AddShard/AddCell/Connect/At/Migrate/Run*,
// Edge.Arm/Disarm/DisarmWhenDrained and Cell.Sim panic inside one
// (Cluster.BarrierOnly, which code outside this package calls before
// mutating state that spans cells). An executing event always sees a window
// and a barrier action never does, so a violation is the same panic at any
// worker count. Edge.Send on a disarmed edge panics too; arming changes
// only at barriers, so that panic is also the same at any worker count.
package shard
