package queue

import (
	"github.com/zhuge-project/zhuge/internal/netem"
	"github.com/zhuge-project/zhuge/internal/sim"
)

// FQCoDel implements the fq_codel discipline: flows are hashed into
// sub-queues served by deficit round-robin, each sub-queue running its own
// CoDel control law. New flows get one quantum of priority, matching the
// Linux implementation's new/old flow lists.
type FQCoDel struct {
	buckets  []fqBucket
	newFlows sim.Deque[int] // bucket indices
	oldFlows sim.Deque[int]
	quantum  int
	limit    int // total byte limit
	bytes    int
	pkts     int
	drops    int
	onDrop   DropFunc
}

// SetDropHook implements DropObservable for every bucket's control law.
func (q *FQCoDel) SetDropHook(h DropFunc) { q.onDrop = h }

type fqBucket struct {
	core    fifoCore
	codel   codelState
	deficit int
	active  bool // on one of the flow lists
	isNew   bool
}

// NewFQCoDel returns an fq_codel qdisc with nBuckets flow queues (64 when
// nBuckets <= 0) bounded at limitBytes total (DefaultFIFOLimit when <= 0).
func NewFQCoDel(nBuckets, limitBytes int) *FQCoDel {
	if nBuckets <= 0 {
		nBuckets = 64
	}
	if limitBytes <= 0 {
		limitBytes = DefaultFIFOLimit
	}
	q := &FQCoDel{
		buckets: make([]fqBucket, nBuckets),
		quantum: mtu,
		limit:   limitBytes,
	}
	for i := range q.buckets {
		q.buckets[i].codel = newCodelState()
	}
	return q
}

func (q *FQCoDel) bucketOf(k netem.FlowKey) int {
	return int(k.Hash() % uint32(len(q.buckets)))
}

// Enqueue implements Qdisc.
func (q *FQCoDel) Enqueue(now sim.Time, p *netem.Packet) bool {
	if q.bytes+p.Size > q.limit {
		q.drops++
		return false
	}
	i := q.bucketOf(p.Flow)
	b := &q.buckets[i]
	p.EnqueuedAt = now
	b.core.push(now, p)
	q.bytes += p.Size
	q.pkts++
	if !b.active {
		b.active = true
		b.isNew = true
		b.deficit = q.quantum
		q.newFlows.PushBack(i)
	}
	return true
}

// Dequeue implements Qdisc: DRR across active buckets, new flows first,
// per-bucket CoDel drop-from-front.
func (q *FQCoDel) Dequeue(now sim.Time) *netem.Packet {
	for q.pkts > 0 {
		list := &q.newFlows
		if list.Len() == 0 {
			list = &q.oldFlows
		}
		if list.Len() == 0 {
			return nil // inconsistent; should not happen
		}
		i := *list.Front()
		b := &q.buckets[i]
		if b.deficit <= 0 {
			// Move to the back of old flows with a fresh quantum.
			b.deficit += q.quantum
			list.PopFront()
			b.isNew = false
			q.oldFlows.PushBack(i)
			continue
		}
		before := b.core.len()
		p, drops := b.codel.dequeue(now, &b.core, q.onDrop)
		q.drops += drops
		q.pkts -= before - b.core.len()
		if p != nil {
			q.bytes -= p.Size
			q.recountBytes(drops, b)
			b.deficit -= p.Size
			if b.core.empty() {
				q.deactivate(list, i, b)
			}
			return p
		}
		// Bucket drained entirely by CoDel drops.
		q.recountBytes(drops, b)
		q.deactivate(list, i, b)
	}
	return nil
}

// recountBytes reconciles the total byte counter after CoDel drops inside a
// bucket (the dropped packets' bytes already left the bucket's core).
func (q *FQCoDel) recountBytes(drops int, b *fqBucket) {
	if drops == 0 {
		return
	}
	total := 0
	for i := range q.buckets {
		total += q.buckets[i].core.size()
	}
	q.bytes = total
}

func (q *FQCoDel) deactivate(list *sim.Deque[int], i int, b *fqBucket) {
	if list.Len() > 0 && *list.Front() == i {
		list.PopFront()
	}
	b.active = false
	b.isNew = false
}

// Len implements Qdisc.
func (q *FQCoDel) Len() int { return q.pkts }

// Bytes implements Qdisc.
func (q *FQCoDel) Bytes() int { return q.bytes }

// FlowBytes implements Qdisc: the backlog of k's own bucket, which is what
// the Fortune Teller must use under per-flow queuing (§4.1).
func (q *FQCoDel) FlowBytes(k netem.FlowKey) int {
	return q.buckets[q.bucketOf(k)].core.size()
}

// FrontSince implements Qdisc for flow k's bucket.
func (q *FQCoDel) FrontSince(k netem.FlowKey) (sim.Time, bool) {
	b := &q.buckets[q.bucketOf(k)]
	if b.core.empty() {
		return 0, false
	}
	return b.core.frontSince, true
}

// Drops implements Qdisc.
func (q *FQCoDel) Drops() int { return q.drops }
