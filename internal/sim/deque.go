package sim

// Deque is a double-ended queue over one slice: the datapath's queues (qdisc
// buffers, in-flight deliveries, delayed ACKs, sliding windows) are all this
// type. The zero value is an empty deque ready to use.
//
// PopFront advances a head index instead of moving the items behind it. The
// dead prefix this leaves is reclaimed by one rule, applied when a push finds
// the array full: if the prefix is both over dequeCompactAt slots and over
// half the array, the live items are copied down to the start instead of the
// array growing. Each compaction copies fewer items than were popped since
// the last, and a queue held at a standing depth reuses its array without
// allocating.
//
// A pointer from Front or Back, and a slice from Items, is valid until the
// next push or pop.
type Deque[T any] struct {
	buf  []T
	head int
}

// dequeCompactAt is the dead-prefix length at or below which a full array
// grows instead of compacting, so a short queue is never copied.
const dequeCompactAt = 64

// Len returns the number of items.
func (d *Deque[T]) Len() int { return len(d.buf) - d.head }

// Items returns the items, front first. The slice aliases the deque's array.
func (d *Deque[T]) Items() []T { return d.buf[d.head:] }

// Front returns a pointer to the front item. It panics on an empty deque.
func (d *Deque[T]) Front() *T { return &d.buf[d.head] }

// Back returns a pointer to the back item. It panics on an empty deque.
func (d *Deque[T]) Back() *T {
	items := d.Items()
	return &items[len(items)-1]
}

// PushBack appends v at the back.
//
// The compaction rule is checked here, where a full array has to grow
// anyway, and written with builtins rather than as a call: Go's inliner
// charges a call 57 of its budget of 80, and PushBack and PopFront both
// inline as they are. The slots the live items vacate are not cleared;
// each is written again before the array next fills, and clearing them
// would cost the qdisc's enqueue its inlining.
func (d *Deque[T]) PushBack(v T) {
	if len(d.buf) == cap(d.buf) && d.head > dequeCompactAt && 2*d.head > len(d.buf) {
		d.buf = append(d.buf[:0], d.buf[d.head:]...)
		d.head = 0
	}
	d.buf = append(d.buf, v)
}

// PopFront removes and returns the front item. It panics on an empty deque.
func (d *Deque[T]) PopFront() T {
	v := d.buf[d.head]
	var zero T
	d.buf[d.head] = zero
	d.head++
	return v
}

// PopBack removes and returns the back item. It panics on an empty deque.
func (d *Deque[T]) PopBack() T {
	p := d.Back()
	v := *p
	var zero T
	*p = zero
	d.buf = d.buf[:len(d.buf)-1]
	return v
}
