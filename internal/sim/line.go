package sim

import "fmt"

// Line is a delay line: a FIFO of values, each due at a time no earlier than
// the one pushed before it, fired through fn at that time. It fires every
// value exactly where an event of its own would have fired, but keeps one
// retained timer in the heap, for its head, instead of one event per value:
// a link with a bandwidth-delay product of packets in flight costs the heap
// one entry, not hundreds.
//
// Push takes the value's sequence number when it is pushed, as Schedule
// would, and the head's timer is armed under the head's stored (at, seq).
// When it fires, the line pops the head and re-arms the timer under the next
// head's key before calling fn; that key is greater than the one that just
// fired and was handed out before any event fn schedules, so values and
// events interleave in strict (at, seq) order.
type Line[T any] struct {
	s     *Simulator
	fn    func(T)
	q     Deque[lineEntry[T]]
	timer *Timer
}

type lineEntry[T any] struct {
	key eventKey
	v   T
}

// NewLine returns an empty line on s that hands each value to fn when due.
func NewLine[T any](s *Simulator, fn func(T)) *Line[T] {
	l := &Line[T]{s: s, fn: fn}
	l.timer = s.NewTimer(l.fire)
	return l
}

// Push queues v to fire at absolute virtual time at. Pushing before now, or
// before the value pushed last, panics: the first is a scenario bug, as for
// Schedule, and the second would fire out of time order.
func (l *Line[T]) Push(at Time, v T) {
	s := l.s
	s.checkTime(at)
	if l.q.Len() > 0 && at < l.q.Back().key.at {
		panic(fmt.Sprintf("sim: line push at %v before its last at %v", at, l.q.Back().key.at))
	}
	s.seq++
	l.q.PushBack(lineEntry[T]{key: eventKey{at: at, seq: s.seq}, v: v})
	if l.q.Len() == 1 {
		l.timer.arm(l.q.Front().key)
	}
}

// fire delivers the head and re-arms the timer for the next one.
func (l *Line[T]) fire() {
	e := l.q.PopFront()
	if l.q.Len() > 0 {
		l.timer.arm(l.q.Front().key)
	}
	l.fn(e.v)
}
