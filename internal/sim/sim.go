// Package sim implements a deterministic discrete-event simulator.
//
// The simulator is the substrate every scenario in this repository runs on:
// a virtual clock, an event heap and per-component deterministic random
// number generators. All time values are time.Duration offsets from the
// simulation start, so scenarios are reproducible bit-for-bit given a seed.
package sim

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"
)

// Time is a virtual timestamp measured from the start of the simulation.
type Time = time.Duration

// Timer is a handle for a scheduled event. It can be stopped before firing,
// and re-armed with Reset at any time, before or after it fires.
//
// Timers handed out by At/After/NewTimer are "retained": the caller holds the
// handle and may Stop, Reset or inspect it at any time — even long after the
// event fired — so the simulator must never reuse them. Recycling a retained
// timer would let a caller's stale handle alias a future, unrelated event:
// Stop would cancel someone else's timer and At/Pending would report its
// state. So each handle costs one allocation when it is made, and none
// after: a deadline that keeps moving (a retransmission timeout re-armed on
// every send and ACK) is one timer Reset in place, not a new handle per move.
// The handle-less Schedule/ScheduleAfter path recycles timers through a
// per-simulator free list and runs allocation-free.
type Timer struct {
	at  Time
	seq uint64
	fn  func()
	s   *Simulator
	// slot is the timer's index in the event heap while it is queued there,
	// and slotIdle otherwise: fired, stopped, or never armed.
	slot     int
	retained bool
}

const slotIdle = -1

// At returns the virtual time this timer is, or was last, armed to fire.
func (t *Timer) At() Time { return t.at }

// Pending reports whether the timer is armed and has not yet fired.
func (t *Timer) Pending() bool { return t.slot != slotIdle }

// Stop cancels the timer, taking it out of the event queue. Stopping a timer
// that is not pending is a no-op. It reports whether the call prevented the
// timer from firing.
func (t *Timer) Stop() bool {
	if t.slot == slotIdle {
		return false
	}
	t.s.events.remove(t.slot)
	return true
}

// Reset arms the timer to fire at absolute virtual time at, whether it is
// pending, fired or stopped. It takes one fresh sequence number, as Stop
// followed by At does, so it fires exactly where that pair would have put a
// new timer; but a timer queued in the heap is re-keyed in place, sifting
// from its own slot, and nothing is allocated. Resetting into the past
// panics, as scheduling there does.
func (t *Timer) Reset(at Time) {
	t.s.checkTime(at)
	t.s.seq++
	t.arm(eventKey{at: at, seq: t.s.seq})
}

// arm queues the timer under k, re-keying it where it sits if it is queued
// already. k.seq must be one the simulator has handed out.
func (t *Timer) arm(k eventKey) {
	t.at, t.seq = k.at, k.seq
	if t.slot == slotIdle {
		t.s.events.push(t)
	} else {
		t.s.events.rekey(t.slot, k)
	}
}

// eventKey is the heap-ordering key, kept in a flat array separate from the
// timers so sift comparisons touch only densely packed 16-byte keys instead
// of chasing *Timer pointers. Ordering is strictly (at, seq): seq is unique
// per simulator, so no two keys compare equal and ties between
// same-timestamp events always resolve to scheduling order.
type eventKey struct {
	at  Time
	seq uint64
}

func (k eventKey) less(o eventKey) bool {
	return k.at < o.at || (k.at == o.at && k.seq < o.seq)
}

// eventQueue is a flat 4-ary min-heap over (key, timer) pairs stored in two
// parallel slices: key[i] orders the heap, tm[i] is the timer it belongs to.
// Compared with container/heap over []*Timer this removes the any-boxing of
// Push/Pop, the Less/Swap interface dispatch per comparison, and the pointer
// chase per comparison; the 4-ary layout halves the tree depth and keeps all
// four children of a node inside one cache line of keys.
//
// Children of node i are arity*i+1 ... arity*i+arity; parent is
// (i-1)/arity. Invariants: key[parent] < key[child] for every edge (strict,
// because seq is unique), and tm[i].slot == i for every i, so a timer can be
// removed or re-keyed where it sits.
type eventQueue struct {
	key []eventKey
	tm  []*Timer
}

const arity = 4

func (q *eventQueue) len() int { return len(q.key) }

func (q *eventQueue) push(t *Timer) {
	i := len(q.key)
	q.key = append(q.key, eventKey{at: t.at, seq: t.seq})
	q.tm = append(q.tm, t)
	q.siftUp(i)
}

// siftUp moves the element at i toward the root until its parent is
// smaller, shifting ancestors down into the hole instead of swapping.
func (q *eventQueue) siftUp(i int) {
	k, t := q.key[i], q.tm[i]
	for i > 0 {
		p := (i - 1) / arity
		if !k.less(q.key[p]) {
			break
		}
		q.key[i], q.tm[i] = q.key[p], q.tm[p]
		q.tm[i].slot = i
		i = p
	}
	q.key[i], q.tm[i] = k, t
	t.slot = i
}

// pop removes and returns the minimum-(at, seq) timer. It is remove(0),
// written out for the event loop's hot path.
func (q *eventQueue) pop() *Timer {
	t := q.tm[0]
	t.slot = slotIdle
	n := len(q.key) - 1
	k, last := q.key[n], q.tm[n]
	q.tm[n] = nil
	q.key = q.key[:n]
	q.tm = q.tm[:n]
	if n > 0 {
		q.key[0], q.tm[0] = k, last
		q.siftDown(0)
	}
	return t
}

// remove takes the timer at i out of the heap: the last element fills the
// hole and sifts from there, up or down.
func (q *eventQueue) remove(i int) {
	q.tm[i].slot = slotIdle
	n := len(q.key) - 1
	k, last := q.key[n], q.tm[n]
	q.tm[n] = nil
	q.key = q.key[:n]
	q.tm = q.tm[:n]
	if i < n {
		q.key[i], q.tm[i] = k, last
		q.fix(i)
	}
}

// rekey gives the timer at i a new key and restores the heap from i.
func (q *eventQueue) rekey(i int, k eventKey) {
	q.key[i] = k
	q.fix(i)
}

// fix restores the heap around i after key[i] changed: toward the root if
// it now beats its parent, toward the leaves otherwise.
func (q *eventQueue) fix(i int) {
	if i > 0 && q.key[i].less(q.key[(i-1)/arity]) {
		q.siftUp(i)
	} else {
		q.siftDown(i)
	}
}

// siftDown restores the heap below i, walking the hole down through the
// smallest child at each level. The slice headers and the current
// minimum-child key live in locals so the inner loop compares registers
// instead of reloading through the struct pointer. key[i] must not beat its
// parent.
func (q *eventQueue) siftDown(i int) {
	key, tm := q.key, q.tm
	n := len(key)
	top := i
	k, t := key[i], tm[i]
	// Sink the hole to a leaf along the minimum-child path without
	// comparing k at each level (bottom-up heapsort variant): k usually
	// came from the last position, so it almost always belongs near a
	// leaf, and the per-level k comparison would nearly never exit early.
	for {
		c := arity*i + 1
		if c >= n {
			break
		}
		end := c + arity
		if end > n {
			end = n
		}
		m, km := c, key[c]
		for j := c + 1; j < end; j++ {
			if kj := key[j]; kj.less(km) {
				m, km = j, kj
			}
		}
		key[i], tm[i] = km, tm[m]
		tm[i].slot = i
		i = m
	}
	// Bubble k back up from the leaf hole (usually zero or one step).
	for i > top {
		p := (i - 1) / arity
		if !k.less(key[p]) {
			break
		}
		key[i], tm[i] = key[p], tm[p]
		tm[i].slot = i
		i = p
	}
	key[i], tm[i] = k, t
	t.slot = i
}

// Simulator owns the virtual clock and the pending event set.
// It is not safe for concurrent use; scenarios are single-goroutine.
type Simulator struct {
	now     Time
	events  eventQueue
	seq     uint64
	fired   uint64
	seed    int64
	stopped bool

	// free recycles handle-less timers popped from the event heap. Only
	// timers created by Schedule/ScheduleAfter land here: nothing can hold
	// a reference to them, so reuse is invisible. Retained timers (At/
	// After/NewTimer) are never recycled — a caller's old handle must never
	// alias a new event (see the Timer doc comment).
	free []*Timer
}

// New returns a simulator whose component RNGs derive from seed.
func New(seed int64) *Simulator {
	return &Simulator{seed: seed}
}

// Now returns the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// Seed returns the root seed the simulator was created with.
func (s *Simulator) Seed() int64 { return s.seed }

// Pending returns the number of armed timers. Stopped timers are not among
// them, and a Line counts once however many values it holds.
func (s *Simulator) Pending() int { return s.events.len() }

// Fired returns the cumulative count of events executed — the event-loop
// throughput figure the observability layer exports per run.
func (s *Simulator) Fired() uint64 { return s.fired }

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: it always indicates a scenario bug, and silently reordering events
// would destroy determinism.
func (s *Simulator) At(t Time, fn func()) *Timer {
	timer := s.schedule(t, fn)
	timer.retained = true
	return timer
}

// After schedules fn to run d after the current virtual time.
func (s *Simulator) After(d time.Duration, fn func()) *Timer {
	if d < 0 {
		d = 0
	}
	return s.At(s.now+d, fn)
}

// NewTimer returns a retained timer for fn that is not armed: Reset arms it.
// It takes no sequence number until then. A component that re-arms one
// deadline for its whole life holds one of these, with fn bound once.
func (s *Simulator) NewTimer(fn func()) *Timer {
	return &Timer{fn: fn, s: s, slot: slotIdle, retained: true}
}

// Schedule is the handle-less twin of At for hot paths: the event cannot be
// stopped, which lets the simulator recycle its Timer after it fires instead
// of allocating one per event.
func (s *Simulator) Schedule(t Time, fn func()) {
	s.schedule(t, fn)
}

// ScheduleAfter is the handle-less twin of After.
func (s *Simulator) ScheduleAfter(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	s.schedule(s.now+d, fn)
}

func (s *Simulator) schedule(t Time, fn func()) *Timer {
	s.checkTime(t)
	s.seq++
	var timer *Timer
	if n := len(s.free); n > 0 {
		timer = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		*timer = Timer{at: t, seq: s.seq, fn: fn, s: s}
	} else {
		timer = &Timer{at: t, seq: s.seq, fn: fn, s: s}
	}
	s.events.push(timer)
	return timer
}

func (s *Simulator) checkTime(t Time) {
	if t < s.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", t, s.now))
	}
}

// recycle returns a popped, handle-less timer to the free list.
func (s *Simulator) recycle(t *Timer) {
	if t.retained {
		return
	}
	t.fn = nil // release the closure now, not at next reuse
	s.free = append(s.free, t)
}

// NextEventTime returns the timestamp of the earliest pending event and
// whether one exists. A shard coordinator uses it to compute the global
// lower bound on virtual time before granting the next safe window.
func (s *Simulator) NextEventTime() (Time, bool) {
	if s.events.len() == 0 {
		return 0, false
	}
	return s.events.key[0].at, true
}

// Step fires the next pending event, advancing the clock to it.
// It reports whether an event fired.
func (s *Simulator) Step() bool {
	if s.events.len() == 0 {
		return false
	}
	t := s.events.pop()
	s.now = t.at
	fn := t.fn
	s.recycle(t)
	s.fired++
	fn()
	return true
}

// Run fires events until none remain or Stop is called.
func (s *Simulator) Run() {
	s.stopped = false
	for !s.stopped && s.Step() {
	}
}

// RunUntil fires events with timestamps <= end, then advances the clock to
// end. Events scheduled after end stay pending.
func (s *Simulator) RunUntil(end Time) {
	s.stopped = false
	for !s.stopped {
		at, ok := s.NextEventTime()
		if !ok || at > end {
			break
		}
		s.Step()
	}
	if s.now < end {
		s.now = end
	}
}

// RunBefore fires events with timestamps strictly less than end, then
// advances the clock to end. It is the half-open twin of RunUntil, used by
// the shard coordinator: a window [start, end) is safe to execute in
// parallel, while events exactly at end may race with cross-shard arrivals
// carrying the same timestamp and must wait for the next window.
func (s *Simulator) RunBefore(end Time) {
	s.stopped = false
	for !s.stopped {
		at, ok := s.NextEventTime()
		if !ok || at >= end {
			break
		}
		s.Step()
	}
	if s.now < end {
		s.now = end
	}
}

// Stop makes the innermost Run or RunUntil return after the current event.
func (s *Simulator) Stop() { s.stopped = true }

// NewRand derives a deterministic RNG for the named component. Distinct
// labels give independent streams; the same (seed, label) pair always gives
// the same stream, so adding a component never perturbs the others.
func (s *Simulator) NewRand(label string) *rand.Rand {
	return LabeledRand(s.seed, label)
}

// LabeledRand is the root of the labeled-seed scheme: it derives a
// deterministic RNG from (seed, label) for code that needs reproducible
// randomness before (or without) a Simulator — trace generation, experiment
// setup. It is one of the two functions allowed to call rand.NewSource;
// the detrand rule (determinism_test.go at the module root) flags every
// other call site.
func LabeledRand(seed int64, label string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, label)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}
