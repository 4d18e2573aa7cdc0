package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Pool is a reusable worker pool for repeated barrier fan-outs. A sweep
// (Map) starts one for a single Do; the shard coordinator keeps one for a
// whole run and issues one Do per synchronisation window — about a
// thousand per campus run, each a fraction of a millisecond of compute.
//
// A window barrier must therefore neither create goroutines nor let a core
// go idle when work is coming. The caller of Do claims cells alongside
// workers-1 helper goroutines, so workers goroutines run a round. A
// goroutine with nothing to do — a helper between rounds, or the caller
// waiting for a straggler — spins on an atomic counter for up to spinFor
// before it parks on a channel. A parked goroutine costs a wake-up on a
// cold core at the next round; a spinning one costs only a core nothing
// else wanted, because the spin ends early as soon as a yield shows that
// other goroutines want the processor.
//
// Cells are claimed from an atomic counter in arbitrary order, and callers
// preserve determinism by writing results into per-index slots.
type Pool struct {
	workers int
	helpers []helper
	cur     atomic.Pointer[poolJob] // the latest round; helpers poll it
	done    chan struct{}           // wakes a caller parked on its stragglers
	busy    atomic.Bool             // a Do is running
	closed  atomic.Bool
	exited  sync.WaitGroup // helper goroutines, joined by Close
}

// helper is one helper goroutine's parking slot. Whoever moves parked from
// true to false owns the wake-up: the publisher of a round sends a token,
// and a helper that wins the race itself takes none.
type helper struct {
	parked atomic.Bool
	wake   chan struct{}
}

// poolJob is one barrier round. Every goroutine claims cells from next
// until n is exhausted; left counts the cells not yet finished, and the
// goroutine that brings it to zero wakes the caller if it parked. A round
// is never reused, so a helper that arrives after the round ended finds
// nothing to claim and touches nothing the next round owns.
type poolJob struct {
	n       int
	fn      func(int)
	stop    bool // published by Close: helpers return
	next    atomic.Int64
	left    atomic.Int64
	waiting atomic.Bool // the caller parked until left reaches zero
	pe      atomic.Pointer[PanicError]
}

const (
	// spinFor bounds how long an idle goroutine polls before it parks. It
	// must cover the imbalance between shards within a window and the
	// coordinator's work between windows (a campus window is about 0.3 ms
	// of compute on 2 shards); a 50 µs spin parked often enough to lose
	// what spinning gains.
	spinFor = 500 * time.Microsecond
	// yieldEvery is how many polls pass between runtime.Gosched calls.
	yieldEvery = 32
	// busyYield is how long a Gosched may take before it counts as having
	// run someone else: the processor is wanted, so the spinner parks.
	busyYield = 20 * time.Microsecond
)

// NewPool starts a pool. workers <= 0 means one per available CPU; a pool
// of one worker starts no goroutine and runs every Do inline. Close the
// pool when done to release the helper goroutines.
func NewPool(workers int) *Pool {
	workers = Workers(workers)
	p := &Pool{workers: workers}
	if workers <= 1 {
		return p
	}
	p.done = make(chan struct{}, 1)
	p.helpers = make([]helper, workers-1)
	p.exited.Add(len(p.helpers))
	for i := range p.helpers {
		h := &p.helpers[i]
		h.wake = make(chan struct{}, 1)
		go func() {
			defer p.exited.Done()
			var last *poolJob
			for {
				j := p.await(h, last)
				if j.stop {
					return
				}
				p.run(j)
				last = j
			}
		}()
	}
	return p
}

// Workers returns the resolved worker count.
func (p *Pool) Workers() int { return p.workers }

// Do runs fn(i) for every i in [0, n) across the pool's workers, the
// calling goroutine among them, and returns when all cells have finished —
// a barrier. Once a cell panics no further cell starts, and the panic
// re-panics here as a *PanicError after the cells in flight have finished.
// Do on a closed pool, and a Do that overlaps another on the same pool,
// panic.
func (p *Pool) Do(n int, fn func(i int)) {
	if p.closed.Load() {
		panic("parallel: Do on a closed Pool")
	}
	if !p.busy.CompareAndSwap(false, true) {
		panic("parallel: concurrent Do on one Pool")
	}
	defer p.busy.Store(false)
	if n <= 0 {
		return
	}
	if p.helpers == nil || n == 1 {
		for i := 0; i < n; i++ {
			if pe := runCell(i, fn); pe != nil {
				panic(pe)
			}
		}
		return
	}
	j := &poolJob{n: n, fn: fn}
	j.left.Store(int64(n))
	p.publish(j, n-1)
	p.run(j)
	if !spin(func() bool { return j.left.Load() == 0 }) {
		// Park. As with helper.parked, whoever moves waiting back to false
		// owns the wake-up: the last cell's finisher sends on done, unless
		// the caller saw the round end first and took the flag back.
		j.waiting.Store(true)
		if j.left.Load() != 0 || !j.waiting.CompareAndSwap(true, false) {
			<-p.done
		}
	}
	if pe := j.pe.Load(); pe != nil {
		panic(pe)
	}
}

// Close stops the pool's helper goroutines and returns once they have
// exited. A second Close is a no-op.
func (p *Pool) Close() {
	if p.closed.Swap(true) || p.helpers == nil {
		return
	}
	p.publish(&poolJob{stop: true}, len(p.helpers))
	p.exited.Wait()
}

// publish makes j the current round and wakes up to wake parked helpers.
func (p *Pool) publish(j *poolJob, wake int) {
	p.cur.Store(j)
	for i := range p.helpers {
		if wake == 0 {
			return
		}
		if h := &p.helpers[i]; h.parked.CompareAndSwap(true, false) {
			h.wake <- struct{}{}
			wake--
		}
	}
}

// await returns the first round newer than last, spinning and then parking
// until one is published.
func (p *Pool) await(h *helper, last *poolJob) *poolJob {
	for {
		if spin(func() bool { return p.cur.Load() != last }) {
			return p.cur.Load()
		}
		h.parked.Store(true)
		if p.cur.Load() != last {
			if !h.parked.CompareAndSwap(true, false) {
				<-h.wake // the publisher claimed this wake-up; take its token
			}
			return p.cur.Load()
		}
		<-h.wake
	}
}

// run claims and runs j's cells until none is left to claim. After a
// panic the cells still claimed are counted down without running, so left
// reaches zero all the same. The goroutine that finishes the round's last
// cell wakes the caller if it parked; that atomic check-out, not a lock,
// is what orders every cell's writes before Do returns.
func (p *Pool) run(j *poolJob) {
	for {
		i := int(j.next.Add(1)) - 1
		if i >= j.n {
			return
		}
		// Keep the first panic; later ones lose the race and are dropped
		// (they are almost always the same bug anyway).
		if j.pe.Load() == nil {
			if pe := runCell(i, j.fn); pe != nil {
				j.pe.CompareAndSwap(nil, pe)
			}
		}
		if j.left.Add(-1) == 0 && j.waiting.CompareAndSwap(true, false) {
			p.done <- struct{}{}
		}
	}
}

// spin polls ready until it reports true or the spin is spent: after
// spinFor, or as soon as a runtime.Gosched took longer than busyYield,
// which means other goroutines wanted the processor. It reports whether
// ready came true.
func spin(ready func() bool) bool {
	start := time.Now()
	for polls := 1; ; polls++ {
		if ready() {
			return true
		}
		if polls%yieldEvery == 0 {
			t := time.Now()
			runtime.Gosched()
			if now := time.Now(); now.Sub(t) > busyYield || now.Sub(start) > spinFor {
				return ready()
			}
		}
	}
}
