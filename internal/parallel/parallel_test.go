package parallel

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapRunsEveryCellOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8, 100} {
		const n = 257
		var counts [n]atomic.Int32
		Map(workers, n, func(i int) { counts[i].Add(1) })
		for i := range counts {
			if got := counts[i].Load(); got != 1 {
				t.Fatalf("workers=%d: cell %d ran %d times", workers, i, got)
			}
		}
	}
}

func TestMapZeroAndNegative(t *testing.T) {
	ran := false
	Map(4, 0, func(int) { ran = true })
	Map(4, -3, func(int) { ran = true })
	if ran {
		t.Error("no cells should run for n <= 0")
	}
}

func TestMapPanicAttribution(t *testing.T) {
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				v := recover()
				if v == nil {
					t.Fatalf("workers=%d: expected panic", workers)
				}
				pe, ok := v.(*PanicError)
				if !ok {
					t.Fatalf("workers=%d: panic value %T, want *PanicError", workers, v)
				}
				if pe.Cell != 7 {
					t.Errorf("workers=%d: attributed to cell %d, want 7", workers, pe.Cell)
				}
				if !strings.Contains(pe.Error(), "boom") {
					t.Errorf("workers=%d: error %q should mention the panic value", workers, pe.Error())
				}
			}()
			Map(workers, 16, func(i int) {
				if i == 7 {
					panic("boom")
				}
			})
		}()
	}
}

func TestMapPanicStopsNewCells(t *testing.T) {
	var started atomic.Int32
	func() {
		defer func() { recover() }()
		Map(2, 1000, func(i int) {
			started.Add(1)
			if i == 0 {
				panic("early")
			}
			time.Sleep(time.Millisecond)
		})
	}()
	if n := started.Load(); n >= 1000 {
		t.Errorf("all %d cells ran despite an early panic", n)
	}
}

// TestNestedMap runs Maps inside the cells of a Map, the shape of a suite
// whose experiments fan out their own cells: pools inside a pool's cells,
// each with spinning helpers. Every inner slot is written exactly once,
// and every helper has exited when the outer Map returns.
func TestNestedMap(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		base := runtime.NumGoroutine()
		const outer, inner = 6, 37
		var counts [outer][inner]atomic.Int32
		for round := 0; round < 3; round++ {
			Map(workers, outer, func(o int) {
				Map(workers, inner, func(i int) { counts[o][i].Add(1) })
			})
		}
		for o := range counts {
			for i := range counts[o] {
				if got := counts[o][i].Load(); got != 3 {
					t.Fatalf("workers=%d: slot [%d][%d] written %d times over 3 rounds, want 3", workers, o, i, got)
				}
			}
		}
		waitGoroutines(t, base, fmt.Sprintf("workers=%d: after the nested Maps", workers))
	}
}

func TestPanicErrorUnwrap(t *testing.T) {
	sentinel := errors.New("sentinel")
	func() {
		defer func() {
			pe := recover().(*PanicError)
			if !errors.Is(pe, sentinel) {
				t.Error("wrapped error panic should unwrap")
			}
		}()
		Map(2, 4, func(i int) {
			if i == 2 {
				panic(sentinel)
			}
		})
	}()
}

func TestWorkers(t *testing.T) {
	if Workers(0) < 1 {
		t.Error("Workers(0) must be at least 1")
	}
	if Workers(-5) < 1 {
		t.Error("Workers(-5) must be at least 1")
	}
	if Workers(3) != 3 {
		t.Error("positive requests pass through")
	}
}

// TestPoolBarriers drives a pool through many rounds and checks every cell
// of every round runs exactly once with a full barrier between rounds.
func TestPoolBarriers(t *testing.T) {
	for _, workers := range []int{1, 4} {
		p := NewPool(workers)
		results := make([]int, 64)
		for round := 1; round <= 50; round++ {
			p.Do(len(results), func(i int) { results[i]++ })
			for i, r := range results {
				if r != round {
					t.Fatalf("workers=%d round %d: cell %d ran %d times", workers, round, i, r)
				}
			}
		}
		p.Close()
	}
}

// TestPoolPanic checks a panicking cell surfaces as *PanicError with its
// index, that no further cell starts once one has panicked, and that the
// pool survives for later rounds.
func TestPoolPanic(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	func() {
		defer func() {
			pe, ok := recover().(*PanicError)
			if !ok {
				t.Fatalf("recover() = %T, want *PanicError", pe)
			}
			if pe.Cell != 3 {
				t.Fatalf("panicked cell = %d, want 3", pe.Cell)
			}
		}()
		p.Do(8, func(i int) {
			if i == 3 {
				panic("boom")
			}
		})
	}()
	const n = 1000
	var started atomic.Int32
	func() {
		defer func() {
			if pe, ok := recover().(*PanicError); !ok || pe.Cell != 0 {
				t.Fatalf("recover() = %v, want a *PanicError for cell 0", pe)
			}
		}()
		p.Do(n, func(i int) {
			started.Add(1)
			if i == 0 {
				panic("early")
			}
			time.Sleep(time.Millisecond)
		})
	}()
	if s := started.Load(); s >= n {
		t.Errorf("all %d cells started despite a panic in cell 0", s)
	}
	ran := make([]int, 4)
	p.Do(4, func(i int) { ran[i] = 1 })
	for i, r := range ran {
		if r != 1 {
			t.Fatalf("post-panic round: cell %d did not run", i)
		}
	}
}

// TestPoolParkedRounds separates rounds by more than the spin bound, so
// every helper parks between them and each round starts with wake-ups,
// with rounds smaller and larger than the pool.
func TestPoolParkedRounds(t *testing.T) {
	for _, workers := range []int{2, 4} {
		p := NewPool(workers)
		for _, n := range []int{1, workers - 1, workers, workers + 1, 3 * workers} {
			results := make([]int, n)
			for round := 1; round <= 5; round++ {
				time.Sleep(2 * spinFor)
				p.Do(n, func(i int) { results[i]++ })
				for i, r := range results {
					if r != round {
						t.Fatalf("workers=%d n=%d round %d: cell %d ran %d times", workers, n, round, i, r)
					}
				}
			}
		}
		p.Close()
	}
}

// rendezvous blocks a cell until all workers have started one, so that
// every worker holds exactly one cell of the round, or fails after a
// deadline.
func rendezvous(arrived *atomic.Int32, workers int) bool {
	arrived.Add(1)
	deadline := time.Now().Add(5 * time.Second)
	for arrived.Load() < int32(workers) {
		if time.Now().After(deadline) {
			return false
		}
		runtime.Gosched()
	}
	return true
}

// TestPoolWakesParkedHelpers checks that a round wakes every parked
// helper: its cells only finish once all workers run one at the same time.
func TestPoolWakesParkedHelpers(t *testing.T) {
	for _, workers := range []int{2, 4} {
		p := NewPool(workers)
		for round := 0; round < 3; round++ {
			time.Sleep(2 * spinFor)
			var arrived atomic.Int32
			var stuck atomic.Bool
			p.Do(workers, func(int) {
				if !rendezvous(&arrived, workers) {
					stuck.Store(true)
				}
			})
			if stuck.Load() {
				t.Fatalf("workers=%d round %d: a cell waited 5 s for the other workers to join", workers, round)
			}
		}
		p.Close()
	}
}

// TestPoolCallerWaitsForStragglers gives the caller of Do the round's
// only fast cell, so it runs out of work, spins past the bound and parks:
// Do must still return only after every helper's cell has finished.
func TestPoolCallerWaitsForStragglers(t *testing.T) {
	for _, workers := range []int{2, 4} {
		p := NewPool(workers)
		results := make([]int, workers)
		for round := 1; round <= 3; round++ {
			var arrived atomic.Int32
			p.Do(workers, func(i int) {
				rendezvous(&arrived, workers)
				buf := make([]byte, 8<<10)
				if !bytes.Contains(buf[:runtime.Stack(buf, false)], []byte("(*Pool).Do(")) {
					time.Sleep(2 * spinFor) // a helper's cell
				}
				results[i]++
			})
			for i, r := range results {
				if r != round {
					t.Fatalf("workers=%d round %d: cell %d ran %d times when Do returned", workers, round, i, r)
				}
			}
		}
		p.Close()
	}
}

// TestPoolPanicWhileParked raises a panic in a round that wakes parked
// helpers: it must surface as a *PanicError naming the cell, and the pool
// must serve the next round.
func TestPoolPanicWhileParked(t *testing.T) {
	for _, workers := range []int{2, 4} {
		p := NewPool(workers)
		p.Do(workers, func(int) {})
		time.Sleep(2 * spinFor)
		func() {
			defer func() {
				pe, ok := recover().(*PanicError)
				if !ok {
					t.Fatalf("workers=%d: recover() = %T, want *PanicError", workers, pe)
				}
				if pe.Cell != workers-1 {
					t.Fatalf("workers=%d: panicked cell = %d, want %d", workers, pe.Cell, workers-1)
				}
			}()
			p.Do(2*workers, func(i int) {
				if i == workers-1 {
					panic("boom")
				}
			})
		}()
		time.Sleep(2 * spinFor)
		ran := make([]int, 2*workers)
		p.Do(len(ran), func(i int) { ran[i] = 1 })
		for i, r := range ran {
			if r != 1 {
				t.Fatalf("workers=%d post-panic round: cell %d did not run", workers, i)
			}
		}
		p.Close()
	}
}

// TestPoolCloseReturnsWorkers checks Close leaves no helper goroutine
// behind, whether the helpers were spinning or parked.
func TestPoolCloseReturnsWorkers(t *testing.T) {
	for _, workers := range []int{2, 4} {
		for _, park := range []bool{false, true} {
			base := runtime.NumGoroutine()
			p := NewPool(workers)
			p.Do(workers, func(int) {})
			if park {
				time.Sleep(2 * spinFor)
			}
			p.Close()
			waitGoroutines(t, base, fmt.Sprintf("workers=%d park=%v: after Close", workers, park))
		}
	}
}

// waitGoroutines fails unless the goroutine count falls back to base
// within a deadline: an exiting goroutine may still count for a moment
// after the WaitGroup that Close waits on is done.
func waitGoroutines(t *testing.T, base int, when string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, %d before", when, runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// mustPanic runs fn and fails unless it panics with want.
func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		if v := recover(); v != want {
			t.Fatalf("recover() = %v, want %q", v, want)
		}
	}()
	fn()
}

// TestPoolMisuseFailsByName checks that Do after Close and a Do that
// overlaps another on the same pool panic by name instead of hanging.
func TestPoolMisuseFailsByName(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		p := NewPool(workers)
		p.Do(workers, func(int) {})
		p.Close()
		p.Close()
		mustPanic(t, "parallel: Do on a closed Pool", func() { p.Do(workers, func(int) {}) })

		p = NewPool(workers)
		started, release, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			p.Do(workers, func(i int) {
				if i == 0 {
					close(started)
					<-release
				}
			})
		}()
		<-started
		mustPanic(t, "parallel: concurrent Do on one Pool", func() { p.Do(workers, func(int) {}) })
		close(release)
		<-done
		p.Do(workers, func(int) {})
		p.Close()
	}
}
