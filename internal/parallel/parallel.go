// Package parallel is the deterministic cell runner behind the experiment
// sweeps: it fans fully independent units of work ("cells" — one simulator
// run each) across a bounded worker pool while guaranteeing that results are
// observed in work-list order. Because every cell derives its randomness
// from its own (seed, label) pair and shares nothing mutable with its
// siblings, executing cells concurrently is invisible in the output: a sweep
// run with 8 workers is byte-identical to the same sweep run with 1.
//
// There is one fan-out, Pool: Map is a Pool started and closed around one
// Do, and the shard coordinator keeps one Pool for a whole run. It has no
// throttling, batching or result channels: cells claim indices from an
// atomic counter and write results into a slot-per-index slice.
package parallel

import (
	"fmt"
	"runtime"
	"time"
)

// PanicError carries a panic out of a worker with the index of the cell that
// raised it, so a failing sweep names the exact (trace, solution, seed) cell
// instead of dying in an anonymous goroutine.
type PanicError struct {
	Cell  int    // index of the cell that panicked
	Value any    // the recovered panic value
	Stack []byte // stack captured at the panic site
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("parallel: cell %d panicked: %v\n%s", e.Cell, e.Value, e.Stack)
}

// Unwrap exposes a wrapped error panic value for errors.Is/As chains.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// Workers resolves a requested worker count: values <= 0 mean "one worker
// per available CPU" (GOMAXPROCS), anything else passes through.
func Workers(requested int) int {
	if requested <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return requested
}

// Map runs fn(i) for every i in [0, n) across at most workers goroutines,
// the calling one among them: it is one Pool.Do on a pool of
// min(workers, n) workers, started and closed around the call. workers <= 1
// runs every cell inline on the calling goroutine — the legacy sequential
// path, with zero goroutines and zero synchronisation.
//
// Cells are claimed from an atomic counter, so execution order is arbitrary;
// callers preserve determinism by writing results into slot i of a
// pre-sized slice. If a cell panics, the panic is captured with its cell
// index, remaining unstarted cells are cancelled, and Map re-panics with a
// *PanicError once every in-flight cell has finished.
func Map(workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	p := NewPool(min(Workers(workers), n))
	defer p.Close()
	p.Do(n, fn)
}

// runCell invokes fn(i), converting a panic into an attributed *PanicError.
func runCell(i int, fn func(int)) (pe *PanicError) {
	defer func() {
		if v := recover(); v != nil {
			buf := make([]byte, 16<<10)
			buf = buf[:runtime.Stack(buf, false)]
			pe = &PanicError{Cell: i, Value: v, Stack: buf}
		}
	}()
	fn(i)
	return nil
}

// MapTimed is Map, additionally returning each cell's wall-clock duration
// (slot i holds cell i's elapsed time). The timings are measurement, not
// output: they vary run to run and between worker counts, so callers must
// keep them out of anything covered by the byte-identical determinism
// guarantee.
func MapTimed(workers, n int, fn func(i int)) []time.Duration {
	elapsed := make([]time.Duration, n)
	Map(workers, n, func(i int) {
		start := time.Now()
		fn(i)
		elapsed[i] = time.Since(start)
	})
	return elapsed
}

// Sweep runs fn over every item across at most workers goroutines and
// returns the results in item order — the deterministic fan-out primitive
// the experiment tables are built on. fn receives the item and its index;
// results[i] always corresponds to items[i] regardless of execution order.
func Sweep[T, R any](workers int, items []T, fn func(item T, i int) R) []R {
	results := make([]R, len(items))
	Map(workers, len(items), func(i int) {
		results[i] = fn(items[i], i)
	})
	return results
}
