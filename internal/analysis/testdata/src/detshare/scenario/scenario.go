// Package scenario is the detshare fixture: package-level mutable state,
// goroutine spawns, and captured-variable writes across goroutine
// boundaries in a deterministic package. The per-slot worker idiom and
// writes in init context stay legal.
package scenario

import (
	"sync/atomic"

	"github.com/zhuge-project/zhuge/internal/parallel"
)

var (
	hits     int
	totals   = map[string]int{}
	seq      atomic.Int64
	defaults = map[string]float64{}
)

// Init context is syntactic: func init, a literal nested in it, and a
// literal in a package-level initializer may all write globals.
func init() {
	defaults["loss"] = 0.01
	func() { defaults["jitter"] = 2 }()
	registerDefault("delay", 40)
}

var warmed = func() bool {
	hits = 0
	return true
}()

// registerDefault is called only from init, but the analyzer stops at the
// function boundary: the write belongs inline in init.
func registerDefault(k string, v float64) {
	defaults[k] = v // want `write to package-level defaults outside init`
}

func recordHit() {
	hits++ // want `write to package-level hits outside init`
}

func recordTotal(k string) {
	totals[k]++ // want `write to package-level totals outside init`
}

func forgetTotal(k string) {
	delete(totals, k) // want `write to package-level totals outside init`
}

func nextSeq() int64 {
	return seq.Add(1) // want `atomic mutation of package-level seq`
}

func resetSeq() {
	atomic.StoreInt64(&legacySeq, 0) // want `atomic mutation of package-level legacySeq`
}

var legacySeq int64

// spawnWorker: wall-clock concurrency inside the virtual-time datapath.
func spawnWorker(ch chan int) {
	go func() { ch <- 1 }() // want `go statement in a deterministic package`
}

// sumShared races every worker on one captured accumulator.
func sumShared(vals []int) int {
	sum := 0
	parallel.Map(2, len(vals), func(i int) {
		sum += vals[i] // want `closure handed to parallel\.Map runs on another goroutine but writes captured sum`
	})
	return sum
}

// fanOut is the fixture's own little worker pool. Rule 3 flags its go
// statement; rule 4 only knows package parallel, so the captured write in
// sumViaHelper is silent.
func fanOut(n int, fn func(i int)) {
	done := make(chan struct{})
	for i := 0; i < n; i++ {
		go func(i int) { // want `go statement in a deterministic package`
			fn(i)
			done <- struct{}{}
		}(i)
	}
	for i := 0; i < n; i++ {
		<-done
	}
}

func sumViaHelper(vals []int) int {
	sum := 0
	fanOut(len(vals), func(i int) {
		sum += vals[i]
	})
	return sum
}

// runIndexed is the legal idiom: each invocation owns its output slot.
func runIndexed(vals []int) []int {
	out := make([]int, len(vals))
	parallel.Map(2, len(vals), func(i int) {
		out[i] = vals[i] * 2
	})
	return out
}

func suppressedCounter() {
	//lint:ignore detshare fixture exercises suppressing the shared-state report
	hits++
}
