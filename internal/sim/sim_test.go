package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestEventsFireInTimeOrder(t *testing.T) {
	s := New(1)
	var got []time.Duration
	for _, d := range []time.Duration{30 * time.Millisecond, 10 * time.Millisecond, 20 * time.Millisecond} {
		d := d
		s.After(d, func() { got = append(got, s.Now()) })
	}
	s.Run()
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d fired at %v, want %v", i, got[i], want[i])
		}
	}
}

func TestTiesFireInScheduleOrder(t *testing.T) {
	s := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(time.Second, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie order %v, want ascending schedule order", order)
		}
	}
}

func TestStopTimer(t *testing.T) {
	s := New(1)
	fired := false
	timer := s.After(time.Second, func() { fired = true })
	if !timer.Stop() {
		t.Error("first Stop should report true")
	}
	if timer.Stop() {
		t.Error("second Stop should report false")
	}
	if timer.Pending() {
		t.Error("Pending() should be false after Stop")
	}
	if s.Pending() != 0 {
		t.Errorf("simulator Pending() = %d after Stop, want 0: a stopped timer leaves the queue", s.Pending())
	}
	s.Run()
	if fired {
		t.Error("stopped timer fired")
	}
}

func TestRunUntilAdvancesClock(t *testing.T) {
	s := New(1)
	fired := 0
	s.After(100*time.Millisecond, func() { fired++ })
	s.After(300*time.Millisecond, func() { fired++ })
	s.RunUntil(200 * time.Millisecond)
	if fired != 1 {
		t.Errorf("fired %d events before 200ms, want 1", fired)
	}
	if s.Now() != 200*time.Millisecond {
		t.Errorf("clock %v after RunUntil, want 200ms", s.Now())
	}
	s.Run()
	if fired != 2 {
		t.Errorf("fired %d events total, want 2", fired)
	}
}

// A stopped timer that is next in line, at the top of the heap or in the
// same-instant batch, must not let RunUntil or RunBefore fire the live event
// behind it when that event lies past the end.
func TestRunUntilSkipsStoppedTimers(t *testing.T) {
	testRunSkipsStoppedTimers(t, (*Simulator).RunUntil)
}

func TestRunBeforeSkipsStoppedTimers(t *testing.T) {
	testRunSkipsStoppedTimers(t, (*Simulator).RunBefore)
}

func testRunSkipsStoppedTimers(t *testing.T, run func(*Simulator, Time)) {
	const end = 1500 * time.Microsecond
	for _, batched := range []bool{false, true} {
		s := New(1)
		if batched {
			var victim *Timer
			s.At(time.Millisecond, func() { victim.Stop() })
			victim = s.At(time.Millisecond, func() { t.Error("stopped timer fired") })
		} else {
			s.At(time.Millisecond, func() { t.Error("stopped timer fired") }).Stop()
		}
		late := false
		s.Schedule(2*time.Millisecond, func() { late = true })
		run(s, end)
		if late || s.Now() != end {
			t.Errorf("batched=%v: 2ms event fired = %v, Now() = %v; want false, %v", batched, late, s.Now(), end)
		}
		s.Run()
		if !late {
			t.Errorf("batched=%v: 2ms event never fired", batched)
		}
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	s := New(1)
	var chain []time.Duration
	var step func()
	step = func() {
		chain = append(chain, s.Now())
		if len(chain) < 5 {
			s.After(10*time.Millisecond, step)
		}
	}
	s.After(10*time.Millisecond, step)
	s.Run()
	if len(chain) != 5 {
		t.Fatalf("chain length %d, want 5", len(chain))
	}
	if chain[4] != 50*time.Millisecond {
		t.Errorf("last event at %v, want 50ms", chain[4])
	}
}

func TestSchedulePastPanics(t *testing.T) {
	s := New(1)
	s.After(time.Second, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past should panic")
			}
		}()
		s.At(0, func() {})
	})
	s.Run()
}

func TestStopSimulator(t *testing.T) {
	s := New(1)
	count := 0
	for i := 1; i <= 10; i++ {
		s.After(time.Duration(i)*time.Millisecond, func() {
			count++
			if count == 3 {
				s.Stop()
			}
		})
	}
	s.Run()
	if count != 3 {
		t.Errorf("ran %d events after Stop, want 3", count)
	}
	s.Run()
	if count != 10 {
		t.Errorf("resumed run fired %d total, want 10", count)
	}
}

func TestNegativeAfterClampsToNow(t *testing.T) {
	s := New(1)
	fired := false
	s.After(-time.Second, func() { fired = true })
	s.Run()
	if !fired {
		t.Error("negative After should fire immediately")
	}
	if s.Now() != 0 {
		t.Errorf("clock moved to %v, want 0", s.Now())
	}
}

func TestNewRandDeterministicPerLabel(t *testing.T) {
	a := New(42).NewRand("link")
	b := New(42).NewRand("link")
	c := New(42).NewRand("other")
	same, diff := true, false
	for i := 0; i < 100; i++ {
		va, vb, vc := a.Int63(), b.Int63(), c.Int63()
		if va != vb {
			same = false
		}
		if va != vc {
			diff = true
		}
	}
	if !same {
		t.Error("same (seed,label) should give identical streams")
	}
	if !diff {
		t.Error("different labels should give different streams")
	}
}

func TestPropertyMonotonicClock(t *testing.T) {
	f := func(delays []uint16) bool {
		s := New(7)
		last := Time(-1)
		ok := true
		for _, d := range delays {
			s.After(time.Duration(d)*time.Microsecond, func() {
				if s.Now() < last {
					ok = false
				}
				last = s.Now()
			})
		}
		s.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPropertyAllEventsFire(t *testing.T) {
	f := func(delays []uint16) bool {
		s := New(9)
		fired := 0
		for _, d := range delays {
			s.After(time.Duration(d)*time.Microsecond, func() { fired++ })
		}
		s.Run()
		return fired == len(delays) && s.Pending() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestScheduleFiresLikeAt(t *testing.T) {
	s := New(1)
	var got []time.Duration
	s.Schedule(30*time.Millisecond, func() { got = append(got, s.Now()) })
	s.ScheduleAfter(10*time.Millisecond, func() { got = append(got, s.Now()) })
	s.ScheduleAfter(-time.Second, func() { got = append(got, s.Now()) }) // clamps to now
	s.Run()
	want := []time.Duration{0, 10 * time.Millisecond, 30 * time.Millisecond}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d fired at %v, want %v", i, got[i], want[i])
		}
	}
}

func TestScheduleTiesInterleaveWithAt(t *testing.T) {
	s := New(1)
	var order []int
	s.At(time.Second, func() { order = append(order, 0) })
	s.Schedule(time.Second, func() { order = append(order, 1) })
	s.At(time.Second, func() { order = append(order, 2) })
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie order %v, want schedule order regardless of API", order)
		}
	}
}

// TestScheduleRecyclesTimers pins the free-list behaviour: a long run of
// handle-less events reuses one Timer instead of allocating per event.
func TestScheduleRecyclesTimers(t *testing.T) {
	s := New(1)
	var at Time
	allocs := testing.AllocsPerRun(1000, func() {
		at += time.Microsecond
		s.Schedule(at, func() {})
		s.Step()
	})
	if allocs > 0.1 {
		t.Errorf("Schedule+Step allocates %.2f objects per event, want 0", allocs)
	}
}

// TestRetainedTimersAreNotRecycled: a stopped At handle must stay valid (and
// stopped) even after many Schedule events could have reused its slot.
func TestRetainedTimersAreNotRecycled(t *testing.T) {
	s := New(1)
	fired := false
	h := s.At(50*time.Millisecond, func() { fired = true })
	h.Stop()
	var at Time
	for i := 0; i < 100; i++ {
		at += time.Millisecond
		s.Schedule(at, func() {})
	}
	s.Run()
	if fired {
		t.Error("stopped retained timer fired")
	}
	if h.Pending() {
		t.Error("handle lost its stopped state")
	}
	if h.At() != 50*time.Millisecond {
		t.Errorf("handle At() = %v, corrupted by recycling", h.At())
	}
}

func TestScheduleInPastPanics(t *testing.T) {
	s := New(1)
	s.Schedule(time.Second, func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Error("scheduling in the past should panic")
		}
	}()
	s.Schedule(500*time.Millisecond, func() {})
}

// TestStopWhileBatched pins the dispatch-time stop check: with several
// events queued at one instant, an earlier event in the batch stopping a
// later one must prevent it from firing, even though batch dispatch popped
// both from the heap before either ran.
func TestStopWhileBatched(t *testing.T) {
	s := New(1)
	var order []int
	var victim *Timer
	s.At(time.Second, func() {
		order = append(order, 0)
		if !victim.Stop() {
			t.Error("stopping a batched, not-yet-dispatched timer should succeed")
		}
		if got := s.Pending(); got != 2 {
			t.Errorf("Pending() = %d after stopping a batched timer, want 2: the stopped one is not pending", got)
		}
	})
	s.At(time.Second, func() { order = append(order, 1) })
	victim = s.At(time.Second, func() { order = append(order, 2) })
	s.At(time.Second, func() { order = append(order, 3) })
	s.Run()
	want := []int{0, 1, 3}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
	if s.Pending() != 0 {
		t.Errorf("Pending() = %d after Run, want 0", s.Pending())
	}
}

// TestStopAfterFire: a fired timer's handle stays inert — Stop reports
// false, and rescheduling the same callback through a fresh timer is
// unaffected by the old handle.
func TestStopAfterFire(t *testing.T) {
	s := New(1)
	fired := 0
	h := s.After(time.Millisecond, func() { fired++ })
	s.Run()
	if fired != 1 {
		t.Fatalf("fired %d times, want 1", fired)
	}
	if h.Stop() {
		t.Error("Stop after fire should report false")
	}
	h2 := s.After(time.Millisecond, func() { fired++ })
	if h2 == h {
		t.Fatal("retained timer was recycled into a new handle")
	}
	s.Run()
	if fired != 2 {
		t.Errorf("fired %d times after reschedule, want 2", fired)
	}
	if h.Stop() {
		t.Error("old handle must stay inert after an unrelated reschedule")
	}
}

// TestStopSimulatorMidBatch: stopping the simulator from inside a
// same-instant batch leaves the rest of the batch pending (visible via
// Pending) and firable by a later Run.
func TestStopSimulatorMidBatch(t *testing.T) {
	s := New(1)
	var order []int
	for i := 0; i < 6; i++ {
		i := i
		s.At(time.Second, func() {
			order = append(order, i)
			if i == 2 {
				s.Stop()
			}
		})
	}
	s.Run()
	if len(order) != 3 {
		t.Fatalf("fired %v before Stop, want first 3", order)
	}
	if got := s.Pending(); got != 3 {
		t.Fatalf("Pending() = %d after mid-batch Stop, want 3", got)
	}
	s.Run()
	if len(order) != 6 {
		t.Fatalf("fired %v after resume, want all 6", order)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order %v, want ascending schedule order", order)
		}
	}
}

// TestPropertyHeapMatchesReferenceModel drives the event queue with random
// schedule/stop/reset interleavings, made between RunUntil windows and from
// inside firing events (where same-instant timers sit in the batch), and
// checks every firing against a reference model: the live events with their
// (time, seq) keys, where At and Reset each take the next seq. An event must
// fire at its time, be the least live key, and not lie past the window.
func TestPropertyHeapMatchesReferenceModel(t *testing.T) {
	rng := LabeledRand(42, "heap-property")
	// Cases the random walk must reach, counted across all trials.
	var resetLater, resetEarlier, resetFired, resetBatched, stopBatched int
	for trial := 0; trial < 200; trial++ {
		s := New(1)
		type ref struct {
			at   Time
			seq  uint64
			tm   *Timer
			live bool
		}
		var refs []*ref
		var seq uint64 // the model's copy of the simulator's sequence
		var bound Time // end of the current RunUntil window
		liveCount := func() int {
			n := 0
			for _, r := range refs {
				if r.live {
					n++
				}
			}
			return n
		}
		var ops func(n int)
		fire := func(r *ref) func() {
			return func() {
				if !r.live || s.Now() != r.at || r.at > bound {
					t.Fatalf("trial %d: event keyed (%v, %d) fired at %v in a window ending %v, live %v",
						trial, r.at, r.seq, s.Now(), bound, r.live)
				}
				for _, o := range refs {
					if o.live && o != r && (o.at < r.at || o.at == r.at && o.seq < r.seq) {
						t.Fatalf("trial %d: (%v, %d) fired before live (%v, %d)", trial, r.at, r.seq, o.at, o.seq)
					}
				}
				r.live = false
				ops(rng.Intn(3))
			}
		}
		ops = func(n int) {
			for ; n > 0; n-- {
				// Coarse times force plenty of ties, hence batches.
				at := s.Now() + Time(rng.Intn(4))*time.Millisecond
				switch op := rng.Intn(4); {
				case op == 0 || len(refs) == 0:
					seq++
					r := &ref{at: at, seq: seq, live: true}
					r.tm = s.At(at, fire(r))
					refs = append(refs, r)
				case op == 1:
					r := refs[rng.Intn(len(refs))]
					if r.tm.slot == slotBatched {
						stopBatched++
					}
					if got := r.tm.Stop(); got != r.live {
						t.Fatalf("trial %d: Stop() = %v, want %v", trial, got, r.live)
					}
					r.live = false
				case op == 2:
					r := refs[rng.Intn(len(refs))]
					switch {
					case r.tm.slot == slotBatched:
						resetBatched++
					case !r.live:
						resetFired++ // or stopped
					case at > r.at:
						resetLater++
					case at < r.at:
						resetEarlier++
					}
					seq++
					r.tm.Reset(at)
					r.at, r.seq, r.live = at, seq, true
				default:
					r := refs[rng.Intn(len(refs))]
					if r.tm.Pending() != r.live || r.tm.At() != r.at {
						t.Fatalf("trial %d: timer Pending() = %v at %v, want %v at %v",
							trial, r.tm.Pending(), r.tm.At(), r.live, r.at)
					}
					if got, want := s.Pending(), liveCount(); got != want {
						t.Fatalf("trial %d: Pending() = %d, want %d live events", trial, got, want)
					}
				}
			}
		}
		ops(1 + rng.Intn(20))
		for step := 1; step <= 16; step++ {
			bound = Time(step) * time.Millisecond
			s.RunUntil(bound)
			if s.Now() != bound {
				t.Fatalf("trial %d: Now() = %v after RunUntil(%v)", trial, s.Now(), bound)
			}
			for _, r := range refs {
				if r.live && r.at <= bound {
					t.Fatalf("trial %d: event at %v still live after RunUntil(%v)", trial, r.at, bound)
				}
			}
			if got, want := s.Pending(), liveCount(); got != want {
				t.Fatalf("trial %d: Pending() = %d after RunUntil(%v), want %d", trial, got, bound, want)
			}
			ops(rng.Intn(4))
		}
		bound = Time(1 << 62)
		s.Run()
		if n := liveCount(); n != 0 || s.Pending() != 0 {
			t.Fatalf("trial %d: %d events never fired, Pending() = %d", trial, n, s.Pending())
		}
	}
	t.Logf("resets: %d later, %d earlier, %d of fired or stopped, %d batched; %d batched stops",
		resetLater, resetEarlier, resetFired, resetBatched, stopBatched)
	if resetLater == 0 || resetEarlier == 0 || resetFired == 0 || resetBatched == 0 || stopBatched == 0 {
		t.Error("the random walk missed a Reset or Stop case")
	}
}

// TestSameTickMultiComponentOrder models several components scheduling into
// one instant — the batch-dispatch fast path — and checks the global firing
// order is exactly global scheduling order, with mid-batch schedules at the
// same instant firing after the whole pre-existing batch.
func TestSameTickMultiComponentOrder(t *testing.T) {
	s := New(1)
	const tick = 10 * time.Millisecond
	var order []string
	emit := func(tag string) func() {
		return func() { order = append(order, tag) }
	}
	// Three "components" interleave schedules into the same tick through
	// different APIs; a fourth adds same-instant work from inside the batch.
	s.Schedule(tick, emit("a0"))
	s.At(tick, emit("b0"))
	s.Schedule(tick, func() {
		order = append(order, "c0")
		s.Schedule(tick, emit("c1")) // same instant, scheduled mid-batch
	})
	s.After(tick, emit("a1"))
	s.ScheduleAfter(tick, emit("b1"))
	s.Run()
	want := []string{"a0", "b0", "c0", "a1", "b1", "c1"}
	if len(order) != len(want) {
		t.Fatalf("order %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

// TestNextEventTime checks the peek used by the shard coordinator: it must
// see through both the heap and an in-progress same-tick batch.
func TestNextEventTime(t *testing.T) {
	s := New(1)
	if _, ok := s.NextEventTime(); ok {
		t.Fatal("empty simulator reported a pending event")
	}
	s.Schedule(5*time.Millisecond, func() {})
	s.Schedule(2*time.Millisecond, func() {})
	if at, ok := s.NextEventTime(); !ok || at != 2*time.Millisecond {
		t.Fatalf("NextEventTime = %v, %v; want 2ms, true", at, ok)
	}
	// Force a batch: two events at the same instant, peek from inside the
	// first must report the batched second.
	s.Schedule(2*time.Millisecond, func() {})
	s.Step()
	if at, ok := s.NextEventTime(); !ok || at != 2*time.Millisecond {
		t.Fatalf("mid-batch NextEventTime = %v, %v; want 2ms, true", at, ok)
	}
	s.Run()
	if _, ok := s.NextEventTime(); ok {
		t.Fatal("drained simulator reported a pending event")
	}
}

// TestRunBefore checks the half-open window semantics: events strictly
// before the bound fire, events at the bound stay pending, and the clock
// lands exactly on the bound either way.
func TestRunBefore(t *testing.T) {
	s := New(1)
	var fired []string
	s.Schedule(1*time.Millisecond, func() { fired = append(fired, "a") })
	s.Schedule(2*time.Millisecond, func() { fired = append(fired, "b") })
	s.Schedule(2*time.Millisecond, func() { fired = append(fired, "c") })
	s.RunBefore(2 * time.Millisecond)
	if len(fired) != 1 || fired[0] != "a" {
		t.Fatalf("fired %v, want [a]: boundary events must not run", fired)
	}
	if s.Now() != 2*time.Millisecond {
		t.Fatalf("now = %v, want 2ms", s.Now())
	}
	if s.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", s.Pending())
	}
	// The next window picks the boundary events up.
	s.RunBefore(3 * time.Millisecond)
	if len(fired) != 3 || fired[1] != "b" || fired[2] != "c" {
		t.Fatalf("fired %v, want [a b c]", fired)
	}
	// An empty window still advances the clock.
	s.RunBefore(10 * time.Millisecond)
	if s.Now() != 10*time.Millisecond {
		t.Fatalf("now = %v, want 10ms", s.Now())
	}
}
