package shard

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/zhuge-project/zhuge/internal/netem"
	"github.com/zhuge-project/zhuge/internal/sim"
)

// testRing returns a ring with a window counter of its own, standing in
// for a cluster: window(true) before pushing, window(false) before draining.
func testRing() (r *ring, window func(bool)) {
	active := new(atomic.Int32)
	return &ring{active: active}, func(on bool) {
		if on {
			active.Store(1)
		} else {
			active.Store(0)
		}
	}
}

func TestRingFIFOAndGrowth(t *testing.T) {
	r, window := testRing()
	const n = 4*ringCap + 100 // force several geometric growth steps
	window(true)
	for i := 0; i < n; i++ {
		r.push(Parcel{At: sim.Time(i)})
	}
	window(false)
	if len(r.buf) < n || len(r.buf)&(len(r.buf)-1) != 0 {
		t.Fatalf("buf grew to %d, want a power of two >= %d", len(r.buf), n)
	}
	var got []sim.Time
	r.drain(func(p Parcel) { got = append(got, p.At) })
	if len(got) != n {
		t.Fatalf("drained %d parcels, want %d", len(got), n)
	}
	for i, at := range got {
		if at != sim.Time(i) {
			t.Fatalf("parcel %d has At %d: FIFO order broken across growth", i, at)
		}
	}
	// The ring must be empty and reusable after a drain, at its grown
	// capacity.
	window(true)
	r.push(Parcel{At: 42})
	window(false)
	var again []sim.Time
	r.drain(func(p Parcel) { again = append(again, p.At) })
	if len(again) != 1 || again[0] != 42 {
		t.Fatalf("post-drain ring yielded %v, want [42]", again)
	}
}

// TestRingGrowthMidstream grows while head is far from zero, so the
// re-laying in grow has to translate wrapped positions correctly.
func TestRingGrowthMidstream(t *testing.T) {
	r, window := testRing()
	next := 0
	popped := 0
	push := func(n int) {
		window(true)
		for i := 0; i < n; i++ {
			r.push(Parcel{At: sim.Time(next)})
			next++
		}
	}
	drainAll := func() {
		window(false)
		r.drain(func(p Parcel) {
			if p.At != sim.Time(popped) {
				t.Fatalf("popped At %d, want %d", p.At, popped)
			}
			popped++
		})
	}
	push(ringCap - 3) // nearly fill
	drainAll()        // head == tail == ringCap-3: wrapped state
	push(3 * ringCap) // burst forces growth with nonzero head
	drainAll()
	if popped != next {
		t.Fatalf("popped %d of %d parcels", popped, next)
	}
}

// cellPair builds a two-shard cluster with one cell on each and a pair of
// cut edges, the canonical fixture for protocol tests. The edges start
// disarmed; a test that sends on one arms it first.
func cellPair(t *testing.T) (c *Cluster, a, b *Cell, ab, ba *Edge) {
	t.Helper()
	c = NewCluster()
	sa := c.AddShard("sa")
	sb := c.AddShard("sb")
	a = c.AddCell("a", sim.New(1), sa)
	b = c.AddCell("b", sim.New(2), sb)
	var err error
	ab, err = c.Connect("a->b", a, b, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	ba, err = c.Connect("b->a", b, a, 3*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	return c, a, b, ab, ba
}

// armedEdge connects two cells and arms the edge, so that its delay
// bounds the windows.
func armedEdge(t *testing.T, c *Cluster, name string, from, to *Cell, delay time.Duration) {
	t.Helper()
	e, err := c.Connect(name, from, to, delay)
	if err != nil {
		t.Fatal(err)
	}
	e.Arm()
}

func TestZeroLookaheadRejected(t *testing.T) {
	c := NewCluster()
	a := c.AddCell("a", sim.New(1), c.AddShard("sa"))
	b := c.AddCell("b", sim.New(2), c.AddShard("sb"))
	for _, d := range []time.Duration{0, -time.Millisecond} {
		if _, err := c.Connect("cut", a, b, d); err == nil {
			t.Fatalf("Connect with delay %v succeeded, want error", d)
		} else if !strings.Contains(err.Error(), "lookahead") {
			t.Fatalf("error %q does not explain the lookahead requirement", err)
		}
	}
	if _, err := c.Connect("cut", a, b, time.Millisecond); err != nil {
		t.Fatalf("positive delay rejected: %v", err)
	}
	if l, ok := c.Lookahead(); !ok || l != time.Millisecond {
		t.Fatalf("Lookahead = %v, %v; want 1ms, true", l, ok)
	}
}

// exchange builds two single-cell shards ping-ponging packets over a pair
// of edges and returns the delivery log — b's lines, then a's: each cell
// logs to its own slice, because the two run concurrently and a shared one
// would be exactly the cross-cell state the protocol forbids. Used both for
// protocol checks and for the worker-count determinism gate.
func exchange(t *testing.T, workers int) []string {
	t.Helper()
	c, a, b, ab, ba := cellPair(t)
	ab.Arm()
	ba.Arm()
	simA, simB := a.Sim(), b.Sim() // Cell.Sim is not an in-window accessor

	var logA, logB []string
	// b echoes every arrival straight back; a records the round trip.
	bIn := netem.ReceiverFunc(func(p *netem.Packet) {
		logB = append(logB, fmt.Sprintf("b got seq %d at %v", p.Seq, simB.Now()))
		echo := netem.NewPacket()
		echo.Seq = p.Seq
		p.Release()
		var aIn netem.Receiver
		aIn = netem.ReceiverFunc(func(q *netem.Packet) {
			logA = append(logA, fmt.Sprintf("a got seq %d at %v", q.Seq, simA.Now()))
			q.Release()
		})
		ba.Send(echo, aIn)
	})
	for i := 0; i < 10; i++ {
		seq := uint64(i)
		at := time.Duration(i) * time.Millisecond
		a.Sim().Schedule(at, func() {
			p := netem.NewPacket()
			p.Seq = seq
			ab.Send(p, bIn)
		})
	}
	// A barrier action at 7ms observing both clocks in lockstep.
	c.At(7*time.Millisecond, func() {
		logA = append(logA, fmt.Sprintf("action at a=%v b=%v", a.Sim().Now(), b.Sim().Now()))
	})
	// An event exactly at the horizon must still fire (RunUntil semantics).
	a.Sim().Schedule(30*time.Millisecond, func() { logA = append(logA, "horizon event") })

	c.Run(30*time.Millisecond, workers)
	if c.Windows() == 0 {
		t.Fatal("cluster granted no windows")
	}
	if c.Fired() == 0 {
		t.Fatal("no events fired")
	}
	return append(logB, logA...)
}

func TestClusterProtocol(t *testing.T) {
	log := exchange(t, 1)
	// 10 sends -> 10 b-arrivals at send+5ms, 10 a-echoes at +8ms, one
	// action line, one horizon line.
	if len(log) != 22 {
		t.Fatalf("log has %d lines, want 22:\n%s", len(log), strings.Join(log, "\n"))
	}
	var sawB, sawA int
	for _, l := range log {
		switch {
		case strings.HasPrefix(l, "b got seq"):
			want := fmt.Sprintf("b got seq %d at %v", sawB, time.Duration(sawB)*time.Millisecond+5*time.Millisecond)
			if l != want {
				t.Fatalf("line %q, want %q", l, want)
			}
			sawB++
		case strings.HasPrefix(l, "a got seq"):
			want := fmt.Sprintf("a got seq %d at %v", sawA, time.Duration(sawA)*time.Millisecond+8*time.Millisecond)
			if l != want {
				t.Fatalf("line %q, want %q", l, want)
			}
			sawA++
		case strings.HasPrefix(l, "action"):
			if l != "action at a=7ms b=7ms" {
				t.Fatalf("barrier action saw desynchronised clocks: %q", l)
			}
		}
	}
	if sawB != 10 || sawA != 10 {
		t.Fatalf("deliveries b=%d a=%d, want 10/10", sawB, sawA)
	}
	if log[len(log)-1] != "horizon event" {
		t.Fatalf("last line %q, want the horizon event", log[len(log)-1])
	}
}

// TestWorkerCountInvisible is the package-local determinism gate: the same
// cluster advanced by 1 worker and by 4 workers must produce an identical
// delivery log.
func TestWorkerCountInvisible(t *testing.T) {
	seq := exchange(t, 1)
	par := exchange(t, 4)
	if len(seq) != len(par) {
		t.Fatalf("log lengths differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("line %d differs:\n  1 worker:  %q\n  4 workers: %q", i, seq[i], par[i])
		}
	}
}

// TestOnlyArmedEdgesBoundWindows pins the lookahead rule: a disarmed edge
// lets a cell with events every millisecond run to the horizon in one
// window, an armed 3ms edge cuts the same run into windows of at most 3ms,
// and a route left draining disarms its edge at the first barrier at which
// its visit has nothing live.
func TestOnlyArmedEdgesBoundWindows(t *testing.T) {
	const horizon = 30 * time.Millisecond
	run := func(prep func(c *Cluster, ab, ba *Edge)) (*Cluster, *Edge) {
		c, a, _, ab, ba := cellPair(t)
		for at := time.Duration(0); at < horizon; at += time.Millisecond {
			a.Sim().Schedule(at, func() {})
		}
		prep(c, ab, ba)
		c.Run(horizon, 2)
		return c, ba
	}
	if c, _ := run(func(*Cluster, *Edge, *Edge) {}); c.Windows() != 1 {
		t.Fatalf("no edge armed: %d windows, want 1", c.Windows())
	}
	if c, _ := run(func(c *Cluster, ab, ba *Edge) { ba.Arm() }); c.Windows() != 10 {
		t.Fatalf("3ms edge armed: %d windows, want 10", c.Windows())
	}
	// Armed from the start, left to drain at 6ms with two packets live;
	// one dies at 9ms, the other at 20ms, so the edge bounds the windows
	// up to the barrier at or after 20ms and not after it.
	var v netem.Visit
	c, ba := run(func(c *Cluster, ab, ba *Edge) {
		ba.Arm()
		c.At(6*time.Millisecond, func() { ba.DisarmWhenDrained(&v) })
		p, q := netem.NewPacket(), netem.NewPacket()
		v.Enter(p)
		v.Enter(q)
		s := ba.src.s
		s.Schedule(9*time.Millisecond, p.Release)
		s.Schedule(20*time.Millisecond, q.Release)
	})
	if ba.armed != 0 || v.Live() != 0 {
		t.Fatalf("after the run: edge armed %d, visit live %d; want 0, 0", ba.armed, v.Live())
	}
	if c.Windows() != 8 {
		t.Fatalf("%d windows, want 8: 3ms windows up to 21ms, then one to the horizon", c.Windows())
	}
}

// TestEdgeBurstBeyondInitialCap drives far more than ringCap parcels down
// one edge inside a single window; every one must arrive, in order.
func TestEdgeBurstBeyondInitialCap(t *testing.T) {
	c, a, _, ab, _ := cellPair(t)
	ab.Arm()
	const n = ringCap + 300
	var got []uint64
	bIn := netem.ReceiverFunc(func(p *netem.Packet) {
		got = append(got, p.Seq)
		p.Release()
	})
	// All sends at t=1ms: one event, n pushes, all inside one window.
	a.Sim().Schedule(time.Millisecond, func() {
		for i := 0; i < n; i++ {
			p := netem.NewPacket()
			p.Seq = uint64(i)
			ab.Send(p, bIn)
		}
	})
	c.Run(20*time.Millisecond, 2)
	if len(got) != n {
		t.Fatalf("delivered %d parcels, want %d", len(got), n)
	}
	for i, seq := range got {
		if seq != uint64(i) {
			t.Fatalf("parcel %d has seq %d: burst order broken", i, seq)
		}
	}
}

// TestMigrateMovesCellAtBarrier pins the migration mechanics: a cell moved
// at a barrier keeps firing its events (on the new shard), residency lists
// update, and the delivery log is byte-identical to the unmigrated run.
func TestMigrateMovesCellAtBarrier(t *testing.T) {
	run := func(migrate bool) ([]string, uint64) {
		c, a, b, ab, _ := cellPair(t)
		ab.Arm()
		simB := b.Sim()
		var log []string
		bIn := netem.ReceiverFunc(func(p *netem.Packet) {
			log = append(log, fmt.Sprintf("b got %d at %v", p.Seq, simB.Now()))
			p.Release()
		})
		for i := 0; i < 10; i++ {
			seq := uint64(i)
			a.Sim().Schedule(time.Duration(i)*2*time.Millisecond, func() {
				p := netem.NewPacket()
				p.Seq = seq
				ab.Send(p, bIn)
			})
		}
		if migrate {
			sb := c.Shards()[1]
			c.At(9*time.Millisecond, func() { c.Migrate(a, sb) })
		}
		c.Run(40*time.Millisecond, 2)
		return log, c.Fired()
	}
	plain, firedPlain := run(false)
	moved, firedMoved := run(true)
	if len(plain) != 10 || len(moved) != 10 {
		t.Fatalf("deliveries %d/%d, want 10/10", len(plain), len(moved))
	}
	for i := range plain {
		if plain[i] != moved[i] {
			t.Fatalf("line %d differs under migration:\n  plain: %q\n  moved: %q", i, plain[i], moved[i])
		}
	}
	if firedPlain != firedMoved {
		t.Fatalf("event counts differ under migration: %d vs %d", firedPlain, firedMoved)
	}
}

func TestMigrateUpdatesResidency(t *testing.T) {
	c, a, _, _, _ := cellPair(t)
	sa, sb := c.Shards()[0], c.Shards()[1]
	if a.Shard() != sa || len(sa.Cells()) != 1 || len(sb.Cells()) != 1 {
		t.Fatal("initial residency wrong")
	}
	c.Migrate(a, sb)
	if a.Shard() != sb {
		t.Fatalf("cell a resides on %q, want sb", a.Shard().Name())
	}
	if len(sa.Cells()) != 0 || len(sb.Cells()) != 2 {
		t.Fatalf("residency lists sa=%d sb=%d, want 0/2", len(sa.Cells()), len(sb.Cells()))
	}
	c.Migrate(a, sb) // no-op
	if len(sb.Cells()) != 2 {
		t.Fatal("self-migration duplicated the cell")
	}
}

// TestProtocolRulesPanic pins the ownership protocol's runtime gate, one
// row per rule (Migrate has its own test below): each violation is a named
// panic, the same at one worker and at several, because an executing event
// always sees a window and a barrier action never does.
func TestProtocolRulesPanic(t *testing.T) {
	sink := netem.ReceiverFunc(func(p *netem.Packet) { p.Release() })
	send := func(c *Cluster, a, b *Cell, ab *Edge) { ab.Send(netem.NewPacket(), sink) }
	rules := []struct {
		name      string
		atBarrier bool // violate from a Cluster.At action; otherwise from a scheduled event
		violate   func(c *Cluster, a, b *Cell, ab *Edge)
		want      string
		// prep readies edge a->b at build time; nil arms it.
		prep func(c *Cluster, ab *Edge)
	}{
		{"Edge.Send from a barrier action", true, send,
			"Edge.Send outside a window", nil},
		{"Edge.Send on a never-armed edge", false, send,
			`shard: send on disarmed edge "a->b"`, func(*Cluster, *Edge) {}},
		{"Edge.Send on a disarmed edge", false, send,
			`shard: send on disarmed edge "a->b"`, func(c *Cluster, ab *Edge) {
				ab.Arm()
				c.At(time.Millisecond/2, ab.Disarm)
			}},
		{"Edge.Arm in-window", false,
			func(c *Cluster, a, b *Cell, ab *Edge) { ab.Arm() },
			"shard: Edge.Arm while a window is executing", nil},
		{"Edge.Disarm in-window", false,
			func(c *Cluster, a, b *Cell, ab *Edge) { ab.Disarm() },
			"shard: Edge.Disarm while a window is executing", nil},
		{"Cluster.At in-window", false,
			func(c *Cluster, a, b *Cell, ab *Edge) { c.At(5*time.Millisecond, func() {}) },
			"shard: At while a window is executing", nil},
		{"Cluster.Connect in-window", false,
			func(c *Cluster, a, b *Cell, ab *Edge) { c.Connect("late", a, b, time.Millisecond) },
			"shard: Connect while a window is executing", nil},
		{"Cluster.AddCell in-window", false,
			func(c *Cluster, a, b *Cell, ab *Edge) { c.AddCell("late", sim.New(3), c.Shards()[0]) },
			"shard: AddCell while a window is executing", nil},
		{"Cluster.AddShard in-window", false,
			func(c *Cluster, a, b *Cell, ab *Edge) { c.AddShard("late") },
			"shard: AddShard while a window is executing", nil},
		{"Cluster.Run in-window", false,
			func(c *Cluster, a, b *Cell, ab *Edge) { c.Run(time.Second, 1) },
			"shard: Run while a window is executing", nil},
		{"Cell.Sim in-window", false,
			func(c *Cluster, a, b *Cell, ab *Edge) { b.Sim() },
			"shard: Cell.Sim while a window is executing", nil},
		{"ring drained in-window", false,
			func(c *Cluster, a, b *Cell, ab *Edge) { ab.inbox.drain(func(Parcel) {}) },
			"edge ring drained while a window is executing", nil},
	}
	for _, r := range rules {
		for _, workers := range []int{1, 4} {
			c, a, b, ab, _ := cellPair(t)
			if r.prep != nil {
				r.prep(c, ab)
			} else {
				ab.Arm()
			}
			violate := func() { r.violate(c, a, b, ab) }
			if r.atBarrier {
				c.At(time.Millisecond, violate)
			} else {
				a.Sim().Schedule(time.Millisecond, violate)
			}
			var got string
			func() {
				defer func() { got = fmt.Sprint(recover()) }()
				c.Run(10*time.Millisecond, workers)
			}()
			if !strings.Contains(got, r.want) {
				t.Errorf("%s, %d workers: recovered %q, want a panic containing %q", r.name, workers, got, r.want)
			}
		}
	}
}

func TestMigrateInWindowPanics(t *testing.T) {
	c, a, _, _, _ := cellPair(t)
	sb := c.Shards()[1]
	defer func() {
		if recover() == nil {
			t.Fatal("Migrate from in-window code did not panic")
		}
	}()
	// A scheduled event runs inside a window: migrating there must trip
	// Cluster.BarrierOnly.
	a.Sim().Schedule(time.Millisecond, func() { c.Migrate(a, sb) })
	c.Run(10*time.Millisecond, 1)
}
