package shard

import (
	"reflect"
	"testing"
	"time"

	"github.com/zhuge-project/zhuge/internal/sim"
)

// rebalCluster builds a 2-shard, 4-cell cluster with a pathological initial
// placement: both busy cells ("busy0", "busy1", one event per ms) start on
// shard s0, both idle cells (one event per 50ms) on s1. Cut edges between
// the busy cells give the cluster a 1ms lookahead, so the run spans many
// windows — enough for the EWMA to warm up and the hysteresis to trip.
func rebalCluster(t *testing.T, horizon time.Duration) *Cluster {
	t.Helper()
	c := NewCluster()
	s0, s1 := c.AddShard("s0"), c.AddShard("s1")
	busy0 := c.AddCell("busy0", sim.New(1), s0)
	busy1 := c.AddCell("busy1", sim.New(2), s0)
	idle0 := c.AddCell("idle0", sim.New(3), s1)
	idle1 := c.AddCell("idle1", sim.New(4), s1)
	armedEdge(t, c, "b0->b1", busy0, busy1, time.Millisecond)
	armedEdge(t, c, "i0->i1", idle0, idle1, time.Millisecond)
	for _, cl := range []*Cell{busy0, busy1} {
		s := cl.Sim()
		for at := time.Duration(0); at < horizon; at += time.Millisecond {
			s.Schedule(at, func() {})
		}
	}
	for _, cl := range []*Cell{idle0, idle1} {
		s := cl.Sim()
		for at := time.Duration(0); at < horizon; at += 50 * time.Millisecond {
			s.Schedule(at, func() {})
		}
	}
	return c
}

func TestRebalancerMovesLoad(t *testing.T) {
	const horizon = 400 * time.Millisecond
	c := rebalCluster(t, horizon)
	p := NewProfiler(c) // nil Clock: events-only signal, deterministic
	r := NewRebalancer(c, RebalanceConfig{})
	p.AttachRebalancer(r)
	c.RunProfiled(sim.Time(horizon), 2, p)

	if r.Migrations() == 0 {
		t.Fatal("rebalancer never acted on a 2:1-cells-worth imbalance")
	}
	first := r.Moves()[0]
	if first.From != "s0" || first.To != "s1" {
		t.Fatalf("first move %+v, want busy shard s0 -> idle shard s1", first)
	}
	if first.Cell != "busy0" && first.Cell != "busy1" {
		t.Fatalf("moved cell %q, want one of the busy cells", first.Cell)
	}
	// After convergence the busy cells must sit on different shards.
	cells := c.Cells()
	if cells[0].Shard() == cells[1].Shard() {
		t.Fatalf("busy cells still share shard %q after %d moves", cells[0].Shard().Name(), r.Migrations())
	}
}

// TestRebalancerNoThrashOnStableLoad is the hysteresis gate: once the load
// is level (one busy cell per shard), the rebalancer must stop moving cells
// even over a long run — Ratio keeps small residual imbalance below the
// trigger, and pickVictim refuses moves that don't strictly shrink the gap.
func TestRebalancerNoThrashOnStableLoad(t *testing.T) {
	const horizon = 800 * time.Millisecond
	c := rebalCluster(t, horizon)
	// Pre-level the placement: one busy and one idle cell per shard.
	c.Migrate(c.Cells()[1], c.Shards()[1]) // busy1 -> s1
	c.Migrate(c.Cells()[2], c.Shards()[0]) // idle0 -> s0
	p := NewProfiler(c)
	r := NewRebalancer(c, RebalanceConfig{})
	p.AttachRebalancer(r)
	c.RunProfiled(sim.Time(horizon), 2, p)

	if n := r.Migrations(); n != 0 {
		t.Fatalf("rebalancer thrashed: %d migrations on stable, level load: %+v", n, r.Moves())
	}
}

// TestRebalancerConverges runs the pathological placement long enough to
// settle and then checks the tail is quiet: all moves happen early, none in
// the second half of the run.
func TestRebalancerConverges(t *testing.T) {
	const horizon = 800 * time.Millisecond
	c := rebalCluster(t, horizon)
	p := NewProfiler(c)
	r := NewRebalancer(c, RebalanceConfig{})
	p.AttachRebalancer(r)
	c.RunProfiled(sim.Time(horizon), 2, p)

	if r.Migrations() == 0 {
		t.Fatal("no migrations at all")
	}
	half := p.Windows() / 2
	for _, m := range r.Moves() {
		if m.Window > half {
			t.Fatalf("late migration at window %d of %d — not converged: %+v", m.Window, p.Windows(), r.Moves())
		}
	}
}

// TestRebalancerDeterministic pins the whole migration schedule across
// worker counts: with a nil Clock the signal is events-only, so the moves
// (cells, directions, windows, times) must be identical however many
// workers advance the cluster.
func TestRebalancerDeterministic(t *testing.T) {
	run := func(workers int) []Move {
		const horizon = 400 * time.Millisecond
		c := rebalCluster(t, horizon)
		p := NewProfiler(c)
		r := NewRebalancer(c, RebalanceConfig{})
		p.AttachRebalancer(r)
		c.RunProfiled(sim.Time(horizon), workers, p)
		return r.Moves()
	}
	m1 := run(1)
	m4 := run(4)
	if len(m1) == 0 {
		t.Fatal("no migrations to compare")
	}
	if !reflect.DeepEqual(m1, m4) {
		t.Fatalf("migration schedule differs across worker counts:\n1 worker:  %+v\n4 workers: %+v", m1, m4)
	}
}

// TestRebalancerRefusesUnhelpfulMove: a shard hosting one giant cell is
// over-loaded but un-splittable; the rebalancer must leave it alone rather
// than bounce the giant (or an idle peer) around.
func TestRebalancerRefusesUnhelpfulMove(t *testing.T) {
	const horizon = 400 * time.Millisecond
	c := NewCluster()
	s0, s1 := c.AddShard("s0"), c.AddShard("s1")
	giant := c.AddCell("giant", sim.New(1), s0)
	small := c.AddCell("small", sim.New(2), s1)
	armedEdge(t, c, "g->s", giant, small, time.Millisecond)
	for at := time.Duration(0); at < horizon; at += time.Millisecond {
		giant.Sim().Schedule(at, func() {})
	}
	for at := time.Duration(0); at < horizon; at += 20 * time.Millisecond {
		small.Sim().Schedule(at, func() {})
	}
	p := NewProfiler(c)
	r := NewRebalancer(c, RebalanceConfig{})
	p.AttachRebalancer(r)
	c.RunProfiled(sim.Time(horizon), 2, p)

	if n := r.Migrations(); n != 0 {
		t.Fatalf("rebalancer made %d pointless moves around a single giant cell: %+v", n, r.Moves())
	}
}
