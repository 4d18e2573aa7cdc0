package scenario

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/zhuge-project/zhuge/internal/metrics"
	"github.com/zhuge-project/zhuge/internal/obs"
	"github.com/zhuge-project/zhuge/internal/shard"
	"github.com/zhuge-project/zhuge/internal/sim"
	"github.com/zhuge-project/zhuge/internal/trace"
)

// testCampus is a small-but-real campus: several APs, stations with and
// without their own queues, staggered RTP flows, and roams that cross
// shard boundaries in both directions.
func testCampus() CampusConfig {
	return CampusConfig{APs: 6, Stations: 12, Roams: 4, Duration: 2 * time.Second,
		Solution: SolutionZhuge}
}

func buildAndRunCampus(t *testing.T, shards, workers int, d time.Duration) *ShardedPath {
	t.Helper()
	return buildAndRunCampusOpts(t, ShardedOptions{Shards: shards}, workers, d)
}

// TestShardCountIsInvisible is the tentpole gate: the same campus run on
// one shard, on several shards with a parallel worker pool, and rebalanced
// must produce byte-identical outputs. It runs two seeds, and at each some
// return roam leaves stragglers in the visited cell, so a return edge stays
// armed past the roam until the visit drains. The window count is pinned
// too: edges bound the windows only while a roam uses them (with every
// declared roam's edges bounding every window, the same runs took 912 and
// 921 windows).
func TestShardCountIsInvisible(t *testing.T) {
	const d = 2 * time.Second
	for _, tc := range []struct {
		seed    int64
		windows uint64
	}{{1, 426}, {7, 430}} {
		var want string
		for _, opt := range []ShardedOptions{
			{Shards: 1}, {Shards: 2}, {Shards: 4}, {Shards: 8},
			{Shards: 2, Rebalance: true},
			{Shards: 4, Rebalance: true},
		} {
			opt.CutDelay = CampusCutDelay
			spd, err := BuildSharded(Campus(tc.seed, testCampus()), opt)
			if err != nil {
				t.Fatal(err)
			}
			// Campus declares each roam out, then its return. A barrier
			// action registered after the build runs after the return at
			// the same instant and sees what the visit left behind.
			stragglers := 0
			hs := spd.Spec.Handovers
			for i := 0; i+1 < len(hs); i += 2 {
				v := visitKey{hs[i].Station, spd.Cell(hs[i].To).Index}
				spd.Cluster.At(hs[i+1].At, func() {
					if spd.visits[v].Live() > 0 {
						stragglers++
					}
				})
			}
			spd.Run(d, 4)
			got := spd.Fingerprint()
			if want == "" {
				want = got
				if !strings.Contains(want, "rtt_n=") || strings.Contains(want, "rtt_n=0 ") {
					t.Fatalf("seed %d: reference run delivered no packets:\n%s", tc.seed, want)
				}
				if len(spd.Cells) != 6 {
					t.Fatalf("campus built %d cells, want 6", len(spd.Cells))
				}
				if stragglers == 0 {
					t.Fatalf("seed %d: no return roam left stragglers; the drain rule goes untested", tc.seed)
				}
			} else if got != want {
				t.Fatalf("seed %d, %+v diverged from 1 shard:\n--- want\n%s\n--- got\n%s", tc.seed, opt, want, got)
			}
			if n := spd.Cluster.Windows(); n != tc.windows {
				t.Errorf("seed %d, %+v: %d windows, want %d", tc.seed, opt, n, tc.windows)
			}
		}
	}
}

// TestSingleCellPassthrough pins the compatibility guarantee: a single-AP
// Spec built sharded must reproduce the classic Build byte-identically —
// same flow keys, same RNG streams, same metrics.
func TestSingleCellPassthrough(t *testing.T) {
	mk := func() Spec {
		tr := trace.Generate(trace.OfficeWiFi(), 2*time.Second, sim.LabeledRand(7, "t"))
		return Spec{
			Seed: 7,
			APs:  []APSpec{{Trace: tr, Solution: SolutionZhuge}},
			Flows: []FlowSpec{
				{Kind: "rtp"},
				{Kind: "tcp", StartAt: 300 * time.Millisecond},
			},
		}
	}
	classic := mk().Build()
	classic.Run(2 * time.Second)

	spd, err := BuildSharded(mk(), ShardedOptions{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	spd.Run(2*time.Second, 1)

	if n := len(spd.Cells); n != 1 {
		t.Fatalf("single-AP spec built %d cells, want 1", n)
	}
	if spd.Cells[0].Label != "" {
		t.Fatalf("single cell got label %q; must stay unlabelled for passthrough", spd.Cells[0].Label)
	}
	want := flowsFingerprint(classic)
	got := flowsFingerprint(spd.Cells[0].Path)
	if want != got {
		t.Fatalf("sharded single-cell run diverged from classic Build:\n--- classic\n%s\n--- sharded\n%s", want, got)
	}
	if classic.S.Fired() != spd.Cluster.Fired() {
		t.Fatalf("event counts differ: classic %d, sharded %d", classic.S.Fired(), spd.Cluster.Fired())
	}
}

// flowsFingerprint renders a classic Path's per-flow outputs in the same
// shape the sharded fingerprint uses for one cell.
func flowsFingerprint(p *Path) string {
	var b strings.Builder
	for _, bf := range p.Flows {
		var m *FlowMetrics
		switch {
		case bf.RTP != nil:
			m = bf.RTP.Metrics
			fmt.Fprintf(&b, "%s decoded=%d", bf.RTP.Flow, bf.RTP.Decoder.Decoded)
		case bf.TCP != nil:
			m = bf.TCP.Metrics
			fmt.Fprintf(&b, "%s sent=%d dropped=%d", bf.TCP.Flow, bf.TCP.FramesSent, bf.TCP.FramesDropped)
		}
		if m != nil {
			fmt.Fprintf(&b, " rtt_n=%d mean=%d p99=%d delivered=%.0f",
				m.RTT.Count(), int64(m.RTT.Mean()), int64(m.RTT.Quantile(0.99)), m.DeliveredBytes)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestCrossShardHandover pins the trombone: a station roams to an AP on
// another shard mid-run and back, and its flow keeps delivering the whole
// time — through the visited AP's queue and radio while roamed. The roamer
// is an own-queue station, so the test also pins the documented difference
// from the in-simulator roam (DESIGN.md "Two roams, one boundary each"):
// across cells its dedicated link does not follow it — it stands still
// while the visited cell's main downlink carries the flow.
func TestCrossShardHandover(t *testing.T) {
	mk := func() Spec {
		dur := 3 * time.Second
		t0 := trace.Generate(trace.OfficeWiFi(), dur, sim.LabeledRand(3, "east"))
		t1 := trace.Generate(trace.RestaurantWiFi(), dur, sim.LabeledRand(3, "west"))
		return Spec{
			Seed: 3,
			APs: []APSpec{
				{Name: "east", Trace: t0, Solution: SolutionZhuge},
				{Name: "west", Trace: t1, Solution: SolutionZhuge},
			},
			Stations: []StationSpec{{Name: "roamer", AP: "east", OwnQueue: true}},
			Flows:    []FlowSpec{{Kind: "rtp", Station: "roamer"}},
			Handovers: []HandoverSpec{
				{Station: "roamer", To: "west", At: time.Second, Policy: HandoverMigrate},
				{Station: "roamer", To: "east", At: 2 * time.Second, Policy: HandoverMigrate},
			},
		}
	}
	// delivered samples the two radio links a roam could use: mid-visit
	// (stragglers queued at the roam have long drained), at the return,
	// and at the end of the run.
	type delivered struct{ own, visited int }
	run := func(shards, workers int) (*ShardedPath, [3]delivered) {
		spd, err := BuildSharded(mk(), ShardedOptions{Shards: shards, CutDelay: CampusCutDelay})
		if err != nil {
			t.Fatal(err)
		}
		own := spd.Cell("east").Path.Station("roamer").Link()
		visited := spd.Cell("west").Path.APs[0].Downlink
		spd.Cell("east").Path.Flows[0].RTP.Metrics.RTTSeries = new(metrics.Series)
		var at [3]delivered
		for i, when := range []time.Duration{1500 * time.Millisecond, 2 * time.Second} {
			spd.Cluster.At(when, func() { at[i] = delivered{own.Delivered(), visited.Delivered()} })
		}
		spd.Run(3*time.Second, workers)
		at[2] = delivered{own.Delivered(), visited.Delivered()}
		return spd, at
	}
	spd, at := run(2, 2)
	if at[0].own == 0 || at[1].own != at[0].own {
		t.Errorf("roamer's own link delivered %d mid-visit and %d at the return; it must carry the flow at home and stand still while roamed",
			at[0].own, at[1].own)
	}
	if at[1].visited <= at[0].visited {
		t.Errorf("visited cell's main downlink delivered %d -> %d during the visit; the trombone must go through its shared queue",
			at[0].visited, at[1].visited)
	}
	if at[2].own <= at[1].own {
		t.Errorf("roamer's own link delivered %d at the return and %d at the end; it must resume after the return",
			at[1].own, at[2].own)
	}
	rtp := spd.Cell("east").Path.Flows[0].RTP
	if rtp == nil {
		t.Fatal("roamer's flow not built in its home cell")
	}
	// Deliveries must continue in every phase: before, during, after.
	var pre, mid, post int
	for _, s := range rtp.Metrics.RTTSeries.Points {
		switch {
		case s.At < time.Second:
			pre++
		case s.At < 2*time.Second:
			mid++
		default:
			post++
		}
	}
	if pre == 0 || mid == 0 || post == 0 {
		t.Fatalf("deliveries pre/mid/post roam = %d/%d/%d; the trombone dropped a phase", pre, mid, post)
	}
	if rtp.Decoder.Decoded == 0 {
		t.Fatal("no frames decoded across the roam")
	}
	// And the boundary crossing must not depend on the grouping.
	one, _ := run(1, 1)
	if a, b := one.Fingerprint(), spd.Fingerprint(); a != b {
		t.Fatalf("cross-shard handover diverges between shard counts:\n--- 1 shard\n%s\n--- 2 shards\n%s", a, b)
	}
}

// TestRoamFromAnEventPanics pins the barrier-only rule for the one
// function that rewires two cells at once: a roam invoked from an event on
// a cell's simulator — the mistake of scheduling it with Schedule instead
// of Cluster.At — is a named panic at any worker count, not a divergence
// some other test may or may not notice.
func TestRoamFromAnEventPanics(t *testing.T) {
	for _, workers := range []int{1, 4} {
		spd, err := BuildSharded(Campus(1, testCampus()), ShardedOptions{Shards: 2, CutDelay: CampusCutDelay})
		if err != nil {
			t.Fatal(err)
		}
		roam := spd.Spec.Handovers[0]
		spd.Cells[0].Path.S.Schedule(time.Millisecond, func() { spd.handover(roam) })
		var got string
		func() {
			defer func() { got = fmt.Sprint(recover()) }()
			spd.Run(10*time.Millisecond, workers)
		}()
		if want := "shard: ShardedPath.handover while a window is executing"; !strings.Contains(got, want) {
			t.Errorf("%d workers: recovered %q, want a panic containing %q", workers, got, want)
		}
	}
}

// TestZeroLookaheadRejected pins the build-time error for a cut with no
// delay: the cluster cannot grant any parallel window from it. The error
// names the first cut edge in (home, target) order, which BuildSharded
// collects in a map: every one of ten builds must name the same edge.
func TestZeroLookaheadRejected(t *testing.T) {
	for i := 0; i < 10; i++ {
		_, err := BuildSharded(Campus(1, testCampus()), ShardedOptions{Shards: 2}) // CutDelay zero
		if err == nil {
			t.Fatal("BuildSharded accepted a zero-delay cut edge")
		}
		if !strings.Contains(err.Error(), "lookahead") {
			t.Fatalf("error %q does not explain the lookahead requirement", err)
		}
		if !strings.Contains(err.Error(), `"cut.ap000->ap001"`) {
			t.Fatalf("build %d: error %q does not name the first cut edge, cut.ap000->ap001", i, err)
		}
	}
}

// TestShardedObsRejected pins the other build-time error: an obs.Obs is
// single-threaded, so a Spec carrying one cannot be decomposed into cells
// on different shards, and dropping it silently would lose the caller's
// instruments.
func TestShardedObsRejected(t *testing.T) {
	sp := Campus(1, testCampus())
	sp.Obs = obs.New(obs.Options{Metrics: true})
	_, err := BuildSharded(sp, ShardedOptions{Shards: 2, CutDelay: CampusCutDelay})
	if err == nil {
		t.Fatal("BuildSharded accepted a Spec with Obs set")
	}
	if !strings.Contains(err.Error(), "Spec.Obs") {
		t.Fatalf("error %q does not name Spec.Obs", err)
	}
}

// buildAndRunCampusOpts is buildAndRunCampus with caller-controlled
// shard count and rebalancing.
func buildAndRunCampusOpts(t *testing.T, opt ShardedOptions, workers int, d time.Duration) *ShardedPath {
	t.Helper()
	if opt.CutDelay == 0 {
		opt.CutDelay = CampusCutDelay
	}
	spd, err := BuildSharded(Campus(1, testCampus()), opt)
	if err != nil {
		t.Fatal(err)
	}
	spd.Run(d, workers)
	return spd
}

// TestMigrationIsInvisible extends the byte-identity gate to the one thing
// that moves cells off the contiguous split: the rebalancer migrating them
// mid-run must reproduce the single-shard fingerprint exactly. A shard count
// below the cell count must really migrate, or the gate checks nothing.
func TestMigrationIsInvisible(t *testing.T) {
	d := 2 * time.Second
	want := buildAndRunCampus(t, 1, 1, d).Fingerprint()
	for _, shards := range []int{3, 6} {
		spd := buildAndRunCampusOpts(t, ShardedOptions{Shards: shards, Rebalance: true}, 4, d)
		if got := spd.Fingerprint(); got != want {
			t.Fatalf("%d shards, rebalanced, diverged from the single-shard reference:\n--- want\n%s\n--- got\n%s",
				shards, want, got)
		}
		if n := spd.Rebalancer.Migrations(); n == 0 && shards < len(spd.Cells) {
			t.Fatalf("%d shards: no migration executed; the gate did not exercise mid-run cell movement", shards)
		}
	}
}

// TestRebalanceScheduleDeterministic pins the dynamic mode end to end: the
// events-only rebalancer must execute the identical migration schedule at
// 1 and 4 workers on the campus workload.
func TestRebalanceScheduleDeterministic(t *testing.T) {
	run := func(workers int) []shard.Move {
		spd := buildAndRunCampusOpts(t, ShardedOptions{
			Shards: 2, Rebalance: true,
		}, workers, 2*time.Second)
		return spd.Rebalancer.Moves()
	}
	m1, m4 := run(1), run(4)
	if len(m1) == 0 {
		t.Fatal("the rebalancer executed no migrations on the campus workload")
	}
	if !reflect.DeepEqual(m1, m4) {
		t.Fatalf("migration schedules differ across worker counts:\n1 worker:  %+v\n4 workers: %+v", m1, m4)
	}
}

// TestDuplicateAPNamePanics pins the one name check both builders share:
// two APs with one name are a build-time bug in Build and in BuildSharded
// (an explicit name colliding with a defaulted "ap<index>" included).
func TestDuplicateAPNamePanics(t *testing.T) {
	tr := trace.Constant("c20", 20e6, time.Second)
	for _, names := range [][2]string{{"x", "x"}, {"ap1", ""}} {
		sp := Spec{Seed: 1, APs: []APSpec{{Name: names[0], Trace: tr}, {Name: names[1], Trace: tr}}}
		for builder, build := range map[string]func(){
			"Build":        func() { sp.Build() },
			"BuildSharded": func() { BuildSharded(sp, ShardedOptions{CutDelay: time.Millisecond}) },
		} {
			func() {
				defer func() {
					if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "duplicate AP") {
						t.Errorf("%s with AP names %q: recovered %v, want a duplicate-AP panic", builder, names, r)
					}
				}()
				build()
			}()
		}
	}
}

func TestPartitionBalanceAndContiguity(t *testing.T) {
	for n := 1; n <= 40; n++ {
		for k := 1; k <= 12; k++ {
			assign := partition(n, k)
			if len(assign) != n {
				t.Fatalf("partition(%d,%d): %d assignments", n, k, len(assign))
			}
			want := min(k, n)
			sizes := make([]int, want)
			prev := 0
			for i, g := range assign {
				if g < prev || g > prev+1 || g >= want {
					t.Fatalf("partition(%d,%d): non-contiguous at cell %d: %v", n, k, i, assign)
				}
				sizes[g]++
				prev = g
			}
			lo, hi := n, 0
			for _, s := range sizes {
				lo, hi = min(lo, s), max(hi, s)
			}
			if lo == 0 || hi-lo > 1 {
				t.Fatalf("partition(%d,%d): group sizes %d..%d, want all %d groups used and balanced", n, k, lo, hi, want)
			}
		}
	}
}

func TestPartitionClampsAndEmpty(t *testing.T) {
	if got := partition(0, 4); got != nil {
		t.Fatalf("partition(0,4) = %v, want nil", got)
	}
	if got := partition(3, 0); len(got) != 3 || got[0] != 0 || got[2] != 0 {
		t.Fatalf("partition(3,0) = %v, want all zero", got)
	}
	if got := partition(3, 8); len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("partition(3,8) = %v, want one group per cell", got)
	}
}
