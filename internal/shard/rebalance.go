package shard

import "github.com/zhuge-project/zhuge/internal/sim"

// The rebalancer's tuning, measured on the campus workload (DESIGN.md
// "Placement"). Migration is cheap (a pointer move at a barrier) but moving
// a cell resets locality, so the rebalancer demands a persistent imbalance
// before acting and then holds off while the move takes effect.
const (
	// rebalRatio is the hysteresis high-water mark: the rebalancer only
	// considers acting while the heaviest shard's smoothed load exceeds
	// the lightest's by more than this factor.
	rebalRatio = 1.05
	// rebalPatience is how many consecutive over-ratio windows must pass
	// before a migration, so one noisy window never triggers.
	rebalPatience = 2
	// rebalCooldown is how many windows must pass after a migration before
	// the next one, letting the smoothed loads catch up with the new
	// placement instead of thrashing.
	rebalCooldown = 8
	// rebalHalfLife is the per-cell load EWMA half-life in windows; it also
	// serves as the warm-up period before the first decision.
	rebalHalfLife = 8
)

// Move records one executed migration, for tests and run summaries.
type Move struct {
	Window   uint64 // profiler window index at which the move happened
	At       sim.Time
	Cell     string
	From, To string
}

// Rebalancer migrates whole cells between shards at barriers when the
// observed load imbalance exceeds a hysteresis threshold. It closes the
// shortest possible control loop over the runtime's own scheduling: the
// signal is the profiler's per-window per-cell event deltas, the reaction
// is a Cluster.Migrate executed in the very barrier that observed the
// imbalance.
//
// Correctness does not depend on the decisions: cell placement is
// invisible in every output (see the package comment). The signal is event
// counts alone, never the profiler's wall clock, so the whole schedule is
// deterministic whether or not a Clock is injected — what the regression
// tests pin.
type Rebalancer struct {
	c      *Cluster
	load   []float64 // per-cell EWMA, cluster cell order
	streak int
	cool   int
	moves  []Move

	// scratch, sized per shard
	shardLoad []float64
}

// NewRebalancer builds a rebalancer for c. Attach it to the profiled run
// with AttachRebalancer.
func NewRebalancer(c *Cluster) *Rebalancer {
	return &Rebalancer{
		c:         c,
		load:      make([]float64, len(c.cells)),
		shardLoad: make([]float64, len(c.shards)),
	}
}

// AttachRebalancer wires r into the profiler's barrier hook. The profiler
// is the rebalancer's sensor: every window it hands over fresh per-cell
// deltas, and the rebalancer may migrate before the next window starts.
func (p *Profiler) AttachRebalancer(r *Rebalancer) { p.rebal = r }

// Moves returns the executed migrations in order.
func (r *Rebalancer) Moves() []Move { return r.moves }

// Migrations returns how many cell migrations the rebalancer executed.
func (r *Rebalancer) Migrations() int { return len(r.moves) }

// observe runs at the barrier, after the profiler's window accounting:
// update smoothed per-cell loads, check the hysteresis gate, and migrate
// at most one cell. Single-threaded barrier context by construction.
func (r *Rebalancer) observe(p *Profiler, end sim.Time) {
	const alpha = 2.0 / (rebalHalfLife + 1)
	for ci := range r.load {
		r.load[ci] += alpha * (float64(p.cellDelta[ci]) - r.load[ci])
	}
	if r.cool > 0 {
		r.cool--
	}
	if p.windows < rebalHalfLife {
		return // warm-up: the EWMA is still mostly initial zeros
	}
	for i := range r.shardLoad {
		r.shardLoad[i] = 0
	}
	for ci, cl := range r.c.cells {
		r.shardLoad[cl.sh.idx] += r.load[ci]
	}
	hi, lo := 0, 0
	for i := 1; i < len(r.shardLoad); i++ {
		if r.shardLoad[i] > r.shardLoad[hi] {
			hi = i
		}
		if r.shardLoad[i] < r.shardLoad[lo] {
			lo = i
		}
	}
	maxL, minL := r.shardLoad[hi], r.shardLoad[lo]
	imbalanced := maxL > 0 && (minL <= 0 || maxL/minL > rebalRatio)
	if !imbalanced {
		r.streak = 0
		return
	}
	r.streak++
	if r.streak < rebalPatience || r.cool > 0 || hi == lo {
		return
	}
	r.streak = 0
	cell := r.pickVictim(hi, maxL-minL)
	if cell < 0 {
		return
	}
	from, to := r.c.shards[hi], r.c.shards[lo]
	moved := r.c.cells[cell]
	r.c.Migrate(moved, to)
	r.cool = rebalCooldown
	r.moves = append(r.moves, Move{
		Window: p.windows, At: end,
		Cell: moved.name, From: from.name, To: to.name,
	})
}

// pickVictim chooses which of the heaviest shard's cells to move: the one
// whose smoothed load lands closest to half the shard-load gap — the move
// that best levels the pair — among cells light enough that moving them
// strictly improves the balance. Ties break on cell name so the decision
// is a pure function of the loads. Returns a cluster cell index, or -1
// when no cell improves matters (e.g. the shard hosts one giant cell).
func (r *Rebalancer) pickVictim(hi int, gap float64) int {
	sh := r.c.shards[hi]
	if len(sh.cells) < 2 {
		return -1
	}
	best, target := -1, gap/2
	var bestDist float64
	for ci, cl := range r.c.cells {
		if cl.sh != sh {
			continue
		}
		w := r.load[ci]
		if w <= 0 || w >= gap {
			continue // moving it would not strictly shrink the gap
		}
		d := target - w
		if d < 0 {
			d = -d
		}
		if best < 0 || d < bestDist ||
			(d == bestDist && cl.name < r.c.cells[best].name) {
			best, bestDist = ci, d
		}
	}
	return best
}
