package main

import "strings"

// The workloads, in the order `run.sh --workload all` runs them. The why
// is what BENCHMARK.json records; README.md has the long form.
var workloadWhy = []struct{ name, why string }{
	{"call-rtp", "in-band path at its leanest: sim heap, wireless, RTP/GCC, InbandUpdater and TWCC; tcpsim, quicsim and shard do nothing"},
	{"stream-tcp", "the same core used out-of-band (Algorithm 2) over tcpsim with Copa and BBR; allocates per event where call-rtp does not"},
	{"stream-quic", "quicsim does nearly all the work (ACK handling is quadratic today); same out-of-band core as stream-tcp, different transport"},
	{"campus", "32 APs and 320 stations over nproc shards: the window protocol, barriers and cut edges set the time, not the handlers"},
	{"suite", "every experiment at scale 0.02 fanned over nproc workers as zhuge-bench -exp all does; golden-checked at seed 1"},
	{"relay-flood", "closed loop, window 32, through an unshaped Zhuge relay on loopback UDP: per-packet cost with the processor busy"},
	{"relay-shaped", "closed loop, window 16, through a relay shaped to 20 Mbit/s on loopback UDP: the pacing sleep dominates, not the syscalls"},
}

func workloadNames() []string {
	out := make([]string, len(workloadWhy))
	for i, w := range workloadWhy {
		out[i] = w.name
	}
	return out
}

// metricDef declares one metric. Every value the benchmark reports goes
// through report.set, which refuses names that are not declared here.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
	// exact marks simulated results and counts: for one seed they repeat
	// bit for bit, so -compare checks them for equality, not against a bound.
	exact bool
	// driver marks per-layer metrics listed in BENCHMARK.json. The driver's
	// result line must carry every listed metric on every workload, so a
	// listed metric that a workload does not measure reads 0 there; metrics
	// with a time unit that not every workload measures stay out of the list
	// (a time that never changes looks made up) and appear in the report only.
	driver bool
	// on names the workloads whose run measures it; "all" is every one.
	on string
}

func (d metricDef) measuredOn(workload string) bool {
	if d.on == "all" {
		return true
	}
	for _, w := range strings.Split(d.on, ",") {
		if w == workload {
			return true
		}
	}
	return false
}

const (
	simCells  = "call-rtp,stream-tcp,stream-quic"
	simAll    = "call-rtp,stream-tcp,stream-quic,campus"
	relayBoth = "relay-flood,relay-shaped"
)

// endToEnd is what a user of the system sees; every workload reports all of
// them in the untraced run. Host time only: simulated results are per-layer.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25, on: "all"},
	{name: "wall_s", unit: "s", better: "lower", bound: 0.25, on: "all"},
}

// perLayer is the traced layer ladder.
var perLayer = []metricDef{
	// The instrument itself.
	{name: "bench.trace_overhead_ratio", unit: "ratio", better: "lower", driver: true, on: "all"},
	{name: "bench.repeats", unit: "count", better: "higher", driver: true, on: "all"},
	{name: "bench.wall_iqr_share", unit: "share", better: "lower", driver: true, on: "all"},
	{name: "bench.unattributed_share", unit: "share", better: "lower", driver: true, on: "all"},
	{name: "bench.max_rss_mb", unit: "MiB", better: "lower", driver: true, on: "all"},
	// Process user+system time of one repeat, floor. Not end-to-end: on the
	// idle-dominated relay-shaped workload it is all wake-ups, whose cost on
	// this host shifts by a quarter between runs of one binary.
	{name: "cpu_s", unit: "s", better: "lower", driver: true, on: "all"},

	// Drills: one package's public API in isolation, run in every traced run.
	{name: "sim.drill_ns_per_event", unit: "ns", better: "lower", driver: true, on: "all"},
	{name: "sim.drill_allocs_per_event", unit: "count", better: "lower", driver: true, on: "all"},
	{name: "netem.link_ns_per_packet", unit: "ns", better: "lower", driver: true, on: "all"},
	{name: "netem.link_allocs_per_packet", unit: "count", better: "lower", driver: true, on: "all"},
	{name: "queue.fifo_ns_per_op", unit: "ns", better: "lower", driver: true, on: "all"},
	{name: "queue.codel_ns_per_op", unit: "ns", better: "lower", driver: true, on: "all"},
	{name: "queue.fqcodel_ns_per_op", unit: "ns", better: "lower", driver: true, on: "all"},
	{name: "wireless.ns_per_packet", unit: "ns", better: "lower", driver: true, on: "all"},
	{name: "wireless.allocs_per_packet", unit: "count", better: "lower", driver: true, on: "all"},
	{name: "core.oob_ns_per_packet.flows-1", unit: "ns", better: "lower", driver: true, on: "all"},
	{name: "core.oob_ns_per_packet.flows-5", unit: "ns", better: "lower", driver: true, on: "all"},
	{name: "core.inband_ns_per_packet", unit: "ns", better: "lower", driver: true, on: "all"},
	{name: "core.predict_ns", unit: "ns", better: "lower", driver: true, on: "all"},
	{name: "core.allocs_per_packet", unit: "count", better: "lower", driver: true, on: "all"},
	{name: "packet.rtp_parse_ns", unit: "ns", better: "lower", driver: true, on: "all"},
	{name: "packet.twcc_build_ns", unit: "ns", better: "lower", driver: true, on: "all"},
	{name: "packet.twcc_parse_ns", unit: "ns", better: "lower", driver: true, on: "all"},
	{name: "packet.twcc_build_allocs", unit: "count", better: "lower", driver: true, on: "all"},
	{name: "parallel.map_us_per_cell", unit: "us", better: "lower", driver: true, on: "all"},
	{name: "metrics.hist_add_ns", unit: "ns", better: "lower", driver: true, on: "all"},

	// Simulated results and counts of the scenario workloads.
	{name: "tail_rtt_ratio", unit: "ratio", better: "lower", exact: true, driver: true, on: simCells},
	{name: "sim.events", unit: "count", better: "lower", exact: true, driver: true, on: simAll},
	{name: "sim.wall_ns_per_event", unit: "ns", better: "lower", on: simAll},
	{name: "sim.allocs_per_event", unit: "count", better: "lower", driver: true, on: simAll},
	{name: "sim.alloc_bytes_per_event", unit: "B", better: "lower", driver: true, on: simAll},
	{name: "core.predictions", unit: "count", better: "lower", exact: true, driver: true, on: "call-rtp,stream-tcp"},
	{name: "core.cache_hit_share", unit: "share", better: "higher", exact: true, driver: true, on: "call-rtp,stream-tcp"},
	{name: "core.feedback_constructed", unit: "count", better: "lower", exact: true, driver: true, on: "call-rtp,stream-tcp"},
	{name: "core.client_feedback_dropped", unit: "count", better: "lower", exact: true, driver: true, on: "call-rtp,stream-tcp"},
	{name: "rtp.wall_us_per_packet", unit: "us", better: "lower", on: "call-rtp"},
	{name: "tcpsim.wall_us_per_packet", unit: "us", better: "lower", on: "stream-tcp"},
	{name: "quicsim.wall_us_per_packet", unit: "us", better: "lower", on: "stream-quic"},
	{name: "tcpsim.retransmit_share", unit: "share", better: "lower", exact: true, driver: true, on: "stream-tcp"},
	{name: "quicsim.lost_share", unit: "share", better: "lower", exact: true, driver: true, on: "stream-quic"},
	{name: "tcpsim.scaling_exponent", unit: "ratio", better: "lower", driver: true, on: "stream-tcp"},
	{name: "quicsim.scaling_exponent", unit: "ratio", better: "lower", driver: true, on: "stream-quic"},
	{name: "cca.gcc.cell_wall_s", unit: "s", better: "lower", on: "call-rtp"},
	{name: "cca.copa.cell_wall_s", unit: "s", better: "lower", on: "stream-tcp"},
	{name: "cca.bbr.cell_wall_s", unit: "s", better: "lower", on: "stream-tcp"},
	{name: "trace.generate_ms", unit: "ms", better: "lower", on: simCells},
	{name: "scenario.build_ms", unit: "ms", better: "lower", on: simCells},
	{name: "scenario.run_share", unit: "share", better: "higher", driver: true, on: simAll},
	{name: "obs.enabled_overhead_ratio", unit: "ratio", better: "lower", driver: true, on: "call-rtp"},

	// campus: the sharded runtime.
	{name: "scenario.campus_spec_ms", unit: "ms", better: "lower", on: "campus"},
	{name: "scenario.buildsharded_ms", unit: "ms", better: "lower", on: "campus"},
	{name: "scenario.fingerprint_ms", unit: "ms", better: "lower", on: "campus"},
	{name: "shard.windows", unit: "count", better: "lower", exact: true, driver: true, on: "campus"},
	{name: "shard.events_per_window", unit: "count", better: "higher", exact: true, driver: true, on: "campus"},
	{name: "shard.wall_1shard_s", unit: "s", better: "lower", on: "campus"},
	{name: "shard.speedup", unit: "ratio", better: "higher", driver: true, on: "campus"},
	{name: "shard.par_ceiling", unit: "ratio", better: "higher", driver: true, on: "campus"},
	{name: "shard.stall_share", unit: "share", better: "lower", driver: true, on: "campus"},
	{name: "shard.barrier_overhead_share", unit: "share", better: "lower", driver: true, on: "campus"},
	{name: "shard.overhead_ns_per_window", unit: "ns", better: "lower", on: "campus"},
	{name: "shard.rebalance_wall_s", unit: "s", better: "lower", on: "campus"},
	{name: "shard.migrations", unit: "count", better: "lower", exact: true, driver: true, on: "campus"},

	// suite: the parallel cell runner and the experiments.
	{name: "parallel.suite_speedup", unit: "ratio", better: "higher", driver: true, on: "suite"},
	{name: "parallel.efficiency", unit: "share", better: "higher", driver: true, on: "suite"},
	{name: "parallel.cells", unit: "count", better: "lower", exact: true, driver: true, on: "suite"},
	{name: "experiments.golden_mismatches", unit: "count", better: "lower", exact: true, driver: true, on: "suite"},
	{name: "experiments.fig4.wall_s", unit: "s", better: "lower", on: "suite"},
	{name: "experiments.fig12.wall_s", unit: "s", better: "lower", on: "suite"},
	{name: "experiments.fig15.wall_s", unit: "s", better: "lower", on: "suite"},
	{name: "experiments.fig16.wall_s", unit: "s", better: "lower", on: "suite"},
	{name: "experiments.fig22.wall_s", unit: "s", better: "lower", on: "suite"},
	{name: "experiments.ext-quic.wall_s", unit: "s", better: "lower", on: "suite"},
	{name: "experiments.chaos-matrix.wall_s", unit: "s", better: "lower", on: "suite"},
	{name: "experiments.campus-sharded.wall_s", unit: "s", better: "lower", on: "suite"},

	// relay: liveap on real sockets.
	{name: "relay_pps", unit: "1/s", better: "higher", driver: true, on: "relay-flood"},
	{name: "relay_latency_p50_us", unit: "us", better: "lower", on: "relay-flood"},
	{name: "relay_shaped_ratio", unit: "ratio", better: "higher", driver: true, on: "relay-shaped"},
	{name: "liveap.cpu_us_per_packet", unit: "us", better: "lower", on: "relay-flood"},
	{name: "liveap.plain_pps", unit: "1/s", better: "higher", driver: true, on: "relay-flood"},
	{name: "liveap.zhuge_cost_ratio", unit: "ratio", better: "lower", driver: true, on: "relay-flood"},
	{name: "liveap.latency_p99_us", unit: "us", better: "lower", on: "relay-flood"},
	{name: "liveap.latency_max_us", unit: "us", better: "lower", on: "relay-flood"},
	{name: "liveap.gen_late_max_us", unit: "us", better: "lower", on: "relay-flood"},
	{name: "liveap.feedback_age_p50_ms", unit: "ms", better: "lower", on: "relay-flood"},
	{name: "liveap.shaped_gap_us", unit: "us", better: "lower", on: "relay-shaped"},
	{name: "liveap.shaped_ratio_4mbps", unit: "ratio", better: "higher", driver: true, on: "relay-shaped"},
	{name: "liveap.delivered_share", unit: "share", better: "higher", driver: true, on: relayBoth},
	{name: "liveap.queue_drops", unit: "count", better: "lower", driver: true, on: relayBoth},
	{name: "liveap.feedback_built", unit: "count", better: "higher", driver: true, on: relayBoth},
	{name: "liveap.twcc_coverage_share", unit: "share", better: "higher", driver: true, on: relayBoth},
	{name: "liveap.client_twcc_absorbed", unit: "count", better: "higher", driver: true, on: "relay-flood"},
}

func findMetric(name string) (metricDef, bool) {
	for _, d := range endToEnd {
		if d.name == name {
			return d, true
		}
	}
	for _, d := range perLayer {
		if d.name == name {
			return d, true
		}
	}
	return metricDef{}, false
}
