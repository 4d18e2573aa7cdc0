package scenario

import (
	"fmt"
	"strings"
	"time"

	"github.com/zhuge-project/zhuge/internal/sim"
	"github.com/zhuge-project/zhuge/internal/trace"
)

// CampusConfig parameterises the campus/stadium flagship workload: many
// APs on separate channels, each serving a block of stations with RTP
// video calls, with a slice of the stations roaming to the next AP over
// the run and back. It is the scale the sharded runtime exists for — one
// topology far bigger than one core — while staying a plain Spec that
// BuildSharded (or Build, for small instances) consumes.
type CampusConfig struct {
	APs      int           // default 100
	Stations int           // total, split contiguously over the APs; default 1000
	Roams    int           // stations that roam to the next AP and back; default Stations/10
	Duration time.Duration // trace length; default 30s
	Solution Solution      // per-AP mechanism; zero value is SolutionNone (plain FIFO APs)
}

func (c CampusConfig) withDefaults() CampusConfig {
	if c.APs == 0 {
		c.APs = 100
	}
	if c.Stations == 0 {
		c.Stations = 1000
	}
	if c.Roams == 0 {
		c.Roams = c.Stations / 10
	}
	if c.Duration == 0 {
		c.Duration = 30 * time.Second
	}
	return c
}

// Campus generates the campus Spec. Everything derives from (seed, label)
// pairs — per-AP traces, flow start stagger, roam times — so the Spec is a
// pure function of (seed, cfg) and the golden-table discipline applies.
func Campus(seed int64, cfg CampusConfig) Spec {
	cfg = cfg.withDefaults()
	sp := Spec{Seed: seed}
	for i := 0; i < cfg.APs; i++ {
		name := fmt.Sprintf("ap%03d", i)
		tr := trace.Generate(trace.OfficeWiFi(), cfg.Duration,
			sim.LabeledRand(seed, "campus/"+name))
		sp.APs = append(sp.APs, APSpec{
			Name: name, Trace: tr, Solution: cfg.Solution,
		})
	}
	// Stations in contiguous blocks: station i serves AP i*APs/Stations,
	// matching the contiguous shard partition so most stations stay on
	// their shard even as neighbours roam. Every fourth station gets its
	// own per-station queue (the 802.11 per-STA model); the rest share
	// the AP's main queue.
	for i := 0; i < cfg.Stations; i++ {
		ap := i * cfg.APs / cfg.Stations
		sp.Stations = append(sp.Stations, StationSpec{
			Name:     fmt.Sprintf("sta%04d", i),
			AP:       sp.APs[ap].Name,
			OwnQueue: i%4 == 0,
		})
		// One RTP video call per station, starts staggered across the
		// first second so frame ticks never align campus-wide.
		sp.Flows = append(sp.Flows, FlowSpec{
			Kind:    "rtp",
			Station: fmt.Sprintf("sta%04d", i),
			StartAt: time.Duration(i*37%997) * time.Millisecond,
		})
	}
	// The first Roams stations (spread over the APs by the contiguous
	// block layout) roam to the next AP a third into the run and return
	// two thirds in, with staggered instants so no barrier action herd
	// forms. Migrate keeps their feedback loops warm across the roam.
	for r := 0; r < cfg.Roams && r < cfg.Stations; r++ {
		i := r * cfg.Stations / cfg.Roams // spread roamers across all blocks
		home := i * cfg.APs / cfg.Stations
		next := (home + 1) % cfg.APs
		if next == home {
			continue // single-AP campus: nowhere to roam
		}
		sta := fmt.Sprintf("sta%04d", i)
		out := cfg.Duration/3 + time.Duration(r*53%499)*time.Millisecond
		back := 2*cfg.Duration/3 + time.Duration(r*71%499)*time.Millisecond
		sp.Handovers = append(sp.Handovers,
			HandoverSpec{Station: sta, To: sp.APs[next].Name, At: out, Policy: HandoverMigrate},
			HandoverSpec{Station: sta, To: sp.APs[home].Name, At: back, Policy: HandoverMigrate},
		)
	}
	return sp
}

// CampusCutDelay is the inter-AP backhaul delay campus runs use: two
// switched-Ethernet hops across a campus distribution layer. As the
// cluster lookahead it grants 2ms windows — hundreds of events per shard
// per window at campus load — but only while a visit is live: a cut edge
// bounds the windows from the roam out that arms it until the visit has
// drained after the return, and the stretches no roam touches run in one
// window per barrier action.
const CampusCutDelay = 2 * time.Millisecond

// Fingerprint renders every per-flow output of the sharded run into one
// deterministic string: the byte-identity surface the `-shards 1` versus
// `-shards 8` gate compares. It covers each flow's RTT distribution,
// delivered bytes, frame counts, and the cluster's total event count —
// anything that could diverge if parallel windows leaked.
func (spd *ShardedPath) Fingerprint() string {
	var b strings.Builder
	for _, c := range spd.Cells {
		for _, bf := range c.Path.Flows {
			fmt.Fprintf(&b, "cell=%s flow=%s", c.Label, bf.Spec.Kind)
			switch {
			case bf.RTP != nil:
				fmt.Fprintf(&b, " key=%s decoded=%d skipped=%d",
					bf.RTP.Flow, bf.RTP.Decoder.Decoded, bf.RTP.Decoder.Skipped)
			case bf.TCP != nil:
				fmt.Fprintf(&b, " key=%s sent=%d dropped=%d",
					bf.TCP.Flow, bf.TCP.FramesSent, bf.TCP.FramesDropped)
			case bf.QUIC != nil:
				fmt.Fprintf(&b, " key=%s", bf.QUIC.Flow)
			case bf.Bulk != nil:
				fmt.Fprintf(&b, " key=%s acked=%d", bf.Bulk.Flow, bf.Bulk.Sender.Acked())
			}
			if m := bf.Metrics(); m != nil {
				fmt.Fprintf(&b, " rtt_n=%d rtt_mean=%d rtt_p50=%d rtt_p99=%d rtt_max=%d delivered=%.0f",
					m.RTT.Count(), int64(m.RTT.Mean()), int64(m.RTT.Quantile(0.50)),
					int64(m.RTT.Quantile(0.99)), int64(m.RTT.Max()), m.DeliveredBytes)
			}
			b.WriteByte('\n')
		}
	}
	fmt.Fprintf(&b, "events=%d\n", spd.Cluster.Fired())
	return b.String()
}
