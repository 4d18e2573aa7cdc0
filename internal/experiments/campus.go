package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"github.com/zhuge-project/zhuge/internal/scenario"
)

// CampusSharded runs the flagship campus workload — many APs, each serving
// a block of RTP video stations, with roamers crossing cell boundaries —
// once per shard count, static and rebalanced, and tabulates per-run
// aggregates. One topology is partitioned over 1, 2 and 4 shard simulators
// synchronized through the conservative window protocol, first left on the
// contiguous count-balanced split, then with the dynamic barrier-time
// rebalancer migrating cells off it; every metric column (and the
// fingerprint over all per-flow outputs) must be byte-identical across ALL
// rows. The golden fingerprint pins that contract: any grouping or
// migration leak shows up as rows that no longer match each other.
//
// Scale shrinks the topology with the duration (4 APs / 40 stations at the
// golden Scale 0.02; 100 APs / 1000 stations at full scale), keeping the
// workload shape — contiguous station blocks, staggered flow starts,
// cross-cell roams — at every size.
func CampusSharded(cfg Config) *Table {
	cfg = cfg.withDefaults()
	dur := cfg.dur(30*time.Second, 2*time.Second)
	aps := int(100 * cfg.Scale)
	if aps < 4 {
		aps = 4
	}
	ccfg := scenario.CampusConfig{
		APs:      aps,
		Stations: 10 * aps,
		Roams:    aps,
		Duration: dur,
		Solution: scenario.SolutionZhuge,
	}

	t := &Table{
		ID:    "campus-sharded",
		Title: fmt.Sprintf("Campus workload (%d APs, %d stations): shard-count and migration invariance", aps, 10*aps),
		Header: []string{"shards", "balancing", "cells", "windows", "events",
			"decoded", "skipped", "delivered(MB)", "fingerprint"},
	}

	for _, shards := range []int{1, 2, 4} {
		for _, rebalance := range []bool{false, true} {
			if shards == 1 && rebalance {
				continue // one shard: nowhere to migrate to
			}
			spd, err := scenario.BuildSharded(scenario.Campus(cfg.Seed, ccfg), scenario.ShardedOptions{
				Shards:    shards,
				CutDelay:  scenario.CampusCutDelay,
				Rebalance: rebalance,
			})
			if err != nil {
				panic(fmt.Sprintf("campus-sharded: %v", err))
			}
			workers := cfg.Workers
			if workers == 0 {
				workers = shards
			}
			spd.Run(dur, workers)

			var decoded, skipped int
			var delivered float64
			for _, c := range spd.Cells {
				for _, bf := range c.Path.Flows {
					if bf.RTP == nil {
						continue
					}
					decoded += bf.RTP.Decoder.Decoded
					skipped += bf.RTP.Decoder.Skipped
					delivered += bf.RTP.Metrics.DeliveredBytes
				}
			}
			label := "static"
			if rebalance {
				label = fmt.Sprintf("dynamic(%d)", spd.Rebalancer.Migrations())
			}
			sum := sha256.Sum256([]byte(spd.Fingerprint()))
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d", shards),
				label,
				fmt.Sprintf("%d", len(spd.Cells)),
				fmt.Sprintf("%d", spd.Cluster.Windows()),
				fmt.Sprintf("%d", spd.Cluster.Fired()),
				fmt.Sprintf("%d", decoded),
				fmt.Sprintf("%d", skipped),
				fmt.Sprintf("%.2f", delivered/1e6),
				hex.EncodeToString(sum[:])[:12],
			})
		}
	}
	return t
}
