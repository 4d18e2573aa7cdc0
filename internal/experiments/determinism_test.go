package experiments

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/zhuge-project/zhuge/internal/parallel"
	"github.com/zhuge-project/zhuge/internal/scenario"
	"github.com/zhuge-project/zhuge/internal/trace"
)

// TestParallelismIsInvisible is the contract behind the -j flag: every
// experiment renders byte-identical tables whether its cells run
// sequentially or across 8 workers. Cell randomness derives only from
// (Seed, label) pairs, so scheduling must never leak into results. The
// tables come from goldenTable, so the golden test reuses these runs.
func TestParallelismIsInvisible(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment twice")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			seq := goldenTable(e, 1, 1).String()
			par := goldenTable(e, 1, 8).String()
			if seq != par {
				t.Errorf("rendered table differs between -j 1 and -j 8:\n--- j=1 ---\n%s\n--- j=8 ---\n%s", seq, par)
			}
		})
	}
}

// TestSameTickCellsAreParallelInvisible is the determinism regression test
// for same-instant events. Each cell runs three RTP flows with an identical
// frame cadence starting at the same instant, so encoder ticks, pacer events
// and link deliveries from independent components pile onto shared
// timestamps, and ties are broken by (time, seq) alone. The per-cell
// fingerprints must be byte-identical sequentially and under 8 workers.
func TestSameTickCellsAreParallelInvisible(t *testing.T) {
	const cells = 8
	runCell := func(seed int64) string {
		dur := 2 * time.Second
		tr := trace.Constant("same-tick", 30e6, dur)
		p := oneAP(Config{Seed: seed}, nil, 0, scenario.APSpec{Trace: tr, Solution: scenario.SolutionZhuge}).Build()
		var flows []*scenario.RTPFlow
		for i := 0; i < 3; i++ {
			flows = append(flows, p.AddFlow(scenario.FlowSpec{Kind: "rtp", FPS: 25}).RTP)
		}
		p.Run(dur)
		var sb strings.Builder
		for i, f := range flows {
			fmt.Fprintf(&sb, "%d:%.0f:%.3f;", i, f.Metrics.DeliveredBytes, f.Metrics.RTT.Quantile(0.99).Seconds())
		}
		return sb.String()
	}
	run := func(workers int) []string {
		out := make([]string, cells)
		parallel.Map(workers, cells, func(i int) { out[i] = runCell(int64(i + 1)) })
		return out
	}
	seq := run(1)
	par := run(8)
	for i := range seq {
		if seq[i] == "" {
			t.Fatalf("cell %d produced an empty fingerprint", i)
		}
		if seq[i] != par[i] {
			t.Errorf("cell %d differs between -j 1 and -j 8:\nj=1: %s\nj=8: %s", i, seq[i], par[i])
		}
	}
}

// TestTableStringRaggedRows pins the width-panic fix: rows wider or narrower
// than the header must render without panicking, padded to the widest row.
func TestTableStringRaggedRows(t *testing.T) {
	tab := &Table{
		ID:     "x",
		Title:  "ragged",
		Header: []string{"a", "b"},
		Rows: [][]string{
			{"1"},
			{"1", "2", "3", "wider-than-header"},
		},
	}
	out := tab.String()
	if out == "" {
		t.Fatal("empty rendering")
	}
	var sb strings.Builder
	if err := tab.WriteCSV(&sb); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
}
