package experiments

import (
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"
)

// claimSeeds is how many seeds each claim is checked at: 1 through
// claimSeeds, each on the golden configuration's scale.
const claimSeeds = 5

// claimExempt is the one verdict row of EXPERIMENTS.md's summary without a
// claim: Fig. 21's verdict rests on BenchmarkFig21* ns/packet, a host
// number, not a seeded table.
const claimExempt = "Fig. 21"

// A claim is one verdict row of EXPERIMENTS.md's summary: the row's name,
// the experiment whose table backs it, and a predicate over that table. The
// predicate returns whether the paper's claim holds and a one-line reason.
// Each predicate's comment quotes the row's "Paper's claim" cell; a
// magnitude the paper gives as a range becomes a direction, one it gives as
// a bound stays a bound, so a result stronger than the paper's passes.
type claim struct {
	row, exp string
	holds    func(t *Table) (bool, string)
}

var claims = []claim{
	// "wireless median RTT fine, P99 ≥ 4× worse than Ethernet; 2× video
	// lag, 10× stalls": the WiFi RTT tail exceeds Ethernet's.
	{"Fig. 2", "fig2", func(t *Table) (bool, string) {
		rows := rowsBy(t, 1)
		wifi, eth := val(rows, "WiFi", 3), val(rows, "Ethernet", 3)
		return wifi > eth, fmt.Sprintf("P(rtt>200ms) WiFi %.2f%% vs Ethernet %.2f%%", wifi, eth)
	}},
	// "queue builds in ~1 control loop after a drop, drains over kτ": the
	// queue grows more than 10 KB above where it starts.
	{"Fig. 3a", "fig3a", func(t *Table) (bool, string) {
		maxKB, atStart := 0.0, 0.0
		for i, r := range t.Rows {
			kb := parseNum(r[1])
			if i == 0 {
				atStart = kb
			}
			if kb > maxKB {
				maxKB = kb
			}
		}
		return maxKB > atStart+10, fmt.Sprintf("queue %.1f KB at start, %.1f KB at most", atStart, maxKB)
	}},
	// "0.6–7.3% of 200 ms windows drop >10× on wireless, <0.1% wired":
	// Ethernet stays under 0.1 % and every wireless trace lies above it.
	{"Fig. 3b", "fig3b", func(t *Table) (bool, string) {
		rows := rowsBy(t, 1)
		eth := val(rows, "ethernet", 7)
		if !(eth < 0.1) {
			return false, fmt.Sprintf("Ethernet P(>10x) %.2f%%", eth)
		}
		for _, r := range t.Rows {
			if w := parseNum(r[7]); r[0] != "ethernet" && !(w > eth) {
				return false, fmt.Sprintf("%s P(>10x) %.2f%%, not above Ethernet's %.2f%%", r[0], w, eth)
			}
		}
		return true, fmt.Sprintf("every wireless trace above Ethernet's %.2f%%", eth)
	}},
	// "all CCAs suffer seconds of RTT degradation at k ≥ 10; CoDel helps
	// loss-sensitive CCAs most": every CCA behind FIFO degrades at least
	// 1 s at each k ≥ 10, and CoDel removes a larger share of CUBIC's
	// degradation (summed over those k) than of any other CCA's.
	{"Fig. 4", "fig4", func(t *Table) (bool, string) {
		rows := rowsBy(t, 3)
		ccas := []string{"cubic", "bbr", "copa", "gcc"}
		share := map[string]float64{}
		for _, cca := range ccas {
			var fifo, codel float64
			for _, k := range []string{"10x", "20x", "50x"} {
				f := val(rows, cca+"/fifo/"+k, 3)
				if !(f >= 1) {
					return false, fmt.Sprintf("%s+FIFO degrades %.2fs at k=%s", cca, f, k)
				}
				fifo += f
				codel += val(rows, cca+"/codel/"+k, 3)
			}
			share[cca] = codel / fifo
		}
		for _, cca := range ccas[1:] {
			if !(share["cubic"] < share[cca]) {
				return false, fmt.Sprintf("CoDel keeps %.0f%% of CUBIC's degradation, %.0f%% of %s's", 100*share["cubic"], 100*share[cca], cca)
			}
		}
		return true, fmt.Sprintf("CoDel keeps %.0f%% of CUBIC's degradation, more of every other CCA's", 100*share["cubic"])
	}},
	// "qShort reacts within ms of the drop; qLong takes over as the queue
	// builds": 3 ms after the drop qShort is above its pre-drop value, and
	// by 25 ms the total prediction is more than twice its pre-drop value.
	// Row index is the millisecond.
	{"Fig. 7", "fig7", func(t *Table) (bool, string) {
		get := func(row, col int) float64 { return parseNum(t.Rows[row][col]) }
		if pre, post := get(4, 2), get(8, 2); !(post > pre) {
			return false, fmt.Sprintf("qShort did not react: %.2f -> %.2f ms", pre, post)
		}
		pre, late := get(4, 4), get(25, 4)
		return late >= 2*pre+1, fmt.Sprintf("total prediction %.2f -> %.2f ms", pre, late)
	}},
	// "Zhuge cuts P(RTT>200 ms) 45–75% vs best baseline; delayed frames
	// −38–92%": Gcc+Zhuge's RTT tail is at most the better of Gcc+FIFO's
	// and Gcc+CoDel's on all but one trace.
	{"Fig. 11", "fig11", func(t *Table) (bool, string) {
		rows := rowsBy(t, 2)
		var lost []string
		for _, tr := range traceNames(t) {
			best := math.Min(val(rows, tr+"/Gcc+FIFO", 2), val(rows, tr+"/Gcc+CoDel", 2))
			if !(val(rows, tr+"/Gcc+Zhuge", 2) <= best) {
				lost = append(lost, tr)
			}
		}
		return len(lost) <= 1, fmt.Sprintf("Zhuge loses the RTT tail on %d of %d traces %v", len(lost), len(traceNames(t)), lost)
	}},
	// "Copa+Zhuge beats Copa/FastAck on tails; ABC comparable, not
	// deployable": on every trace Copa+Zhuge's RTT tail is at most Copa's
	// and Copa+FastAck's.
	{"Fig. 12", "fig12", func(t *Table) (bool, string) {
		rows := rowsBy(t, 2)
		for _, tr := range traceNames(t) {
			z := val(rows, tr+"/Copa+Zhuge", 2)
			copa, fast := val(rows, tr+"/Copa", 2), val(rows, tr+"/Copa+FastAck", 2)
			if !(z <= copa && z <= fast) {
				return false, fmt.Sprintf("%s: Copa+Zhuge %.2f%% vs Copa %.2f%%, Copa+FastAck %.2f%%", tr, z, copa, fast)
			}
		}
		return true, "Copa+Zhuge's RTT tail at most Copa's and Copa+FastAck's on every trace"
	}},
	// "Zhuge reduces tails at every percentile on W1/C1": in every RTT and
	// frame-delay percentile column, Gcc+Zhuge is below Gcc+FIFO on both
	// traces.
	{"Fig. 13", "fig13", func(t *Table) (bool, string) {
		rows := rowsBy(t, 2)
		for _, tr := range traceNames(t) {
			for col := 2; col <= 6; col++ {
				z, fifo := val(rows, tr+"/Gcc+Zhuge", col), val(rows, tr+"/Gcc+FIFO", col)
				if !(z < fifo) {
					return false, fmt.Sprintf("%s %s: Zhuge %gms vs FIFO %gms", tr, t.Header[col], z, fifo)
				}
			}
		}
		return true, "Zhuge below FIFO at every percentile on both traces"
	}},
	// "Zhuge cuts RTP degradation ≥ 50% across k": Gcc+Zhuge's RTT
	// degradation is shorter than Gcc+FIFO's in 2 of the 3 mid-range drops
	// (k = 5, 10, 20).
	{"Fig. 14", "fig14", func(t *Table) (bool, string) {
		rows := rowsBy(t, 2)
		better := 0
		for _, k := range []string{"5x", "10x", "20x"} {
			if val(rows, "Gcc+Zhuge/"+k, 2) < val(rows, "Gcc+FIFO/"+k, 2) {
				better++
			}
		}
		return better >= 2, fmt.Sprintf("Zhuge shorter in %d/3 mid-range drops", better)
	}},
	// "Copa+Zhuge −14–64% for k<30; bounded by RTO for k ≥ 30; ABC wins at
	// large k": at every k < 30 where Copa degrades, Copa+Zhuge degrades
	// for less time, and at k = 50 ABC degrades least of the four.
	{"Fig. 15", "fig15", func(t *Table) (bool, string) {
		rows := rowsBy(t, 2)
		for _, k := range []string{"2x", "5x", "10x", "20x"} {
			copa, z := val(rows, "Copa/"+k, 2), val(rows, "Copa+Zhuge/"+k, 2)
			if copa > 0 && !(z < copa) {
				return false, fmt.Sprintf("k=%s: Copa+Zhuge %.2fs vs Copa %.2fs", k, z, copa)
			}
		}
		abc := val(rows, "ABC/50x", 2)
		for _, sol := range []string{"Copa", "Copa+FastAck", "Copa+Zhuge"} {
			if o := val(rows, sol+"/50x", 2); !(abc <= o) {
				return false, fmt.Sprintf("k=50x: ABC %.2fs vs %s %.2fs", abc, sol, o)
			}
		}
		return true, fmt.Sprintf("Copa+Zhuge shorter than Copa below k=30; ABC %.2fs at k=50x", abc)
	}},
	// "Zhuge cuts degradation under CUBIC competition by up to 40%": at
	// every count of competing flows, Gcc+Zhuge's RTT degradation is
	// shorter than Gcc+FIFO's.
	{"Fig. 16", "fig16", func(t *Table) (bool, string) {
		rows := rowsBy(t, 2)
		for _, n := range []string{"10", "20", "30", "40"} {
			z, fifo := val(rows, "Gcc+Zhuge/"+n, 2), val(rows, "Gcc+FIFO/"+n, 2)
			if !(z < fifo) {
				return false, fmt.Sprintf("%s flows: Zhuge %.2fs vs FIFO %.2fs", n, z, fifo)
			}
		}
		return true, "Zhuge shorter than FIFO at every competitor count"
	}},
	// "Zhuge cuts degradation frequency ≥ 50% under interference": at
	// every interferer count, Gcc+Zhuge's P(rtt>200ms) is at most half of
	// Gcc+FIFO's.
	{"Fig. 17", "fig17", func(t *Table) (bool, string) {
		rows := rowsBy(t, 2)
		for _, n := range []string{"5", "10", "20", "30", "40"} {
			z, fifo := val(rows, "Gcc+Zhuge/"+n, 2), val(rows, "Gcc+FIFO/"+n, 2)
			if !(z <= fifo/2) {
				return false, fmt.Sprintf("%s interferers: Zhuge %.2f%% vs FIFO %.2f%%", n, z, fifo)
			}
		}
		return true, "Zhuge at most half of FIFO at every interferer count"
	}},
	// "17–95% RTT and 9–67% frame-delay improvements; bitrate parity": in
	// every scenario Gcc+Zhuge's RTT and frame-delay tails are no worse
	// than Gcc+FIFO's, and its bitrate is at least 90% of FIFO's.
	{"Fig. 18", "fig18", func(t *Table) (bool, string) {
		rows := rowsBy(t, 2)
		for _, sc := range []string{"scp", "mcs", "raw"} {
			for col := 2; col <= 4; col++ {
				z, fifo := val(rows, sc+"/Gcc+Zhuge", col), val(rows, sc+"/Gcc+FIFO", col)
				if col < 4 && !(z <= fifo) || col == 4 && !(z >= 0.9*fifo) {
					return false, fmt.Sprintf("%s %s: Zhuge %g vs FIFO %g", sc, t.Header[col], z, fifo)
				}
			}
		}
		return true, "Zhuge's tails no worse than FIFO's at bitrate parity in every scenario"
	}},
	// "predictions accurate at low delays; high predictions imprecise but
	// already above the reaction threshold": of the predictions under
	// 16 ms, at least 90% land on a real delay under 16 ms; of those at
	// 64 ms and above, most land on a real delay of 64 ms or more.
	{"Fig. 19", "fig19", func(t *Table) (bool, string) {
		heat := map[string][]float64{}
		for _, r := range t.Rows {
			if strings.HasPrefix(r[0], "pred") {
				for _, f := range strings.Fields(r[1]) {
					heat[r[0]] = append(heat[r[0]], parseNum(f))
				}
			}
		}
		share := func(row string, from, to int) float64 {
			s := 0.0
			for _, f := range heat[row][from:to] {
				s += f
			}
			return s
		}
		for _, row := range []string{"pred<1ms:", "pred<4ms:", "pred<16ms:"} {
			if len(heat[row]) != 6 || !(share(row, 0, 3) >= 0.9) {
				return false, fmt.Sprintf("%s %v real under 16ms", row, heat[row])
			}
		}
		for _, row := range []string{"pred<256ms:", "pred>=256ms:"} {
			if len(heat[row]) != 6 || !(share(row, 4, 6) > 0.5) {
				return false, fmt.Sprintf("%s %v real at 64ms or more", row, heat[row])
			}
		}
		return true, "low predictions land low, high ones land high"
	}},
	// "internal & external bitrate fairness unaffected (<3% diff)": with
	// one of two flows optimised (bar b), the goodput difference is at most
	// 20% for each protocol.
	{"Fig. 20", "fig20", func(t *Table) (bool, string) {
		for _, r := range t.Rows {
			if r[1] == "b(one)" && !(parseNum(r[6]) <= 20) {
				return false, fmt.Sprintf("%s bar b goodput difference %s", r[0], r[6])
			}
		}
		return true, "bar b goodput difference at most 20% for each protocol"
	}},
	// "Zhuge lowest (or near-lowest) stall ratio": on every trace
	// Gcc+Zhuge's P(fps<10) is the lowest, ties included.
	{"Fig. 22", "fig22", func(t *Table) (bool, string) {
		rows := rowsBy(t, 2)
		for _, r := range t.Rows {
			if z := val(rows, r[0]+"/Gcc+Zhuge", 2); !(z <= parseNum(r[2])) {
				return false, fmt.Sprintf("%s: Gcc+Zhuge %.2f%% vs %s %s", r[0], z, r[1], r[2])
			}
		}
		return true, "Gcc+Zhuge lowest or tied on every trace"
	}},
	// "on ABC's old low-bandwidth traces, ABC best, Zhuge comparable, both
	// ≫ Copa": on the RTT tail, ABC < Copa+Zhuge < Copa.
	{"Table 3", "table3", func(t *Table) (bool, string) {
		rows := rowsBy(t, 1)
		abc, z, copa := val(rows, "ABC", 1), val(rows, "Copa+Zhuge", 1), val(rows, "Copa", 1)
		return abc < z && z < copa, fmt.Sprintf("P(rtt>200ms) ABC %.2f%%, Copa+Zhuge %.2f%%, Copa %.2f%%", abc, z, copa)
	}},
}

// parseNum reads a table cell as a number: a duration ("45ms", "1.017s")
// in milliseconds, a percentage in percent. A cell that is not a number
// reads NaN, which fails every comparison.
func parseNum(s string) float64 {
	s = strings.TrimSpace(s)
	if d, err := time.ParseDuration(s); err == nil {
		return float64(d) / float64(time.Millisecond)
	}
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		return math.NaN()
	}
	return v
}

// rowsBy indexes table rows by the first n columns joined with "/".
func rowsBy(t *Table, n int) map[string][]string {
	m := make(map[string][]string)
	for _, r := range t.Rows {
		if len(r) >= n {
			m[strings.Join(r[:n], "/")] = r
		}
	}
	return m
}

// val reads column col of the row keyed key as parseNum does; a missing
// row or column reads NaN.
func val(rows map[string][]string, key string, col int) float64 {
	r := rows[key]
	if col >= len(r) {
		return math.NaN()
	}
	return parseNum(r[col])
}

// traceNames lists the distinct first-column values of t in row order.
func traceNames(t *Table) []string {
	var names []string
	for _, r := range t.Rows {
		if len(names) == 0 || names[len(names)-1] != r[0] {
			names = append(names, r[0])
		}
	}
	return names
}

// verdict is the summary symbol for a claim that holds at k of claimSeeds
// seeds.
func verdict(k int) string {
	switch k {
	case claimSeeds:
		return "✅"
	case 0:
		return "❌"
	}
	return "🔶"
}

// docVerdict is one verdict row of EXPERIMENTS.md's summary table.
type docVerdict struct {
	line int
	cell string
}

// summaryVerdicts reads the rows of EXPERIMENTS.md's "Summary" table whose
// verdict cell starts with a verdict symbol, keyed by the row's name.
func summaryVerdicts(t *testing.T) map[string]docVerdict {
	raw, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]docVerdict{}
	in := false
	for i, text := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(text, "## ") {
			in = text == "## Summary"
			continue
		}
		cells := strings.Split(text, "|")
		if !in || len(cells) != 6 {
			continue
		}
		v := strings.TrimSpace(cells[4])
		for _, sym := range []string{"✅", "🔶", "❌"} {
			if strings.HasPrefix(v, sym) {
				rows[strings.TrimSpace(cells[1])] = docVerdict{i + 1, v}
			}
		}
	}
	return rows
}

// TestClaims checks every claim at seeds 1 to claimSeeds on the golden
// configuration's scale and holds EXPERIMENTS.md's verdict column to the
// result: each claim's row must start with its symbol (✅ at every seed,
// ❌ at none, 🔶 between) and the count, as in "🔶 3/5 — note". Every
// verdict row must have a claim, save claimExempt. To change a verdict on
// purpose, edit its cell to what the failure message computes.
func TestClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every claimed experiment at five seeds")
	}
	doc := summaryVerdicts(t)
	for _, c := range claims {
		c := c
		t.Run(c.row, func(t *testing.T) {
			t.Parallel()
			e := ByID(c.exp)
			if e == nil {
				t.Fatalf("no experiment %q", c.exp)
			}
			var failed []string
			for seed := int64(1); seed <= claimSeeds; seed++ {
				if ok, why := c.holds(goldenTable(*e, seed, 1)); !ok {
					failed = append(failed, fmt.Sprintf("seed %d: %s", seed, why))
				}
			}
			k := claimSeeds - len(failed)
			want := fmt.Sprintf("%s %d/%d", verdict(k), k, claimSeeds)
			got := want
			if len(failed) > 0 {
				got += "; fails at " + strings.Join(failed, "; ")
			}
			t.Log(got)
			d, ok := doc[c.row]
			switch {
			case !ok:
				t.Errorf("EXPERIMENTS.md: no summary verdict row %q; computed %s", c.row, got)
			case !strings.HasPrefix(d.cell, want):
				t.Errorf("EXPERIMENTS.md:%d: %s verdict %q, computed %s", d.line, c.row, d.cell, got)
			}
		})
	}
	named := map[string]bool{claimExempt: true}
	for _, c := range claims {
		named[c.row] = true
	}
	if _, ok := doc[claimExempt]; !ok {
		t.Errorf("EXPERIMENTS.md: exempt row %q has no verdict", claimExempt)
	}
	for row, d := range doc {
		if !named[row] {
			t.Errorf("EXPERIMENTS.md:%d: verdict row %q has no claim", d.line, row)
		}
	}
}
