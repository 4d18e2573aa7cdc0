package main

import (
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/zhuge-project/zhuge/internal/scenario"
	"github.com/zhuge-project/zhuge/internal/trace"
)

// TestCheckFlags pins the up-front validation: every enumerated flag either
// passes or fails with one line naming the flag and what it accepts, and a
// flag the chosen mode never reads is refused rather than ignored — all
// before anything is built.
func TestCheckFlags(t *testing.T) {
	type c struct {
		proto, cca, solution, qdisc string
		aps                         int
		campus                      int
		every                       time.Duration
		set                         string // space-separated names given on the command line
		want                        string // substring of the error; "" = accepted
	}
	const ms = 100 * time.Millisecond
	cases := []c{
		{"rtp", "", "none", "fifo", 1, 0, ms, "", ""}, // the flag defaults
		{"rtp", "nada", "zhuge", "codel", 2, 0, ms, "proto cca solution qdisc aps", ""},
		{"rtp", "gcc", "abc", "fqcodel", 3, 0, ms, "", ""},
		{"tcp", "bbr", "fastack", "fifo", 1, 0, ms, "", ""},
		{"tcp", "abc", "abc", "fifo", 1, 0, ms, "", ""},
		{"quic", "pcc", "zhuge", "fifo", 1, 0, ms, "", ""},

		{"rtp", "", "none", "fifo", 0, 0, ms, "", "bad -aps 0 (want at least 1)"},
		{"rtp", "", "none", "fifo", -3, 0, ms, "", "bad -aps -3"},
		{"rtp", "", "bogus", "fifo", 1, 0, ms, "", `bad -solution "bogus" (want none|zhuge|fastack|abc)`},
		{"rtp", "", "none", "bogus", 1, 0, ms, "", `bad -qdisc "bogus" (want fifo|codel|fqcodel)`},
		{"bogus", "", "none", "fifo", 1, 0, ms, "", `bad -proto "bogus" (want rtp|tcp|quic)`},
		{"tcp", "bogus", "none", "fifo", 1, 0, ms, "", `bad -cca "bogus" for -proto tcp (want copa|cubic|bbr|abc)`},
		{"tcp", "pcc", "none", "fifo", 1, 0, ms, "", `bad -cca "pcc" for -proto tcp`},
		{"quic", "gcc", "none", "fifo", 1, 0, ms, "", `bad -cca "gcc" for -proto quic (want copa|cubic|bbr|abc|pcc)`},
		{"rtp", "copa", "none", "fifo", 1, 0, ms, "", `bad -cca "copa" for -proto rtp (want gcc|nada)`},

		// The flags both modes read pass in either.
		{"rtp", "", "none", "fifo", 1, 4, ms, "campus shards rebalance profile-out j dur seed series-out stats pprof", ""},
		{"rtp", "", "none", "fifo", 1, 0, ms, "dur seed series-out series-every pprof trace-out metrics", ""},
		// The sampling interval must tick.
		{"rtp", "", "none", "fifo", 1, 0, 0, "series-out series-every", "bad -series-every 0s (want a positive interval)"},
		{"rtp", "", "none", "fifo", 1, 0, -ms, "series-every", "bad -series-every -100ms"},
	}
	// A flag of the other mode is refused, whichever it is (-stats among
	// them: a single-path run ends before anyone could read the plane).
	for _, name := range singlePathFlags {
		cases = append(cases, c{"rtp", "", "none", "fifo", 1, 4, ms, "campus " + name,
			"-" + name + " applies to a single-path run, not to -campus"})
	}
	for _, name := range campusFlags {
		cases = append(cases, c{"rtp", "", "none", "fifo", 1, 0, ms, name, "-" + name + " needs -campus"})
	}
	for _, c := range cases {
		set := map[string]bool{}
		for _, name := range strings.Fields(c.set) {
			set[name] = true
		}
		checkErr(t, c, checkFlags(c.proto, c.cca, c.solution, c.qdisc, "", c.aps, c.campus, time.Minute, c.every, set), c.want)
	}
	// -series-out writes two forms, chosen by name like -trace-out; the .csv
	// name that once chose a third is refused in either mode.
	for _, c := range []struct {
		seriesOut string
		campus    int
		want      string
	}{
		{"s.jsonl", 0, ""},
		{"s.json", 4, ""},
		{"csv", 0, ""},
		{"s.csv", 0, `bad -series-out "s.csv" (writes .jsonl as JSON lines, any other name as Chrome trace_event JSON`},
		{"out/s.csv", 4, `bad -series-out "out/s.csv"`},
	} {
		checkErr(t, c, checkFlags("rtp", "", "none", "fifo", c.seriesOut, 1, c.campus, time.Minute, ms, nil), c.want)
	}
	// Both modes read -dur and divide by it; a negative -campus is not "off".
	for _, c := range []struct {
		campus int
		dur    time.Duration
		want   string
	}{
		{0, time.Second, ""},
		{4, time.Second, ""},
		{0, 0, "bad -dur 0s (want a positive duration)"},
		{4, -5 * time.Second, "bad -dur -5s"},
		{-1, time.Second, "bad -campus -1 (want a positive AP count)"},
	} {
		checkErr(t, c, checkFlags("rtp", "", "none", "fifo", "", 1, c.campus, c.dur, ms, nil), c.want)
	}
}

// checkErr compares a validation result with the wanted substring ("" =
// accepted); every refusal is one line.
func checkErr(t *testing.T, c any, err error, want string) {
	t.Helper()
	switch {
	case want == "" && err != nil:
		t.Errorf("%+v: rejected: %v", c, err)
	case want != "" && err == nil:
		t.Errorf("%+v: accepted, want an error containing %q", c, want)
	case want != "" && !strings.Contains(err.Error(), want):
		t.Errorf("%+v: error %q, want it to contain %q", c, err, want)
	case err != nil && strings.Contains(err.Error(), "\n"):
		t.Errorf("%+v: error spans lines: %q", c, err)
	}
}

// TestSinglePathSpec reads the step from parsed flags to the declared
// scenario without running a simulator.
func TestSinglePathSpec(t *testing.T) {
	// The flag defaults.
	def := pathFlags{
		trace: "w1", proto: "rtp", solution: "none", qdisc: "fifo",
		dur: 2 * time.Minute, seed: 1, aps: 1, handoverPolicy: "migrate",
	}
	with := func(edit func(*pathFlags)) pathFlags {
		f := def
		edit(&f)
		return f
	}

	sp, err := singlePathSpec(def)
	if err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
	if len(sp.APs) != 1 || sp.APs[0].Name != "ap0" || sp.APs[0].Trace == nil || sp.APs[0].Qdisc != "fifo" ||
		sp.APs[0].Solution != scenario.SolutionNone || sp.Seed != 1 || len(sp.Handovers) != 0 {
		t.Errorf("defaults: unexpected spec %+v", sp)
	}
	if want := []scenario.FlowSpec{{Kind: "rtp"}}; !slices.Equal(sp.Flows, want) {
		t.Errorf("defaults: flows %+v, want %+v", sp.Flows, want)
	}

	// Roams go round-robin across the APs and back, and only the RTP sender
	// is told to read feedback holes as losses.
	for _, proto := range []string{"rtp", "tcp", "quic"} {
		sp, err := singlePathSpec(with(func(f *pathFlags) {
			f.proto, f.aps, f.solution = proto, 3, "zhuge"
			f.handoverAt, f.handoverPolicy = "1s, 2s,3s", "reset"
		}))
		if err != nil {
			t.Fatalf("%s roams rejected: %v", proto, err)
		}
		var to []string
		for i, h := range sp.Handovers {
			to = append(to, h.To)
			if h.Station != scenario.DefaultStation || h.At != time.Duration(i+1)*time.Second || h.Policy != scenario.HandoverReset {
				t.Errorf("%s roam %d: %+v", proto, i, h)
			}
		}
		if want := []string{"ap1", "ap2", "ap0"}; !slices.Equal(to, want) {
			t.Errorf("%s roam targets %v, want %v", proto, to, want)
		}
		if got := sp.Flows[0].GapLoss; got != (proto == "rtp") {
			t.Errorf("%s with roams: GapLoss %v", proto, got)
		}
		if sp.APs[2].Name != "ap2" || sp.APs[2].Solution != scenario.SolutionZhuge {
			t.Errorf("%s: third AP %+v", proto, sp.APs[2])
		}
	}

	// Each AP draws its own realisation of a generated profile; a constant
	// trace repeats.
	rates := func(tr *trace.Trace) (out []float64) {
		for _, s := range tr.Samples {
			out = append(out, s.Rate)
		}
		return out
	}
	for name, differ := range map[string]bool{"w1": true, "const20": false} {
		sp, err := singlePathSpec(with(func(f *pathFlags) { f.trace, f.aps, f.dur = name, 2, 10*time.Second }))
		if err != nil {
			t.Fatalf("-trace %s -aps 2 rejected: %v", name, err)
		}
		if got := !slices.Equal(rates(sp.APs[0].Trace), rates(sp.APs[1].Trace)); got != differ {
			t.Errorf("-trace %s: AP traces differ = %v, want %v", name, got, differ)
		}
	}

	// Competitors first, so the measured flow is p.Flows[bulk].
	sp, err = singlePathSpec(with(func(f *pathFlags) { f.proto, f.cca, f.bulk = "tcp", "bbr", 2 }))
	if err != nil {
		t.Fatalf("-bulk 2 rejected: %v", err)
	}
	if want := []scenario.FlowSpec{{Kind: "bulk"}, {Kind: "bulk"}, {Kind: "tcp", CCA: "bbr"}}; !slices.Equal(sp.Flows, want) {
		t.Errorf("-bulk 2: flows %+v, want %+v", sp.Flows, want)
	}

	// What the run would ignore, never reach or panic on is refused.
	for _, c := range []struct {
		name string
		edit func(*pathFlags)
		want string
	}{
		{"-bulk -1", func(f *pathFlags) { f.bulk = -1 }, "bad -bulk -1 (want 0 or more)"},
		{"-interferers -3", func(f *pathFlags) { f.interferers = -3 }, "bad -interferers -3 (want 0 or more)"},
		{"-handover-policy bogus", func(f *pathFlags) { f.handoverPolicy = "bogus" },
			`bad -handover-policy "bogus" (want migrate|reset)`},
		{"-handover-at 1s", func(f *pathFlags) { f.handoverAt = "1s" }, "-handover-at needs -aps > 1"},
		{"-aps 2 -handover-at soon", func(f *pathFlags) { f.aps, f.handoverAt = 2, "soon" }, `bad -handover-at entry "soon"`},
		{"-aps 2 -handover-at -1s", func(f *pathFlags) { f.aps, f.handoverAt = 2, "-1s" },
			`bad -handover-at entry "-1s" (want a time in [0s, -dur 2m0s))`},
		{"-aps 2 -handover-at 5s -dur 2s", func(f *pathFlags) { f.aps, f.handoverAt, f.dur = 2, "1s,5s", 2*time.Second },
			`bad -handover-at entry "5s" (want a time in [0s, -dur 2s))`},
		{"-aps 2 -handover-at 1s -solution fastack", func(f *pathFlags) { f.aps, f.handoverAt, f.solution = 2, "1s", "fastack" },
			"-handover-at does not work with -solution fastack"},
		{"-trace nope", func(f *pathFlags) { f.trace = "nope" }, `unknown trace "nope"`},
	} {
		_, err := singlePathSpec(with(c.edit))
		checkErr(t, c.name, err, c.want)
	}
}
