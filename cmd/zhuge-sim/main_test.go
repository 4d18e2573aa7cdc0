package main

import (
	"strings"
	"testing"
	"time"
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
		{"rtp", "", "none", "fifo", 1, 0, ms, "dur seed series-out series-every stats pprof trace-out metrics", ""},
		// The sampling interval must tick.
		{"rtp", "", "none", "fifo", 1, 0, 0, "series-out series-every", "bad -series-every 0s (want a positive interval)"},
		{"rtp", "", "none", "fifo", 1, 0, -ms, "series-every", "bad -series-every -100ms"},
	}
	// A flag of the other mode is refused, whichever it is.
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
		err := checkFlags(c.proto, c.cca, c.solution, c.qdisc, c.aps, c.campus, c.every, set)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%+v: rejected: %v", c, err)
		case c.want != "" && err == nil:
			t.Errorf("%+v: accepted, want an error containing %q", c, c.want)
		case c.want != "" && !strings.Contains(err.Error(), c.want):
			t.Errorf("%+v: error %q, want it to contain %q", c, err, c.want)
		case err != nil && strings.Contains(err.Error(), "\n"):
			t.Errorf("%+v: error spans lines: %q", c, err)
		}
	}
}
