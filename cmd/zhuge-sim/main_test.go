package main

import (
	"strings"
	"testing"
)

// TestCheckFlags pins the up-front validation: every enumerated flag either
// passes or fails with one line naming the flag and what it accepts, before
// anything is built.
func TestCheckFlags(t *testing.T) {
	cases := []struct {
		proto, cca, solution, qdisc string
		aps                         int
		want                        string // substring of the error; "" = accepted
	}{
		{"rtp", "", "none", "fifo", 1, ""}, // the flag defaults
		{"rtp", "nada", "zhuge", "codel", 2, ""},
		{"rtp", "gcc", "abc", "fqcodel", 3, ""},
		{"tcp", "bbr", "fastack", "fifo", 1, ""},
		{"tcp", "abc", "abc", "fifo", 1, ""},
		{"quic", "pcc", "zhuge", "fifo", 1, ""},

		{"rtp", "", "none", "fifo", 0, "bad -aps 0 (want at least 1)"},
		{"rtp", "", "none", "fifo", -3, "bad -aps -3"},
		{"rtp", "", "bogus", "fifo", 1, `bad -solution "bogus" (want none|zhuge|fastack|abc)`},
		{"rtp", "", "none", "bogus", 1, `bad -qdisc "bogus" (want fifo|codel|fqcodel)`},
		{"bogus", "", "none", "fifo", 1, `bad -proto "bogus" (want rtp|tcp|quic)`},
		{"tcp", "bogus", "none", "fifo", 1, `bad -cca "bogus" for -proto tcp (want copa|cubic|bbr|abc)`},
		{"tcp", "pcc", "none", "fifo", 1, `bad -cca "pcc" for -proto tcp`},
		{"quic", "gcc", "none", "fifo", 1, `bad -cca "gcc" for -proto quic (want copa|cubic|bbr|abc|pcc)`},
		{"rtp", "copa", "none", "fifo", 1, `bad -cca "copa" for -proto rtp (want gcc|nada)`},
	}
	for _, c := range cases {
		err := checkFlags(c.proto, c.cca, c.solution, c.qdisc, c.aps)
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
