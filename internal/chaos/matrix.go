package chaos

import (
	"slices"
	"strings"
	"time"

	"github.com/zhuge-project/zhuge/internal/scenario"
)

// SolutionSpec is one comparison point of the evaluation: a transport, the
// AP-side solution, and the knob the paper varies alongside it (the qdisc
// for RTP, the sender CCA for TCP). These lists are the canonical data the
// figure tables and the chaos matrix both enumerate.
type SolutionSpec struct {
	Name      string // table label, e.g. "Gcc+Zhuge"
	Transport string // "rtp" or "tcp"
	Sol       scenario.Solution
	Qdisc     string // rtp: AP queue discipline ("fifo", "codel")
	CCA       string // tcp: sender rate controller ("copa", "abc")
}

// RTPSolutions are the RTP/RTCP comparison points of Figures 11/13/14/22.
var RTPSolutions = []SolutionSpec{
	{Name: "Gcc+FIFO", Transport: "rtp", Sol: scenario.SolutionNone, Qdisc: "fifo"},
	{Name: "Gcc+CoDel", Transport: "rtp", Sol: scenario.SolutionNone, Qdisc: "codel"},
	{Name: "Gcc+Zhuge", Transport: "rtp", Sol: scenario.SolutionZhuge, Qdisc: "fifo"},
}

// TCPSolutions are the TCP comparison points of Figures 12/15 and Table 3.
var TCPSolutions = []SolutionSpec{
	{Name: "Copa", Transport: "tcp", Sol: scenario.SolutionNone, CCA: "copa"},
	{Name: "Copa+FastAck", Transport: "tcp", Sol: scenario.SolutionFastAck, CCA: "copa"},
	{Name: "ABC", Transport: "tcp", Sol: scenario.SolutionABC, CCA: "abc"},
	{Name: "Copa+Zhuge", Transport: "tcp", Sol: scenario.SolutionZhuge, CCA: "copa"},
}

// Solutions returns every comparison point, RTP first.
func Solutions() []SolutionSpec {
	out := make([]SolutionSpec, 0, len(RTPSolutions)+len(TCPSolutions))
	out = append(out, RTPSolutions...)
	out = append(out, TCPSolutions...)
	return out
}

// PhasedFaults is the fault catalogue of the chaos matrix: every entry is
// armed for the inject window of a stabilise→inject→recover run.
func PhasedFaults() []Injector {
	const spike = 200 * time.Millisecond
	return []Injector{
		StepLoss{Frac: 0.02}, StepLoss{Frac: 0.10}, StepLoss{Frac: 0.25}, StepLoss{Frac: 0.50}, StepLoss{Frac: 1},
		LatencySpike{Extra: spike, Dur: 100 * time.Millisecond},
		LatencySpike{Extra: spike, Dur: time.Second},
		LatencySpike{Extra: spike, Dur: 5 * time.Second},
		InterfererBurst{N: 10}, InterfererBurst{N: 40},
		RateCollapse{Factor: 4}, RateCollapse{Factor: 16},
		RoamStorm{N: 8}, RoamStorm{N: 32},
		APReboot{},
	}
}

// Cell is one matrix entry: a solution under a fault.
type Cell struct {
	Sol   SolutionSpec
	Fault Injector
}

// ID names the cell for filters and logs, e.g. "rtp/Gcc+Zhuge/loss-50%".
func (c Cell) ID() string {
	return c.Sol.Transport + "/" + c.Sol.Name + "/" + c.Fault.Fault()
}

// Supported reports whether the combination can run: FastAck APs cannot be
// handover endpoints, so the roam-shaped faults skip them.
func (c Cell) Supported() bool {
	switch c.Fault.(type) {
	case RoamStorm, APReboot:
		return c.Sol.Sol != scenario.SolutionFastAck
	}
	return true
}

// enumerate builds every solution × faults in deterministic order
// (solutions outer, faults inner), dropping unsupported combinations.
func enumerate(faults []Injector) []Cell {
	var cells []Cell
	for _, s := range Solutions() {
		for _, f := range faults {
			c := Cell{Sol: s, Fault: f}
			if c.Supported() {
				cells = append(cells, c)
			}
		}
	}
	return cells
}

// Cells enumerates the full phased chaos matrix: every solution of both
// transports under every catalogue fault.
func Cells() []Cell {
	return enumerate(PhasedFaults())
}

// goldenFaults labels the catalogue entries of the golden subset: one
// fault per disturbance shape.
var goldenFaults = []string{"loss-50%", "spike-1s", "collapse-16x", "storm-8"}

// GoldenCells is the pinned representative subset the golden-gated
// chaos-matrix experiment runs: the goldenFaults under every solution.
func GoldenCells() []Cell {
	var faults []Injector
	for _, f := range PhasedFaults() {
		if slices.Contains(goldenFaults, f.Fault()) {
			faults = append(faults, f)
		}
	}
	return enumerate(faults)
}

// FilterCells keeps cells whose ID contains any of the comma-separated
// substrings of filter; an empty filter keeps everything.
func FilterCells(cells []Cell, filter string) []Cell {
	if filter == "" {
		return cells
	}
	var pats []string
	for _, p := range strings.Split(filter, ",") {
		if p = strings.TrimSpace(p); p != "" {
			pats = append(pats, p)
		}
	}
	if len(pats) == 0 {
		return cells
	}
	var out []Cell
	for _, c := range cells {
		id := c.ID()
		for _, p := range pats {
			if strings.Contains(id, p) {
				out = append(out, c)
				break
			}
		}
	}
	return out
}
