package chaos

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/zhuge-project/zhuge/internal/metrics"
	"github.com/zhuge-project/zhuge/internal/scenario"
)

// testPhases keeps injector-timing runs cheap: fault on at 300ms, off at
// 600ms, run ends at 900ms.
var testPhases = Phases{
	Stabilise: 300 * time.Millisecond,
	Inject:    300 * time.Millisecond,
	Recover:   300 * time.Millisecond,
}

// buildCell assembles a phased path for one injector without running it.
func buildCell(t *testing.T, sol SolutionSpec, f Fault) *scenario.Path {
	t.Helper()
	rc := RunConfig{Seed: 1, Phases: testPhases, Cell: Cell{Sol: sol, Fault: f}}
	inj := f.Injector()
	sp := rc.spec()
	inj.Prepare(&sp, testPhases)
	p := sp.Build()
	inj.Arm(p, testPhases)
	return p
}

func TestPhaseBoundaries(t *testing.T) {
	ph := Phases{Stabilise: 2 * time.Second, Inject: time.Second, Recover: 4 * time.Second}
	if got := ph.InjectStart(); got != 2*time.Second {
		t.Fatalf("InjectStart = %v", got)
	}
	if got := ph.InjectEnd(); got != 3*time.Second {
		t.Fatalf("InjectEnd = %v", got)
	}
	if got := ph.End(); got != 7*time.Second {
		t.Fatalf("End = %v", got)
	}
}

// TestStepLossFiresOnSchedule pins the fault window: loss is off through
// the stabilise phase, armed during inject, and cleared for recover.
func TestStepLossFiresOnSchedule(t *testing.T) {
	p := buildCell(t, RTPSolutions[0], Fault{Family: "loss", Param: 0.5})
	eps := time.Millisecond
	p.Run(testPhases.InjectStart() - eps)
	if got := p.APs[0].Downlink.LossProb(); got != 0 {
		t.Fatalf("loss armed before inject: %v", got)
	}
	p.Run(testPhases.InjectStart() + eps)
	if got := p.APs[0].Downlink.LossProb(); got != 0.5 {
		t.Fatalf("loss not armed during inject: %v", got)
	}
	p.Run(testPhases.InjectEnd() + eps)
	if got := p.APs[0].Downlink.LossProb(); got != 0 {
		t.Fatalf("loss not cleared after inject: %v", got)
	}
}

func TestLatencySpikeFiresOnSchedule(t *testing.T) {
	// Dur longer than the inject window: the spike must still clear at
	// inject end.
	p := buildCell(t, RTPSolutions[0], Fault{Family: "spike", Param: 200, Dur: time.Hour})
	eps := time.Millisecond
	p.Run(testPhases.InjectStart() - eps)
	if got := p.WANDownLink().ExtraDelay(); got != 0 {
		t.Fatalf("spike before inject: %v", got)
	}
	p.Run(testPhases.InjectStart() + eps)
	if got := p.WANDownLink().ExtraDelay(); got != 200*time.Millisecond {
		t.Fatalf("spike not armed: %v", got)
	}
	p.Run(testPhases.InjectEnd() + eps)
	if got := p.WANDownLink().ExtraDelay(); got != 0 {
		t.Fatalf("spike not cleared at inject end: %v", got)
	}
}

func TestInterfererBurstFiresOnSchedule(t *testing.T) {
	p := buildCell(t, RTPSolutions[0], Fault{Family: "burst", Param: 40})
	eps := time.Millisecond
	p.Run(testPhases.InjectStart() + eps)
	if got := p.APs[0].Downlink.Config().Interferers; got != 40 {
		t.Fatalf("burst not armed: %d interferers", got)
	}
	p.Run(testPhases.InjectEnd() + eps)
	if got := p.APs[0].Downlink.Config().Interferers; got != 0 {
		t.Fatalf("burst not cleared: %d interferers", got)
	}
}

func TestRateCollapseWindow(t *testing.T) {
	p := buildCell(t, RTPSolutions[0], Fault{Family: "collapse", Param: 16})
	base := p.APs[0].Downlink.CurrentRate(testPhases.InjectStart() - time.Millisecond)
	mid := p.APs[0].Downlink.CurrentRate(testPhases.InjectStart() + testPhases.Inject/2)
	after := p.APs[0].Downlink.CurrentRate(testPhases.InjectEnd() + time.Millisecond)
	if base != BaseRate || after != BaseRate {
		t.Fatalf("rate outside window: base=%v after=%v", base, after)
	}
	if want := BaseRate / 16; mid != want {
		t.Fatalf("collapsed rate = %v, want %v", mid, want)
	}
}

func TestAPRebootRoamsMeasuredStation(t *testing.T) {
	p := buildCell(t, RTPSolutions[2], Fault{Family: "reboot"})
	eps := time.Millisecond
	st := p.Station(MeasuredStation)
	p.Run(testPhases.InjectStart() - eps)
	if got := st.AP().Spec.Name; got != "ap0" {
		t.Fatalf("station on %q before inject", got)
	}
	p.Run(testPhases.InjectStart() + eps)
	if got := st.AP().Spec.Name; got != "ap1" {
		t.Fatalf("station on %q during inject, want ap1", got)
	}
	p.Run(testPhases.InjectEnd() + eps)
	if got := st.AP().Spec.Name; got != "ap0" {
		t.Fatalf("station on %q after inject, want ap0", got)
	}
}

func TestRoamStormMovesAllStations(t *testing.T) {
	n := 4
	p := buildCell(t, RTPSolutions[0], Fault{Family: "roamstorm", Param: float64(n)})
	eps := time.Millisecond
	p.Run(testPhases.InjectStart() + eps)
	for i := 0; i < n; i++ {
		st := p.Station(fmt.Sprintf("storm%d", i))
		if got := st.AP().Spec.Name; got != "ap0" {
			t.Fatalf("storm%d on %q during inject, want ap0", i, got)
		}
	}
	p.Run(testPhases.InjectEnd() + eps)
	for i := 0; i < n; i++ {
		st := p.Station(fmt.Sprintf("storm%d", i))
		if got := st.AP().Spec.Name; got != "ap1" {
			t.Fatalf("storm%d on %q after inject, want ap1", i, got)
		}
	}
}

// synthDip builds a rate series: baseline until inject start, a dip to
// `low`, then a climb that re-crosses baseline at injectEnd+recrossAfter.
func synthDip(ph Phases, low float64, recrossAfter time.Duration) *metrics.Series {
	s := &metrics.Series{}
	base := 100.0
	step := 100 * time.Millisecond
	for at := time.Duration(0); at < ph.End(); at += step {
		switch {
		case at < ph.InjectStart():
			s.Add(at, base)
		case at < ph.InjectEnd()+recrossAfter:
			s.Add(at, low)
		default:
			s.Add(at, base)
		}
	}
	return s
}

// TestRecoveryMonotonic pins the recovery metric's shape on synthetic
// dips: deeper dips score larger DipDepth, later re-crosses score larger
// Recross.
func TestRecoveryMonotonic(t *testing.T) {
	ph := Phases{Stabilise: 10 * time.Second, Inject: 2 * time.Second, Recover: 20 * time.Second}

	prevDepth := -1.0
	for _, low := range []float64{90, 50, 10} {
		r := MeasureRecovery(synthDip(ph, low, time.Second), ph)
		if r.Baseline != 100 {
			t.Fatalf("baseline = %v", r.Baseline)
		}
		if r.DipDepth <= prevDepth {
			t.Fatalf("DipDepth not increasing: %v after %v", r.DipDepth, prevDepth)
		}
		prevDepth = r.DipDepth
	}

	prevRecross := time.Duration(-1)
	for _, after := range []time.Duration{time.Second, 5 * time.Second, 15 * time.Second} {
		r := MeasureRecovery(synthDip(ph, 10, after), ph)
		if r.Recross <= prevRecross {
			t.Fatalf("Recross not increasing: %v after %v", r.Recross, prevRecross)
		}
		prevRecross = r.Recross
	}

	// No dip at all: both metrics are zero.
	r := MeasureRecovery(synthDip(ph, 100, 0), ph)
	if r.DipDepth != 0 || r.Recross != 0 {
		t.Fatalf("flat series scored dip=%v recross=%v", r.DipDepth, r.Recross)
	}

	// A dip that never recovers scores the full recover window.
	r = MeasureRecovery(synthDip(ph, 10, ph.Recover+time.Minute), ph)
	if r.Recross != ph.Recover {
		t.Fatalf("unrecovered dip scored %v, want %v", r.Recross, ph.Recover)
	}
}

func TestRecrossAfterMatchesHandoverSemantics(t *testing.T) {
	// A roam with no dip afterwards scores zero.
	s := &metrics.Series{}
	for at := time.Duration(0); at < 30*time.Second; at += time.Second {
		s.Add(at, 100)
	}
	if got := RecrossAfter(s, 15*time.Second, 30*time.Second); got != 0 {
		t.Fatalf("flat RecrossAfter = %v", got)
	}
	// Dip at 16s, recross at 20s.
	s = &metrics.Series{}
	for at := time.Duration(0); at < 30*time.Second; at += time.Second {
		v := 100.0
		if at >= 16*time.Second && at < 20*time.Second {
			v = 10
		}
		s.Add(at, v)
	}
	if got := RecrossAfter(s, 15*time.Second, 30*time.Second); got != 5*time.Second {
		t.Fatalf("RecrossAfter = %v, want 5s", got)
	}
}

func TestWindowQuantile(t *testing.T) {
	s := &metrics.Series{}
	for i := 0; i < 100; i++ {
		s.Add(time.Duration(i)*time.Second, float64(i))
	}
	// Window [50s, 100s) holds values 50..99.
	if got := WindowQuantile(s, 50*time.Second, 100*time.Second, 0); got != 50 {
		t.Fatalf("q0 = %v", got)
	}
	if got := WindowQuantile(s, 50*time.Second, 100*time.Second, 1); got != 99 {
		t.Fatalf("q1 = %v", got)
	}
	mid := WindowQuantile(s, 50*time.Second, 100*time.Second, 0.5)
	if mid < 70 || mid > 80 {
		t.Fatalf("median = %v", mid)
	}
	if got := WindowQuantile(s, time.Hour, 2*time.Hour, 0.5); got != 0 {
		t.Fatalf("empty window = %v", got)
	}
}

func TestMatrixEnumeration(t *testing.T) {
	cells := Cells()
	if len(cells) < 48 {
		t.Fatalf("matrix has %d cells, want >= 48", len(cells))
	}
	seen := make(map[string]bool, len(cells))
	for _, c := range cells {
		id := c.ID()
		if seen[id] {
			t.Fatalf("duplicate cell %q", id)
		}
		seen[id] = true
		if c.Sol.Sol == scenario.SolutionFastAck &&
			(c.Fault.Family == "roamstorm" || c.Fault.Family == "reboot") {
			t.Fatalf("unsupported cell enumerated: %q", id)
		}
	}
	// Golden subset is a subset of the full matrix.
	for _, c := range GoldenCells() {
		if !seen[c.ID()] {
			t.Fatalf("golden cell %q not in the full matrix", c.ID())
		}
	}
	// Every solution appears in the golden subset.
	for _, s := range Solutions() {
		found := false
		for _, c := range GoldenCells() {
			if c.Sol.Name == s.Name {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("solution %q missing from golden subset", s.Name)
		}
	}
}

func TestFilterCells(t *testing.T) {
	cells := Cells()
	rtp := FilterCells(cells, "rtp/")
	if len(rtp) == 0 || len(rtp) >= len(cells) {
		t.Fatalf("rtp filter kept %d of %d", len(rtp), len(cells))
	}
	for _, c := range rtp {
		if c.Sol.Transport != "rtp" {
			t.Fatalf("rtp filter kept %q", c.ID())
		}
	}
	multi := FilterCells(cells, "loss-50%, reboot")
	for _, c := range multi {
		if !strings.Contains(c.ID(), "loss-50%") && !strings.Contains(c.ID(), "reboot") {
			t.Fatalf("multi filter kept %q", c.ID())
		}
	}
	if got := FilterCells(cells, ""); len(got) != len(cells) {
		t.Fatalf("empty filter dropped cells")
	}
}

func TestFigureCellsOrder(t *testing.T) {
	cells := FigureCells("abw-drop", "rtp")
	if len(cells) != len(RTPSolutions)*len(DropFactors) {
		t.Fatalf("fig14 grid has %d cells", len(cells))
	}
	// Solutions outer, factors inner — the hand-written loop order the
	// golden tables pin.
	if cells[0].Sol.Name != RTPSolutions[0].Name || cells[0].Fault.Param != DropFactors[0] {
		t.Fatalf("first cell %q", cells[0].ID())
	}
	if cells[1].Sol.Name != RTPSolutions[0].Name || cells[1].Fault.Param != DropFactors[1] {
		t.Fatalf("second cell %q", cells[1].ID())
	}
	last := cells[len(cells)-1]
	if last.Sol.Name != RTPSolutions[len(RTPSolutions)-1].Name {
		t.Fatalf("last cell %q", last.ID())
	}
}

// TestRunPhasedDeterministic pins that a cell is a pure function of its
// RunConfig: two runs give identical results.
func TestRunPhasedDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run")
	}
	ph := Phases{Stabilise: 2 * time.Second, Inject: time.Second, Recover: 2 * time.Second}
	cell := Cell{Sol: RTPSolutions[2], Fault: Fault{Family: "loss", Label: "loss-50%", Param: 0.5}}
	a := RunPhased(RunConfig{Seed: 7, Phases: ph, Cell: cell})
	b := RunPhased(RunConfig{Seed: 7, Phases: ph, Cell: cell})
	if a != b {
		t.Fatalf("same config, different results:\n%+v\n%+v", a, b)
	}
}
