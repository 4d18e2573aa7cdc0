package chaos

import (
	"fmt"
	"time"

	"github.com/zhuge-project/zhuge/internal/scenario"
	"github.com/zhuge-project/zhuge/internal/sim"
	"github.com/zhuge-project/zhuge/internal/trace"
)

// Injector is one parameterised fault. Prepare mutates the Spec before the
// path is built (extra APs, storm stations, scheduled roams, MCS windows);
// Arm schedules the fault's runtime transitions on the built path's
// virtual clock. Either may be a no-op. Both receive the run's Phases and
// must confine the fault to [InjectStart, InjectEnd).
type Injector interface {
	// Fault names the injector for labels and logs, e.g. "loss-50%".
	Fault() string
	Prepare(sp *scenario.Spec, ph Phases)
	Arm(p *scenario.Path, ph Phases)
}

// StepLoss drops each downlink air delivery with probability Frac during
// the inject phase — the scenariod packet-loss scenarios (2–100 %).
type StepLoss struct {
	Frac float64 // 0..1
}

// Fault implements Injector.
func (i StepLoss) Fault() string { return fmt.Sprintf("loss-%g%%", i.Frac*100) }

// Prepare implements Injector.
func (i StepLoss) Prepare(*scenario.Spec, Phases) {}

// Arm implements Injector: loss turns on at inject start, off at inject
// end. The loss RNG is a dedicated labelled stream so the contention draws
// of the link are untouched.
func (i StepLoss) Arm(p *scenario.Path, ph Phases) {
	rng := p.S.NewRand("chaos.loss")
	dl := p.APs[0].Downlink
	p.S.Schedule(ph.InjectStart(), func() { dl.SetLoss(i.Frac, rng) })
	p.S.Schedule(ph.InjectEnd(), func() { dl.SetLoss(0, nil) })
}

// LatencySpike adds Extra delay to the server→AP WAN segment for Dur
// (clamped to the inject window) — the scenariod +200 ms spikes of varying
// duration.
type LatencySpike struct {
	Extra time.Duration
	Dur   time.Duration
}

// Fault implements Injector.
func (i LatencySpike) Fault() string { return "spike-" + i.Dur.String() }

// Prepare implements Injector.
func (i LatencySpike) Prepare(*scenario.Spec, Phases) {}

// Arm implements Injector.
func (i LatencySpike) Arm(p *scenario.Path, ph Phases) {
	start := ph.InjectStart()
	end := start + i.Dur
	if end > ph.InjectEnd() {
		end = ph.InjectEnd()
	}
	wd := p.WANDownLink()
	p.S.Schedule(start, func() { wd.SetExtraDelay(i.Extra) })
	p.S.Schedule(end, func() { wd.SetExtraDelay(0) })
}

// InterfererBurst adds N foreign stations contending on the AP's channel
// during the inject phase.
type InterfererBurst struct {
	N int
}

// Fault implements Injector.
func (i InterfererBurst) Fault() string { return fmt.Sprintf("burst-%d", i.N) }

// Prepare implements Injector.
func (i InterfererBurst) Prepare(*scenario.Spec, Phases) {}

// Arm implements Injector.
func (i InterfererBurst) Arm(p *scenario.Path, ph Phases) {
	dl := p.APs[0].Downlink
	base := dl.Config().Interferers
	p.S.Schedule(ph.InjectStart(), func() { dl.SetInterferers(base + i.N) })
	p.S.Schedule(ph.InjectEnd(), func() { dl.SetInterferers(base) })
}

// RateCollapse divides the AP's PHY rate by Factor during the inject phase
// — a rate-ladder collapse to a low MCS index. It is a pure function of
// virtual time installed before the build, so it needs no runtime events.
type RateCollapse struct {
	Factor float64
}

// Fault implements Injector.
func (i RateCollapse) Fault() string { return fmt.Sprintf("collapse-%gx", i.Factor) }

// Prepare implements Injector.
func (i RateCollapse) Prepare(sp *scenario.Spec, ph Phases) {
	start, end := ph.InjectStart(), ph.InjectEnd()
	f := i.Factor
	sp.APs[0].MCSScale = func(at sim.Time) float64 {
		if at >= start && at < end {
			return 1 / f
		}
		return 1
	}
}

// Arm implements Injector.
func (i RateCollapse) Arm(*scenario.Path, Phases) {}

// RoamStorm parks N own-queue stations, each carrying a CUBIC video flow,
// on a second AP; at inject start all of them hand over to the measured
// flow's AP simultaneously (airtime contention plus N fresh flows for the
// solution to absorb), and at inject end they all roam back. Not supported
// under FastAck (handover endpoints cannot run it).
type RoamStorm struct {
	N int
}

// Fault implements Injector.
func (i RoamStorm) Fault() string { return fmt.Sprintf("storm-%d", i.N) }

// Prepare implements Injector.
func (i RoamStorm) Prepare(sp *scenario.Spec, ph Phases) {
	addSecondAP(sp, ph)
	for k := 0; k < i.N; k++ {
		name := fmt.Sprintf("storm%d", k)
		sp.Stations = append(sp.Stations, scenario.StationSpec{
			Name: name, AP: "ap1", OwnQueue: true,
		})
		sp.Flows = append(sp.Flows, scenario.FlowSpec{
			Kind: "tcp", CCA: "cubic", Station: name,
		})
		sp.Handovers = append(sp.Handovers,
			scenario.HandoverSpec{Station: name, To: "ap0", At: ph.InjectStart(), Policy: scenario.HandoverReset},
			scenario.HandoverSpec{Station: name, To: "ap1", At: ph.InjectEnd(), Policy: scenario.HandoverReset},
		)
	}
}

// Arm implements Injector.
func (i RoamStorm) Arm(*scenario.Path, Phases) {}

// APReboot forces the measured station through a reset-policy handover to
// a standby AP at inject start and back at inject end — the AP "rebooting"
// under it, discarding all per-flow solution state both ways. Not
// supported under FastAck.
type APReboot struct{}

// Fault implements Injector.
func (APReboot) Fault() string { return "reboot" }

// Prepare implements Injector.
func (APReboot) Prepare(sp *scenario.Spec, ph Phases) {
	addSecondAP(sp, ph)
	sp.Handovers = append(sp.Handovers,
		scenario.HandoverSpec{Station: MeasuredStation, To: "ap1", At: ph.InjectStart(), Policy: scenario.HandoverReset},
		scenario.HandoverSpec{Station: MeasuredStation, To: "ap0", At: ph.InjectEnd(), Policy: scenario.HandoverReset},
	)
}

// Arm implements Injector.
func (APReboot) Arm(*scenario.Path, Phases) {}

// addSecondAP appends the standby AP the roam-shaped injectors use: same
// qdisc and solution as the primary, its own channel and constant trace.
func addSecondAP(sp *scenario.Spec, ph Phases) {
	base := sp.APs[0]
	sp.APs = append(sp.APs, scenario.APSpec{
		Name:     "ap1",
		Trace:    trace.Constant("chaos-ap1", BaseRate, ph.End()),
		Qdisc:    base.Qdisc,
		Solution: base.Solution,
	})
}
