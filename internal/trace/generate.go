package trace

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"github.com/zhuge-project/zhuge/internal/sim"
)

// GenParams configures the synthetic trace generator. The model is an AR(1)
// process on the log of the rate (slow channel-quality variation) overlaid
// with a Poisson process of deep fades whose depth follows a bounded Pareto
// distribution (contention/interference/blockage events). This is the
// standard two-timescale structure of measured wireless goodput traces and
// is what produces the heavy ABW-reduction tail of Figure 3(b).
type GenParams struct {
	Name    string
	Mean    float64       // target mean rate, bits per second
	BaseRTT time.Duration // propagation RTT to record with the trace

	// Slow variation: log-rate AR(1) x' = AR*x + N(0, Sigma).
	AR    float64
	Sigma float64

	// Deep fades.
	FadeRate     float64       // fade events per second
	FadeRatioMin float64       // minimum depth (rate divided by this)
	FadeAlpha    float64       // Pareto tail index of fade depth
	FadeRatioCap float64       // maximum depth
	FadeDurMin   time.Duration // fade duration range
	FadeDurMax   time.Duration

	Floor float64 // absolute minimum rate, bits per second
}

func (p GenParams) withDefaults() GenParams {
	if p.Floor == 0 {
		p.Floor = 50e3
	}
	return p
}

// genStep is the generated traces' sample spacing.
const genStep = 50 * time.Millisecond

// Generate synthesises a trace of the given duration.
func Generate(p GenParams, dur time.Duration, rng *rand.Rand) *Trace {
	p = p.withDefaults()
	t := &Trace{Name: p.Name, BaseRTT: p.BaseRTT}

	// AR(1) state in log space, centred so exp(x) has mean ~1.
	x := 0.0
	// fadeUntil > at means a fade of depth fadeDepth is active.
	fadeUntil := time.Duration(-1)
	fadeDepth := 1.0

	for at := time.Duration(0); at < dur; at += genStep {
		x = p.AR*x + rng.NormFloat64()*p.Sigma
		rate := p.Mean * math.Exp(x-p.Sigma*p.Sigma/(2*(1-p.AR*p.AR)))

		// Fade arrivals: Poisson with rate FadeRate per second.
		if at > fadeUntil && rng.Float64() < p.FadeRate*genStep.Seconds() {
			fadeDepth = boundedPareto(rng, p.FadeRatioMin, p.FadeAlpha, p.FadeRatioCap)
			fadeDur := p.FadeDurMin + time.Duration(rng.Float64()*float64(p.FadeDurMax-p.FadeDurMin))
			fadeUntil = at + fadeDur
		}
		if at <= fadeUntil {
			rate /= fadeDepth
		}
		if rate < p.Floor {
			rate = p.Floor
		}
		t.Samples = append(t.Samples, Sample{At: at, Rate: rate})
	}
	return t
}

// boundedPareto draws from a Pareto(min, alpha) distribution truncated at cap.
func boundedPareto(rng *rand.Rand, min, alpha, cap float64) float64 {
	v := min / math.Pow(1-rng.Float64(), 1/alpha)
	if v > cap {
		v = cap
	}
	return v
}

// The named generators below are calibrated to the per-trace facts the paper
// publishes. Fractions of >10x 200 ms ABW reductions land inside the 0.6-7.3%
// wireless band (and <0.1% for Ethernet); see TestGeneratorCalibration.

// RestaurantWiFi models trace W1: crowded 2.4 GHz 802.11ac public WiFi,
// mean goodput 21 Mbps, heavy multi-user contention.
func RestaurantWiFi() GenParams {
	return GenParams{
		Name: "W1-restaurant-wifi", Mean: 21e6, BaseRTT: 40 * time.Millisecond,
		AR: 0.97, Sigma: 0.12,
		FadeRate: 0.35, FadeRatioMin: 3, FadeAlpha: 1.1, FadeRatioCap: 60,
		FadeDurMin: 200 * time.Millisecond, FadeDurMax: 1200 * time.Millisecond,
	}
}

// OfficeWiFi models trace W2: 5 GHz 802.11ac office WiFi, mean 27 Mbps,
// lighter contention than the restaurant.
func OfficeWiFi() GenParams {
	return GenParams{
		Name: "W2-office-wifi", Mean: 27e6, BaseRTT: 30 * time.Millisecond,
		AR: 0.97, Sigma: 0.10,
		FadeRate: 0.15, FadeRatioMin: 3, FadeAlpha: 1.3, FadeRatioCap: 50,
		FadeDurMin: 200 * time.Millisecond, FadeDurMax: 900 * time.Millisecond,
	}
}

// IndoorMixed45G models trace C1: indoor mixed 4G/5G with handover swings.
func IndoorMixed45G() GenParams {
	return GenParams{
		Name: "C1-indoor-4g5g", Mean: 40e6, BaseRTT: 50 * time.Millisecond,
		AR: 0.98, Sigma: 0.18,
		FadeRate: 0.25, FadeRatioMin: 3, FadeAlpha: 1.0, FadeRatioCap: 60,
		FadeDurMin: 300 * time.Millisecond, FadeDurMax: 2 * time.Second,
	}
}

// City4G models trace C2: metropolitan 4G LTE in the wild.
func City4G() GenParams {
	return GenParams{
		Name: "C2-city-4g", Mean: 25e6, BaseRTT: 60 * time.Millisecond,
		AR: 0.98, Sigma: 0.16,
		FadeRate: 0.2, FadeRatioMin: 3, FadeAlpha: 1.2, FadeRatioCap: 50,
		FadeDurMin: 300 * time.Millisecond, FadeDurMax: 1500 * time.Millisecond,
	}
}

// City5G models trace C3: metropolitan 5G (mmWave-like): very high rate with
// severe blockage fades.
func City5G() GenParams {
	return GenParams{
		Name: "C3-city-5g", Mean: 80e6, BaseRTT: 45 * time.Millisecond,
		AR: 0.97, Sigma: 0.20,
		FadeRate: 0.3, FadeRatioMin: 4, FadeAlpha: 0.9, FadeRatioCap: 80,
		FadeDurMin: 200 * time.Millisecond, FadeDurMax: 1800 * time.Millisecond,
	}
}

// Ethernet models the wired baseline: near-constant with tiny jitter.
func Ethernet() GenParams {
	return GenParams{
		Name: "ethernet", Mean: 100e6, BaseRTT: 30 * time.Millisecond,
		AR: 0.9, Sigma: 0.01,
		FadeRate: 0.001, FadeRatioMin: 1.2, FadeAlpha: 6, FadeRatioCap: 2,
		FadeDurMin: 100 * time.Millisecond, FadeDurMax: 200 * time.Millisecond,
	}
}

// ABCCellular models the decade-old cellular traces used in the ABC paper:
// an order of magnitude lower bandwidth than the recent traces, with
// proportionally deep sub-second fades (Appendix B, Table 3).
func ABCCellular() GenParams {
	return GenParams{
		Name: "abc-cellular", Mean: 4e6, BaseRTT: 70 * time.Millisecond,
		AR: 0.95, Sigma: 0.30,
		FadeRate: 0.4, FadeRatioMin: 2.5, FadeAlpha: 1.0, FadeRatioCap: 40,
		FadeDurMin: 200 * time.Millisecond, FadeDurMax: 1500 * time.Millisecond,
		Floor: 100e3,
	}
}

// StandardSet generates the five evaluation traces of §7.2 with the given
// duration and a deterministic per-trace RNG derived from seed and the
// trace name via the labeled-seed scheme, so reordering or extending the
// set never perturbs an existing trace's stream.
func StandardSet(dur time.Duration, seed int64) []*Trace {
	params := []GenParams{RestaurantWiFi(), OfficeWiFi(), IndoorMixed45G(), City4G(), City5G()}
	traces := make([]*Trace, len(params))
	for i, p := range params {
		traces[i] = Generate(p, dur, sim.LabeledRand(seed, "trace/"+p.Name))
	}
	return traces
}

// generators is the one table of generator names the CLIs accept, in the
// order Names lists them.
var generators = []struct {
	name   string
	params func() GenParams
}{
	{"abc", ABCCellular},
	{"c1", IndoorMixed45G},
	{"c2", City4G},
	{"c3", City5G},
	{"ethernet", Ethernet},
	{"w1", RestaurantWiFi},
	{"w2", OfficeWiFi},
}

// Names lists the generator names Named accepts, sorted.
func Names() []string {
	names := make([]string, len(generators))
	for i, g := range generators {
		names[i] = g.name
	}
	return names
}

// ErrUnknownName is what Named's error wraps when the name is none of its
// forms, so a caller can go on to try the name as something else (a file).
var ErrUnknownName = errors.New("unknown trace")

// Named builds a trace from its command-line name: a generator name (see
// Names) drawn from the caller's rng, dropK (30 Mbps dropping K-fold, K > 1,
// a third of the way in) or constN (N Mbps constant, N > 0). Only the
// generators read rng.
func Named(name string, dur time.Duration, rng *rand.Rand) (*Trace, error) {
	for _, g := range generators {
		if g.name == name {
			return Generate(g.params(), dur, rng), nil
		}
	}
	if k, ok := strings.CutPrefix(name, "drop"); ok {
		f, err := strconv.ParseFloat(k, 64)
		if err != nil || f <= 1 {
			return nil, fmt.Errorf("bad drop factor %q", k)
		}
		return Step(name, 30e6, 30e6/f, dur/3, dur), nil
	}
	if n, ok := strings.CutPrefix(name, "const"); ok {
		mbps, err := strconv.ParseFloat(n, 64)
		if err != nil || mbps <= 0 {
			return nil, fmt.Errorf("bad constant rate %q", n)
		}
		return Constant(name, mbps*1e6, dur), nil
	}
	return nil, fmt.Errorf("%w %q", ErrUnknownName, name)
}
