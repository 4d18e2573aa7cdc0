package scenario_test

import (
	"fmt"
	"testing"
	"time"

	"github.com/zhuge-project/zhuge/internal/netem"
	"github.com/zhuge-project/zhuge/internal/scenario"
	"github.com/zhuge-project/zhuge/internal/trace"
)

func roamingSpec(seed int64, policy scenario.HandoverPolicy, sol scenario.Solution) scenario.Spec {
	dur := 9 * time.Second
	sp := scenario.Spec{
		Seed: seed,
		APs: []scenario.APSpec{
			{Name: "ap0", Trace: trace.Constant("ap0-c", 20e6, dur), Solution: sol},
			{Name: "ap1", Trace: trace.Constant("ap1-c", 20e6, dur), Solution: sol},
		},
		Stations: []scenario.StationSpec{{Name: "roamer", AP: "ap0"}},
		Handovers: []scenario.HandoverSpec{
			{Station: "roamer", To: "ap1", At: 3 * time.Second, Policy: policy},
			{Station: "roamer", To: "ap0", At: 6 * time.Second, Policy: policy},
		},
	}
	return sp
}

// TestStationAssociateMovesChannelAndRate pins the handover mechanics at
// the radio layer: after Handover, an own-queue station's dedicated link
// contends on the new AP's channel at the new AP's rate, and DownIn still
// points at the station's own link (shared-queue stations instead follow
// the AP).
func TestStationAssociateMovesChannelAndRate(t *testing.T) {
	sp := scenario.Spec{
		Seed: 1,
		APs: []scenario.APSpec{
			{Name: "ap0", Trace: trace.Constant("ap0-c", 30e6, time.Second)},
			{Name: "ap1", Trace: trace.Constant("ap1-c", 60e6, time.Second)},
		},
		Stations: []scenario.StationSpec{{Name: "shared"}, {Name: "owned", OwnQueue: true}},
	}
	p := sp.Build()
	ap0, ap1 := p.APs[0], p.APs[1]
	shared, owned := p.Station("shared"), p.Station("owned")

	if owned.Link() == nil {
		t.Fatal("own-queue station has no dedicated link")
	}
	if owned.DownIn() != netem.Receiver(owned.Link()) {
		t.Error("own-queue DownIn is not the dedicated link")
	}
	if shared.DownIn() != ap0.DownIn {
		t.Error("shared DownIn is not ap0's datapath entry")
	}
	if got := owned.Link().Config().Channel; got != ap0.Channel {
		t.Fatal("dedicated link does not start on ap0's channel")
	}

	p.Handover(shared, ap1, scenario.HandoverReset)
	p.Handover(owned, ap1, scenario.HandoverReset)

	if shared.AP() != ap1 || owned.AP() != ap1 {
		t.Error("Handover did not update the AP")
	}
	if shared.DownIn() != ap1.DownIn {
		t.Error("shared DownIn did not follow the new AP")
	}
	if got := owned.Link().Config().Channel; got != ap1.Channel {
		t.Error("dedicated link did not move to ap1's channel after roam")
	}
	if got := owned.Link().Config().Rate(0); got != 60e6 {
		t.Errorf("dedicated link rate %g after roam, want the new AP's 60e6", got)
	}
}

// TestHandoverNoDuplicateOrLostDelivery checks the packet-conservation
// invariant across re-routing: every media packet is delivered to the
// client at most once (pooled packets make a double delivery a
// use-after-release), and traffic keeps flowing after each roam.
func TestHandoverNoDuplicateOrLostDelivery(t *testing.T) {
	for _, policy := range []scenario.HandoverPolicy{scenario.HandoverMigrate, scenario.HandoverReset} {
		t.Run(policy.String(), func(t *testing.T) {
			sp := roamingSpec(1, policy, scenario.SolutionZhuge)
			p := sp.Build()
			p.AddFlow(scenario.FlowSpec{Kind: "rtp", Station: "roamer", GapLoss: true})

			type mediaSeq struct {
				ssrc uint32
				seq  uint16
			}
			seen := map[mediaSeq]int{}
			var afterLastRoam int
			p.AddDeliveryTap(func(pkt *netem.Packet) {
				tw, ok := pkt.Payload.(interface{ TWCCInfo() (uint32, uint16) })
				if !ok {
					return
				}
				ssrc, seq := tw.TWCCInfo()
				seen[mediaSeq{ssrc, seq}]++
				if p.S.Now() > 6*time.Second {
					afterLastRoam++
				}
			})
			p.Run(9 * time.Second)

			if len(seen) == 0 {
				t.Fatal("no media packets delivered at all")
			}
			dups := 0
			for k, n := range seen {
				if n > 1 {
					dups++
					if dups <= 3 {
						t.Errorf("media packet %+v delivered %d times", k, n)
					}
				}
			}
			if dups > 0 {
				t.Fatalf("%d media packets delivered more than once", dups)
			}
			if afterLastRoam == 0 {
				t.Fatal("no deliveries after the final roam; the flow died in the handover")
			}
		})
	}
}

// TestHandoverDeterministic runs the same roaming scenario twice and
// requires identical delivery traces — the handover machinery must not
// introduce wall-clock or map-order nondeterminism.
func TestHandoverDeterministic(t *testing.T) {
	run := func() string {
		sp := roamingSpec(7, scenario.HandoverMigrate, scenario.SolutionZhuge)
		p := sp.Build()
		p.AddFlow(scenario.FlowSpec{Kind: "rtp", Station: "roamer", GapLoss: true})
		var fp string
		var n int
		p.AddDeliveryTap(func(pkt *netem.Packet) {
			n++
			if n%97 == 0 { // sample the trace; full concat would be huge
				fp += fmt.Sprintf("%d@%d;", pkt.Seq, p.S.Now())
			}
		})
		p.Run(9 * time.Second)
		return fmt.Sprintf("n=%d %s", n, fp)
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("two identical runs diverged:\n%s\n%s", a, b)
	}
}

// TestHandoverFastAckRejected pins the documented restriction: FastAck
// state cannot move between APs, so a roam between FastAck APs panics
// rather than silently duplicating ACK synthesis.
func TestHandoverFastAckRejected(t *testing.T) {
	sp := roamingSpec(1, scenario.HandoverReset, scenario.SolutionFastAck)
	p := sp.Build()
	p.AddFlow(scenario.FlowSpec{Kind: "tcp", Station: "roamer"})
	defer func() {
		if recover() == nil {
			t.Error("handover between FastAck APs did not panic")
		}
	}()
	p.Run(9 * time.Second)
}

// TestReturnBaseMatchesDerivation checks the reverse-path latency is
// derived from the actual link parameters (WAN uplink delay plus half the
// maximum aggregate airtime) instead of the historical hardcoded 2ms.
func TestReturnBaseMatchesDerivation(t *testing.T) {
	tr := trace.Constant("c", 20e6, time.Second)

	p := scenario.Spec{Seed: 1, APs: []scenario.APSpec{{Trace: tr}}}.Build()
	if got, want := p.ReturnBase(), 25*time.Millisecond+2*time.Millisecond; got != want {
		t.Errorf("default ReturnBase = %v, want %v (WANRTT/2 + MaxAggAirtime/2)", got, want)
	}

	sp := scenario.Spec{
		Seed:   1,
		WANRTT: 80 * time.Millisecond,
		APs:    []scenario.APSpec{{Name: "ap0", Trace: tr}},
	}
	p2 := sp.Build()
	if got, want := p2.ReturnBase(), 40*time.Millisecond+2*time.Millisecond; got != want {
		t.Errorf("80ms-WAN ReturnBase = %v, want %v", got, want)
	}
}
