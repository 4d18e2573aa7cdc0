package experiments

// Experiment is one reproducible table/figure generator.
type Experiment struct {
	ID    string
	Brief string
	Run   func(Config) *Table
}

// registry is the single experiment table, in presentation order.
var registry = []Experiment{
	{"fig2", "Motivation: access-network tail comparison", Fig2},
	{"fig3a", "Motivation: queue build-up after ABW drop", Fig3a},
	{"fig3b", "Motivation: ABW reduction-ratio CDFs", Fig3b},
	{"fig4", "Motivation: CCA/AQM convergence durations", Fig4},
	{"fig7", "Design: qLong/qShort reaction timeline", Fig7},
	{"fig11", "Eval: trace-driven RTP/RTCP tails", Fig11},
	{"fig12", "Eval: trace-driven TCP tails", Fig12},
	{"fig13", "Eval: detailed distributions on W1/C1", Fig13},
	{"fig13-ccdf", "Eval: full CCDF curves for W1/C1 (plot-ready)", Fig13CCDF},
	{"fig14", "Eval: RTP degradation after ABW drop", Fig14},
	{"fig15", "Eval: TCP degradation after ABW drop", Fig15},
	{"fig16", "Eval: flow competition", Fig16},
	{"fig17", "Eval: wireless interference", Fig17},
	{"fig18", "Eval: testbed scenarios scp/mcs/raw", Fig18},
	{"fig19", "Deep dive: prediction accuracy", Fig19},
	{"fig20", "Deep dive: fairness", Fig20},
	{"fig22", "Appendix: low frame-rate ratios", Fig22},
	{"table3", "Appendix: ABC original traces", Table3},
	{"ablation-estimators", "Ablation: Fortune Teller estimators", AblationEstimators},
	{"ablation-feedback", "Ablation: Feedback Updater variants", AblationFeedback},
	{"ext-quic", "Extension: Zhuge over encrypted QUIC (Copa, PCC)", ExtQUIC},
	{"ext-nada", "Extension: NADA through the in-band updater", ExtNADA},
	{"ext-selective", "Extension: selective estimation CPU optimisation", ExtSelectiveEstimation},
	{"ext-handover", "Extension: station roaming — Zhuge state migration vs reset", ExtHandover},
	{"control-loop", "Observability: flight-recorder control-loop decomposition", ControlLoop},
	{"campus-sharded", "Flagship: campus topology across shard counts (invariance)", CampusSharded},
	// chaos-matrix: the golden-gated pinned subset of the phased fault
	// matrix (the full grid is cmd/zhuge-bench -matrix).
	{"chaos-matrix", "Chaos: phased fault matrix — pinned solution×fault subset", ChaosMatrix},
}

// All returns every experiment in presentation order.
func All() []Experiment {
	return append([]Experiment(nil), registry...)
}

// ByID returns the experiment with the given ID, or nil.
func ByID(id string) *Experiment {
	for i := range registry {
		if registry[i].ID == id {
			e := registry[i]
			return &e
		}
	}
	return nil
}
