package chaos

// The fault-tolerance benchmark (cmd/chaos -ft): for each campaign app it
// sweeps the checkpoint replication degree R and sets the cost of
// surviving failures reactively (rollback to the last in-memory
// checkpoint) against surviving them proactively (evacuating a PE whose
// failure was predicted). Every cell of the sweep re-asserts the headline
// invariant — application results and full state digests byte-identical
// to the failure-free run on all three backends — so the report doubles
// as a correctness gate for the multi-failure machinery.

// FTPoint is one cell of the replication sweep: one app, one degree.
type FTPoint struct {
	Replication int `json:"replication"`
	// ChaosElapsed is the faulty run's virtual duration on the sequential
	// backend; CheckpointOverhead is its slowdown over the clean run —
	// the price of streaming R replica copies at every checkpoint cut
	// plus the recovery work itself.
	ChaosElapsed       float64 `json:"chaos_elapsed"`
	CheckpointOverhead float64 `json:"checkpoint_overhead"`
	// MeanDetectionLatency / MeanRecoveryTime summarize the recovery
	// records (virtual seconds); Fallbacks counts restores that skipped a
	// dead nearest holder for a farther live replica — zero at R=1 by
	// construction, and the direct measure of what the extra copies buy.
	MeanDetectionLatency float64 `json:"mean_detection_latency"`
	MeanRecoveryTime     float64 `json:"mean_recovery_time"`
	TotalRestartCost     float64 `json:"total_restart_cost"`
	Fallbacks            int     `json:"fallbacks"`
	// DigestsIdentical: values and state digests matched the clean run on
	// every backend AND the backends matched each other.
	DigestsIdentical bool `json:"digests_identical"`
}

// FTApp is one app's slice of the report.
type FTApp struct {
	App     string `json:"app"`
	Crashes int    `json:"crashes"`
	Warns   int    `json:"warns"`
	// CleanElapsed is the failure-free virtual duration (sequential).
	CleanElapsed float64   `json:"clean_elapsed"`
	Points       []FTPoint `json:"points"`
	// The proactive-vs-reactive comparison, taken at R=BaselineR: the
	// virtual cost of absorbing a predicted failure by evacuation
	// (migration + replacement boot, zero rollback) next to the mean cost
	// of healing an unpredicted crash (detection + restore + re-execution
	// of lost work). Absorbed counts warns that resolved without any
	// rollback.
	BaselineR    int     `json:"baseline_r"`
	EvacCost     float64 `json:"evac_cost"`
	RollbackCost float64 `json:"rollback_cost"`
	Absorbed     int     `json:"absorbed"`
}

// FTReport is the whole report of cmd/chaos -ft. Seed 42's is committed as
// testdata/ft.json, and TestFTBenchGolden compares RunFTBench(42) with it
// byte for byte.
type FTReport struct {
	Seed    int64   `json:"seed"`
	Degrees []int   `json:"degrees"`
	Apps    []FTApp `json:"apps"`
}

// ftDegrees is the replication sweep of the -ft report.
var ftDegrees = []int{1, 2, 3}

// ftBaselineR is the degree the evacuation-vs-rollback comparison runs
// at: 2 is the first degree that survives a correlated PE-plus-holder
// failure, which is the regime proactive evacuation matters in.
const ftBaselineR = 2

// RunFTBench runs the replication sweep and the evacuation comparison
// for every campaign app. Deterministic in seed, like RunCampaignOpts.
func RunFTBench(seed int64) (*FTReport, error) {
	rep := &FTReport{Seed: seed, Degrees: ftDegrees}
	for _, app := range Apps() {
		fa := FTApp{App: app, Crashes: 2, Warns: 1, BaselineR: ftBaselineR}
		for _, r := range ftDegrees {
			b, err := RunCampaignOpts(app, fa.Crashes, 0, seed, r)
			if err != nil {
				return nil, err
			}
			seq := b.Results[0]
			fa.CleanElapsed = seq.CleanElapsed
			pt := FTPoint{
				Replication:      r,
				ChaosElapsed:     seq.ChaosElapsed,
				DigestsIdentical: b.CrossBackendMatch,
			}
			if seq.CleanElapsed > 0 {
				pt.CheckpointOverhead = seq.ChaosElapsed/seq.CleanElapsed - 1
			}
			for _, res := range b.Results {
				if !res.ValuesMatch || !res.DigestMatch {
					pt.DigestsIdentical = false
				}
			}
			var det, rec float64
			for _, rs := range seq.Records {
				det += float64(rs.DetectionLatency())
				rec += float64(rs.RecoveryTime())
				pt.TotalRestartCost += float64(rs.RestartCost)
				pt.Fallbacks += rs.Fallbacks
			}
			if n := len(seq.Records); n > 0 {
				pt.MeanDetectionLatency = det / float64(n)
				pt.MeanRecoveryTime = rec / float64(n)
			}
			fa.Points = append(fa.Points, pt)
			if r == ftBaselineR {
				fa.RollbackCost = pt.MeanRecoveryTime
			}
		}
		// The proactive side: same seed, predicted failures only.
		wb, err := RunCampaignOpts(app, 0, fa.Warns, seed, ftBaselineR)
		if err != nil {
			return nil, err
		}
		wseq := wb.Results[0]
		fa.Absorbed = wseq.Absorbed
		for _, ev := range wseq.Evacs {
			if ev.Absorbed {
				fa.EvacCost += float64(ev.EvacCost) + float64(ev.BootCost)
			}
		}
		rep.Apps = append(rep.Apps, fa)
	}
	return rep, nil
}
