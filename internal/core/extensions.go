package core

import (
	"fmt"
	"math"

	"basrpt/internal/flow"
	"basrpt/internal/sched"
	"basrpt/internal/stats"
	"basrpt/internal/trace"
)

// DistributedRow is one round-budget point of the distributed-emulation
// ablation (E11).
type DistributedRow struct {
	Rounds    int // 0 = run to convergence
	Agreement float64
	MeanGap   float64 // mean normalized objective excess over centralized
}

// DistributedResult is experiment E11: how closely the pFabric-style
// request/grant emulation of fast BASRPT tracks the centralized decision
// as the arbitration round budget shrinks — the executable version of the
// paper's Section IV-C distributability claim.
type DistributedResult struct {
	N      int
	Trials int
	V      float64
	Rows   []DistributedRow
}

// RunDistributed compares the distributed emulation against centralized
// fast BASRPT over random backlogged states for each round budget (nil
// selects {0, 1, 2, 4}). run.Seed drives the random states.
func RunDistributed(n, trials int, v float64, rounds []int, run Run) (*DistributedResult, error) {
	if n < 2 {
		return nil, fmt.Errorf("distributed ablation: n = %d", n)
	}
	if trials < 1 {
		return nil, fmt.Errorf("distributed ablation: trials = %d", trials)
	}
	if v < 0 {
		return nil, fmt.Errorf("distributed ablation: negative V %g", v)
	}
	if len(rounds) == 0 {
		rounds = []int{0, 1, 2, 4}
	}
	states := randomStates(n, trials, run.withDefaults().Seed)
	central := sched.NewFastBASRPT(v)

	res := &DistributedResult{N: n, Trials: trials, V: v}
	for _, r := range rounds {
		if r < 0 {
			return nil, fmt.Errorf("distributed ablation: negative rounds %d", r)
		}
		dist := sched.NewDistributed(v, r)
		row := DistributedRow{
			Rounds:    r,
			Agreement: sched.DecisionAgreement(v, central, dist, states),
		}
		var gapSum, normSum float64
		for _, tab := range states {
			co := sched.Objective(v, tab, central.Schedule(tab))
			do := sched.Objective(v, tab, dist.Schedule(tab))
			gap := do - co
			if gap < 0 {
				gap = 0 // truncated arbitration can also land below greedy
			}
			gapSum += gap
			normSum += math.Abs(co)
		}
		if normSum > 0 {
			row.MeanGap = gapSum / normSum
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render prints the round-budget table.
func (r *DistributedResult) Render() string {
	tbl := trace.Table{
		Title:   fmt.Sprintf("Distributed emulation — %d ports, %d states, V=%g", r.N, r.Trials, r.V),
		Headers: []string{"arbitration rounds", "agreement with centralized", "mean objective excess"},
	}
	for _, row := range r.Rows {
		label := fmt.Sprintf("%d", row.Rounds)
		if row.Rounds == 0 {
			label = "to convergence"
		}
		tbl.AddRow(label, fmt.Sprintf("%.1f%%", row.Agreement*100), fmt.Sprintf("%.4f", row.MeanGap))
	}
	return tbl.Render() +
		"\nclaim (Section IV-C): global priorities admit a distributed implementation —\n" +
		"deferred-acceptance arbitration converges to the exact centralized decision\n"
}

// NoiseRow is one estimation-error point of the noisy-size ablation (E12).
type NoiseRow struct {
	NoiseLevel float64

	QueryAvgMs float64
	QueryP99Ms float64
	BgAvgMs    float64
	Gbps       float64
	Leftover   float64
}

// NoiseResult is experiment E12: fast BASRPT under multiplicative flow-
// size estimation error. The paper (like pFabric/PDQ/PASE) assumes exact
// sizes; this measures how gracefully the discipline degrades when that
// assumption is relaxed.
type NoiseResult struct {
	Scale Scale
	Load  float64
	V     float64
	Rows  []NoiseRow
}

// RunNoise sweeps size-estimation error levels (nil selects
// {0, 0.25, 0.5, 1, 2}) at the given load.
func RunNoise(scale Scale, v, load float64, levels []float64) (*NoiseResult, error) {
	scale = scale.withDefaults()
	if v <= 0 {
		v = DefaultV
	}
	if load <= 0 || load >= 1 {
		return nil, fmt.Errorf("noise ablation: load %g outside (0, 1)", load)
	}
	if len(levels) == 0 {
		levels = []float64{0, 0.25, 0.5, 1, 2}
	}
	res := &NoiseResult{Scale: scale, Load: load, V: v}
	for _, level := range levels {
		if level < 0 {
			return nil, fmt.Errorf("noise ablation: negative level %g", level)
		}
		cfg, _, err := Cell{
			Scale:     scale,
			Scheduler: "noisy-basrpt",
			Options:   sched.Options{V: v, NoiseLevel: level},
			Load:      load,
		}.Build()
		if err != nil {
			return nil, fmt.Errorf("noise ablation at %g: %w", level, err)
		}
		if level == 0 {
			// The registry maps noise level 0 to its default; the exact-
			// size row must stay exact.
			cfg.Scheduler = sched.NewNoisyFastBASRPT(v, 0)
		}
		run, err := runConfig(cfg)
		if err != nil {
			return nil, fmt.Errorf("noise ablation at %g: %w", level, err)
		}
		row := NoiseRow{NoiseLevel: level}
		row.QueryAvgMs, row.QueryP99Ms = fctRow(run, flow.ClassQuery)
		row.BgAvgMs, _ = fctRow(run, flow.ClassBackground)
		row.Gbps = run.AverageGbps()
		row.Leftover = run.LeftoverBytes
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render prints the noise-level table.
func (r *NoiseResult) Render() string {
	tbl := trace.Table{
		Title: fmt.Sprintf("Size-estimation noise — fast BASRPT V=%g at %.0f%% load, %s",
			r.V, r.Load*100, r.Scale),
		Headers: []string{"noise level", "query avg ms", "query 99 ms", "bg avg ms", "Gbps", "leftover"},
	}
	for _, row := range r.Rows {
		tbl.AddRow(
			fmt.Sprintf("±%.0f%%", row.NoiseLevel*100),
			trace.Ms(row.QueryAvgMs), trace.Ms(row.QueryP99Ms), trace.Ms(row.BgAvgMs),
			trace.Gbps(row.Gbps), trace.Bytes(row.Leftover),
		)
	}
	return tbl.Render() +
		"\nextension: the paper assumes exact flow sizes; bounded multiplicative error on each\n" +
		"head flow's priority should perturb FCTs modestly while stability is unaffected\n" +
		"(the backlog term of the key is measured, not estimated)\n"
}

// randomStates builds deterministic random backlogged tables for the
// decision-level ablations.
func randomStates(n, count int, seed uint64) []*flow.Table {
	r := stats.NewRNG(seed)
	states := make([]*flow.Table, count)
	for k := range states {
		tab := flow.NewTable(n)
		flows := 1 + r.Intn(4*n)
		for i := 0; i < flows; i++ {
			size := 1 + math.Floor(r.Float64()*1e6) + float64(i)*1e-3
			tab.Add(flow.NewFlow(flow.ID(i+1), r.Intn(n), r.Intn(n), flow.ClassOther, size, 0))
		}
		states[k] = tab
	}
	return states
}
