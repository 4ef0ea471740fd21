package core

import (
	"fmt"
	"strings"

	"basrpt/internal/fabricsim"
	"basrpt/internal/flow"
	"basrpt/internal/sched"
	"basrpt/internal/trace"
)

// Fig6Row is one load point of the varying-loads comparison.
type Fig6Row struct {
	Load float64

	SRPTQueryAvgMs float64
	FastQueryAvgMs float64
	SRPTQueryP99Ms float64
	FastQueryP99Ms float64
	SRPTGbps       float64
	FastGbps       float64
}

// Fig6Result reproduces the paper's Figure 6: average query FCT, 99th
// percentile query FCT, and overall throughput for SRPT and fast BASRPT as
// load varies from 10% to 80%.
type Fig6Result struct {
	Scale Scale
	V     float64
	Rows  []Fig6Row
}

// DefaultFig6Loads are the paper's load points.
func DefaultFig6Loads() []float64 {
	return []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8}
}

// RunFig6 sweeps the given loads (nil selects the paper's 10%–80% range).
// v <= 0 selects the default V.
func RunFig6(scale Scale, v float64, loads []float64) (*Fig6Result, error) {
	scale = scale.withDefaults()
	if v <= 0 {
		v = DefaultV
	}
	if len(loads) == 0 {
		loads = DefaultFig6Loads()
	}
	res := &Fig6Result{Scale: scale, V: v}
	for _, load := range loads {
		if load <= 0 || load >= 1 {
			return nil, fmt.Errorf("fig6: load %g outside (0, 1)", load)
		}
		srpt, fast, err := Cell{Scale: scale, Options: sched.Options{V: v}, Load: load}.srptAndFast()
		if err != nil {
			return nil, fmt.Errorf("fig6 at %g: %w", load, err)
		}
		row := Fig6Row{Load: load}
		row.SRPTQueryAvgMs, row.SRPTQueryP99Ms = fctRow(srpt, flow.ClassQuery)
		row.FastQueryAvgMs, row.FastQueryP99Ms = fctRow(fast, flow.ClassQuery)
		row.SRPTGbps = srpt.AverageGbps()
		row.FastGbps = fast.AverageGbps()
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render prints the three Figure 6 panels as tables.
func (r *Fig6Result) Render() string {
	tbl := trace.Table{
		Title: fmt.Sprintf("Figure 6 — varying loads, V=%g, %s", r.V, r.Scale),
		Headers: []string{
			"load", "srpt q-avg ms", "fast q-avg ms",
			"srpt q-99 ms", "fast q-99 ms", "srpt Gbps", "fast Gbps",
		},
	}
	for _, row := range r.Rows {
		tbl.AddRow(
			fmt.Sprintf("%.0f%%", row.Load*100),
			trace.Ms(row.SRPTQueryAvgMs), trace.Ms(row.FastQueryAvgMs),
			trace.Ms(row.SRPTQueryP99Ms), trace.Ms(row.FastQueryP99Ms),
			trace.Gbps(row.SRPTGbps), trace.Gbps(row.FastGbps),
		)
	}
	var b strings.Builder
	b.WriteString(tbl.Render())
	if last := r.lastRow(); last != nil && last.SRPTQueryAvgMs > 0 && last.SRPTQueryP99Ms > 0 {
		fmt.Fprintf(&b, "\nat %.0f%% load: fast/srpt query avg %+.1f%%, 99th %+.1f%% (paper at 80%%: +7.4%% avg, +29.7%% 99th)\n",
			last.Load*100,
			(last.FastQueryAvgMs/last.SRPTQueryAvgMs-1)*100,
			(last.FastQueryP99Ms/last.SRPTQueryP99Ms-1)*100)
	}
	fmt.Fprintf(&b, "paper: FCTs nearly identical at low load; fast BASRPT throughput a little higher at all loads\n")
	return b.String()
}

func (r *Fig6Result) lastRow() *Fig6Row {
	if len(r.Rows) == 0 {
		return nil
	}
	return &r.Rows[len(r.Rows)-1]
}

// VSweepRow is one V point of the Figures 7/8 parameter study.
type VSweepRow struct {
	V float64

	Gbps            float64
	StableQueueByte float64 // tail mean of the max-port backlog
	QueueGrowing    bool

	QueryAvgMs float64
	QueryP99Ms float64
	BgAvgMs    float64
	BgP99Ms    float64
}

// VSweepResult reproduces Figures 7 and 8: throughput, stable queue
// length, and per-class FCTs of fast BASRPT as V varies (paper: 1000 to
// 10000) at near-saturating load.
type VSweepResult struct {
	Scale Scale
	Load  float64
	Rows  []VSweepRow

	// results keeps the raw runs for CSV export, indexed like Rows.
	results []*fabricsim.Result
}

// DefaultVSweep is the paper's V range.
func DefaultVSweep() []float64 {
	return []float64{1000, 2500, 5000, 7500, 10000}
}

// RunVSweep executes fast BASRPT for each V (nil selects the paper's
// range) at the saturation load.
func RunVSweep(scale Scale, vs []float64) (*VSweepResult, error) {
	scale = scale.withDefaults()
	if len(vs) == 0 {
		vs = DefaultVSweep()
	}
	res := &VSweepResult{Scale: scale, Load: SaturationLoad}
	for _, v := range vs {
		if v < 0 {
			return nil, fmt.Errorf("vsweep: negative V %g", v)
		}
		cfg, _, err := Cell{
			Scale:     scale,
			Scheduler: "fast-basrpt",
			Options:   sched.Options{V: v},
			Load:      SaturationLoad,
		}.Build()
		if err != nil {
			return nil, fmt.Errorf("vsweep at V=%g: %w", v, err)
		}
		if v == 0 {
			// The registry maps V 0 to its default; keep the swept value.
			cfg.Scheduler = sched.NewFastBASRPT(0)
		}
		run, err := runConfig(cfg)
		if err != nil {
			return nil, fmt.Errorf("vsweep at V=%g: %w", v, err)
		}
		row := VSweepRow{V: v}
		row.Gbps = run.AverageGbps()
		row.StableQueueByte = run.MaxPortSeries.TailMean(0.3)
		row.QueueGrowing = trendAfterWarmup(&run.MaxPortSeries, scale).Verdict.String() == "growing"
		row.QueryAvgMs, row.QueryP99Ms = fctRow(run, flow.ClassQuery)
		row.BgAvgMs, row.BgP99Ms = fctRow(run, flow.ClassBackground)
		res.Rows = append(res.Rows, row)
		res.results = append(res.results, run)
	}
	return res, nil
}

// Result returns the raw run for row i (for CSV export).
func (r *VSweepResult) Result(i int) *fabricsim.Result { return r.results[i] }

// RenderFig7 prints throughput and stable queue length per V.
func (r *VSweepResult) RenderFig7() string {
	tbl := trace.Table{
		Title:   fmt.Sprintf("Figure 7 — throughput and queue length vs V at %.0f%% load, %s", r.Load*100, r.Scale),
		Headers: []string{"V", "throughput Gbps", "stable queue", "queue verdict"},
	}
	for _, row := range r.Rows {
		verdict := "stable"
		if row.QueueGrowing {
			verdict = "growing"
		}
		tbl.AddRow(fmt.Sprintf("%g", row.V), trace.Gbps(row.Gbps),
			trace.Bytes(row.StableQueueByte), verdict)
	}
	return tbl.Render() +
		"\npaper: larger V slightly raises the stable queue level and slightly lowers throughput\n"
}

// RenderFig8 prints the per-class FCTs per V.
func (r *VSweepResult) RenderFig8() string {
	tbl := trace.Table{
		Title:   fmt.Sprintf("Figure 8 — FCTs vs V at %.0f%% load, %s", r.Load*100, r.Scale),
		Headers: []string{"V", "query avg ms", "query 99 ms", "bg avg ms", "bg 99 ms"},
	}
	for _, row := range r.Rows {
		tbl.AddRow(fmt.Sprintf("%g", row.V),
			trace.Ms(row.QueryAvgMs), trace.Ms(row.QueryP99Ms),
			trace.Ms(row.BgAvgMs), trace.Ms(row.BgP99Ms))
	}
	return tbl.Render() +
		"\npaper: query avg and 99th FCT drop significantly as V grows; background avg rises, background 99th slightly falls\n"
}
