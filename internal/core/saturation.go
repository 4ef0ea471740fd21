package core

import (
	"fmt"
	"strings"

	"basrpt/internal/fabricsim"
	"basrpt/internal/flow"
	"basrpt/internal/metrics"
	"basrpt/internal/sched"
	"basrpt/internal/stats"
	"basrpt/internal/trace"
	"basrpt/internal/workload"
)

// trendAfterWarmup classifies a queue series ignoring the warmup prefix.
func trendAfterWarmup(s *metrics.Series, scale Scale) stats.TrendReport {
	scale = scale.withDefaults()
	start := int(float64(s.Len()) * scale.WarmupFraction)
	if start >= s.Len() {
		return stats.TrendReport{Verdict: stats.TrendStable}
	}
	return stats.ClassifyTrend(s.Values[start:], GrowthThreshold)
}

// Fig2Result reproduces the paper's Figure 2: at ~92% load the SRPT queue
// at a port keeps growing while a simple threshold backlog-aware strategy
// stabilizes.
type Fig2Result struct {
	Scale     Scale
	Load      float64
	Threshold float64

	SRPT      *fabricsim.Result
	Backlog   *fabricsim.Result
	SRPTTrend stats.TrendReport
	BackTrend stats.TrendReport
}

// RunFig2 executes the motivation experiment. threshold <= 0 selects the
// default of 5 MB (about ten mean background flows).
func RunFig2(scale Scale, threshold float64) (*Fig2Result, error) {
	scale = scale.withDefaults()
	if threshold <= 0 {
		threshold = 5e6
	}
	srpt, err := Cell{Scale: scale, Scheduler: "srpt", Load: Fig2Load}.run()
	if err != nil {
		return nil, fmt.Errorf("fig2 srpt run: %w", err)
	}
	back, err := Cell{
		Scale:     scale,
		Scheduler: "threshold",
		Options:   sched.Options{Threshold: threshold},
		Load:      Fig2Load,
	}.run()
	if err != nil {
		return nil, fmt.Errorf("fig2 threshold run: %w", err)
	}
	res := &Fig2Result{
		Scale:     scale,
		Load:      Fig2Load,
		Threshold: threshold,
		SRPT:      srpt,
		Backlog:   back,
	}
	// The paper plots the worst server's queue; the max-port series is the
	// scale-robust equivalent.
	res.SRPTTrend = trendAfterWarmup(&srpt.MaxPortSeries, scale)
	res.BackTrend = trendAfterWarmup(&back.MaxPortSeries, scale)
	return res, nil
}

// Render prints the Figure 2 summary with inline charts.
func (r *Fig2Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 2 — queue length at a port, load %.0f%%, %s\n\n", r.Load*100, r.Scale)
	b.WriteString(trace.Chart("SRPT (max-port backlog, bytes)", &r.SRPT.MaxPortSeries, 60, 8))
	fmt.Fprintf(&b, "verdict: %s (growth ratio %.2f)\n\n", r.SRPTTrend.Verdict, r.SRPTTrend.GrowthRatio)
	b.WriteString(trace.Chart(fmt.Sprintf("threshold backlog-aware T=%s", trace.Bytes(r.Threshold)), &r.Backlog.MaxPortSeries, 60, 8))
	fmt.Fprintf(&b, "verdict: %s (growth ratio %.2f)\n\n", r.BackTrend.Verdict, r.BackTrend.GrowthRatio)
	fmt.Fprintf(&b, "paper: SRPT queue keeps increasing; backlog-aware stabilizes\n")
	return b.String()
}

// SaturationResult is the shared near-capacity run behind Table I and
// Figure 5: SRPT vs fast BASRPT at 95% load.
type SaturationResult struct {
	Scale Scale
	Load  float64
	V     float64

	SRPT *fabricsim.Result
	Fast *fabricsim.Result

	SRPTTrend stats.TrendReport
	FastTrend stats.TrendReport
}

// RunSaturation executes the stability experiment at the paper's 95%
// load. v <= 0 selects the paper's demonstration value V = 2500.
func RunSaturation(scale Scale, v float64) (*SaturationResult, error) {
	return RunLoadPair(scale, v, SaturationLoad)
}

// RunLoadPair runs SRPT and fast BASRPT on the identical arrival stream at
// an arbitrary load — RunSaturation generalized for load-calibration
// studies. v <= 0 selects the default V.
func RunLoadPair(scale Scale, v, load float64) (*SaturationResult, error) {
	return runPair(scale, v, load, workload.DefaultQueryByteFraction)
}

// StabilityQueryFraction is the query byte share of the stability
// showcase: with 30% of bytes in 20KB cross-rack queries, the preemption
// pressure on rack-local elephants is strong enough for SRPT's queue
// divergence to manifest within tens of simulated seconds (the paper's
// 500 s horizon achieves the same at its 10% mix).
const StabilityQueryFraction = 0.3

// StabilityLoad is the per-port load of the stability showcase (~the
// paper's 9.2 Gbps on 10 Gbps ports).
const StabilityLoad = 0.92

// RunStability is the stability showcase behind the Figure 2/5(b)
// reproduction at reduced scale: SRPT vs fast BASRPT at StabilityLoad with
// StabilityQueryFraction. Use horizons of 40+ simulated seconds for a
// clear growing-vs-stable verdict split.
func RunStability(scale Scale, v float64) (*SaturationResult, error) {
	return runPair(scale, v, StabilityLoad, StabilityQueryFraction)
}

func runPair(scale Scale, v, load, queryFraction float64) (*SaturationResult, error) {
	scale = scale.withDefaults()
	if v <= 0 {
		v = DefaultV
	}
	if load <= 0 || load >= 1 {
		return nil, fmt.Errorf("load pair: load %g outside (0, 1)", load)
	}
	srpt, fast, err := Cell{Scale: scale, Options: sched.Options{V: v}, Load: load, QueryFraction: queryFraction}.srptAndFast()
	if err != nil {
		return nil, fmt.Errorf("load pair: %w", err)
	}
	res := &SaturationResult{
		Scale: scale,
		Load:  load,
		V:     v,
		SRPT:  srpt,
		Fast:  fast,
	}
	res.SRPTTrend = trendAfterWarmup(&srpt.MaxPortSeries, scale)
	res.FastTrend = trendAfterWarmup(&fast.MaxPortSeries, scale)
	return res, nil
}

// RenderStability prints the growing-vs-stable comparison of the
// stability showcase.
func (r *SaturationResult) RenderStability() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Stability showcase — SRPT vs fast BASRPT at %.0f%% load, V=%g, %s\n\n",
		r.Load*100, r.V, r.Scale)
	b.WriteString(trace.Chart("SRPT (max-port backlog, bytes)", &r.SRPT.MaxPortSeries, 60, 8))
	fmt.Fprintf(&b, "verdict: %s (growth ratio %.2f), leftover %s, throughput %s Gbps\n\n",
		r.SRPTTrend.Verdict, r.SRPTTrend.GrowthRatio,
		trace.Bytes(r.SRPT.LeftoverBytes), trace.Gbps(r.SRPT.AverageGbps()))
	b.WriteString(trace.Chart("fast BASRPT (max-port backlog, bytes)", &r.Fast.MaxPortSeries, 60, 8))
	fmt.Fprintf(&b, "verdict: %s (growth ratio %.2f), leftover %s, throughput %s Gbps\n\n",
		r.FastTrend.Verdict, r.FastTrend.GrowthRatio,
		trace.Bytes(r.Fast.LeftoverBytes), trace.Gbps(r.Fast.AverageGbps()))
	fmt.Fprintf(&b, "paper (Figs. 2, 5b): SRPT queue keeps increasing under admissible load; fast BASRPT stabilizes\n")
	return b.String()
}

// fctRow extracts the (avg, 99p) pair in ms for a class.
func fctRow(r *fabricsim.Result, class flow.Class) (avg, p99 float64) {
	cs := r.FCT.Stats(class)
	return cs.MeanMs, cs.P99Ms
}

// RenderTable1 prints Table I: average and 99th percentile FCT (ms) for
// queries and background flows under both schemes, plus the ratios the
// paper highlights (fast BASRPT query FCT < 2x SRPT average, < 4x 99th).
func (r *SaturationResult) RenderTable1() string {
	tbl := trace.Table{
		Title:   fmt.Sprintf("TABLE I — FCT (ms) at %.0f%% load, V=%g, %s", r.Load*100, r.V, r.Scale),
		Headers: []string{"scheme", "query avg", "query 99th", "background avg", "background 99th"},
	}
	sqAvg, sqP99 := fctRow(r.SRPT, flow.ClassQuery)
	sbAvg, sbP99 := fctRow(r.SRPT, flow.ClassBackground)
	fqAvg, fqP99 := fctRow(r.Fast, flow.ClassQuery)
	fbAvg, fbP99 := fctRow(r.Fast, flow.ClassBackground)
	tbl.AddRow("srpt", trace.Ms(sqAvg), trace.Ms(sqP99), trace.Ms(sbAvg), trace.Ms(sbP99))
	tbl.AddRow("fast-basrpt", trace.Ms(fqAvg), trace.Ms(fqP99), trace.Ms(fbAvg), trace.Ms(fbP99))
	var b strings.Builder
	b.WriteString(tbl.Render())
	if sqAvg > 0 && sqP99 > 0 {
		fmt.Fprintf(&b, "\nquery ratios fast/srpt: avg %.2fx (paper: <2x), 99th %.2fx (paper: <4x)\n",
			fqAvg/sqAvg, fqP99/sqP99)
	}
	if sbAvg > 0 && sbP99 > 0 {
		fmt.Fprintf(&b, "background ratios fast/srpt: avg %.2fx, 99th %.2fx (paper: ~consistent)\n",
			fbAvg/sbAvg, fbP99/sbP99)
	}
	return b.String()
}

// RenderFig5 prints Figure 5: global throughput over time (a) and the
// queue evolution (b) for both schemes.
func (r *SaturationResult) RenderFig5() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5 — throughput and queue length at %.0f%% load, V=%g, %s\n\n", r.Load*100, r.V, r.Scale)
	srptTput := r.SRPT.Throughput.SeriesGbps()
	fastTput := r.Fast.Throughput.SeriesGbps()
	b.WriteString(trace.Chart("(a) SRPT global throughput (Gbps)", &srptTput, 60, 6))
	b.WriteString(trace.Chart("(a) fast BASRPT global throughput (Gbps)", &fastTput, 60, 6))
	fmt.Fprintf(&b, "\ncumulative volume: srpt %s, fast-basrpt %s (delta %s; paper: BASRPT higher by 5352 Gb over 500 s)\n\n",
		trace.Bytes(r.SRPT.DepartedBytes), trace.Bytes(r.Fast.DepartedBytes),
		trace.Bytes(r.Fast.DepartedBytes-r.SRPT.DepartedBytes))
	b.WriteString(trace.Chart("(b) SRPT queue (max-port backlog, bytes)", &r.SRPT.MaxPortSeries, 60, 8))
	fmt.Fprintf(&b, "verdict: %s\n\n", r.SRPTTrend.Verdict)
	b.WriteString(trace.Chart("(b) fast BASRPT queue (max-port backlog, bytes)", &r.Fast.MaxPortSeries, 60, 8))
	fmt.Fprintf(&b, "verdict: %s, stable point ~%s (tail mean)\n\n",
		r.FastTrend.Verdict, trace.Bytes(r.Fast.MaxPortSeries.TailMean(0.3)))
	fmt.Fprintf(&b, "paper: SRPT queue grows without bound; fast BASRPT stabilizes and total throughput improves\n")
	return b.String()
}
