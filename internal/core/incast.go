package core

import (
	"fmt"

	"basrpt/internal/fabricsim"
	"basrpt/internal/flow"
	"basrpt/internal/sched"
	"basrpt/internal/trace"
)

// IncastResult is experiment E14: SRPT vs fast BASRPT under the
// partition/aggregate pattern the paper's introduction motivates — Fanout
// synchronized responses converging on one aggregator, on top of
// rack-local background traffic. The aggregator's egress port is the
// contended resource; response tail FCT is the application-level metric
// ("it is often those tardy flows that affect the application performance
// most", Section V-A).
type IncastResult struct {
	Scale          Scale
	Fanout         int
	JobsPerSecond  float64
	BackgroundLoad float64

	SRPT *fabricsim.Result
	Fast *fabricsim.Result
}

// RunIncast executes the incast comparison. fanout <= 0 selects 8;
// jobsPerSecond <= 0 selects 400; backgroundLoad <= 0 selects 0.6;
// v <= 0 selects DefaultV.
func RunIncast(scale Scale, v float64, fanout int, jobsPerSecond, backgroundLoad float64) (*IncastResult, error) {
	scale = scale.withDefaults()
	if v <= 0 {
		v = DefaultV
	}
	if jobsPerSecond <= 0 {
		jobsPerSecond = 400
	}
	if backgroundLoad <= 0 {
		backgroundLoad = 0.6
	}
	if fanout <= 0 {
		// Default: 8 backends, shrunk to fit small fabrics.
		fanout = min(8, scale.Hosts()-1)
	}
	srpt, fast, err := Cell{
		Scale:         scale,
		Options:       sched.Options{V: v},
		Load:          backgroundLoad,
		Pattern:       PatternIncast,
		Fanout:        fanout,
		JobsPerSecond: jobsPerSecond,
	}.srptAndFast()
	if err != nil {
		return nil, fmt.Errorf("incast: %w", err)
	}
	return &IncastResult{
		Scale:          scale,
		Fanout:         fanout,
		JobsPerSecond:  jobsPerSecond,
		BackgroundLoad: backgroundLoad,
		SRPT:           srpt,
		Fast:           fast,
	}, nil
}

// Render prints the incast comparison.
func (r *IncastResult) Render() string {
	tbl := trace.Table{
		Title: fmt.Sprintf("Incast (partition/aggregate) — fanout %d, %g jobs/s, %0.f%% background, %s",
			r.Fanout, r.JobsPerSecond, r.BackgroundLoad*100, r.Scale),
		Headers: []string{"scheme", "response avg ms", "response 99 ms", "bg avg ms", "Gbps", "leftover"},
	}
	addRow := func(name string, res *fabricsim.Result) {
		q := res.FCT.Stats(flow.ClassQuery)
		bg := res.FCT.Stats(flow.ClassBackground)
		tbl.AddRow(name,
			trace.Ms(q.MeanMs), trace.Ms(q.P99Ms), trace.Ms(bg.MeanMs),
			trace.Gbps(res.AverageGbps()), trace.Bytes(res.LeftoverBytes))
	}
	addRow("srpt", r.SRPT)
	addRow("fast-basrpt", r.Fast)
	return tbl.Render() +
		"\nextension: the synchronized responses serialize at the aggregator's egress port;\n" +
		"both size-based schemes drain them shortest-first, so the comparison isolates how\n" +
		"much response latency the backlog term costs under the paper's motivating pattern\n"
}
