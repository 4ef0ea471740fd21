package core

import (
	"fmt"
	"math"
	"strings"

	"basrpt/internal/fabricsim"
	"basrpt/internal/faults"
	"basrpt/internal/flow"
	"basrpt/internal/metrics"
	"basrpt/internal/sched"
	"basrpt/internal/trace"
)

// FaultsLoad is the offered load of the resilience experiment — below
// saturation so the fabric has headroom to drain the fault-built backlog
// and the recovery-time metric is finite.
const FaultsLoad = 0.8

// RecoveryFactor defines "recovered": the monitored backlog is back
// within RecoveryFactor × its pre-fault mean.
const RecoveryFactor = 2

// FaultsRun is one scheduler's measurement under the shared fault
// schedule.
type FaultsRun struct {
	Scheduler string
	Result    *fabricsim.Result

	QueryAvgMs float64
	QueryP99Ms float64
	BgAvgMs    float64
	BgP99Ms    float64
	Gbps       float64

	// PreFaultMeanBytes is the mean total backlog before the first fault
	// window opens — the recovery baseline.
	PreFaultMeanBytes float64
	// RecoverySec is the time after the last fault window closes until
	// the total backlog first returns within RecoveryFactor × the
	// pre-fault mean; −1 when it never recovers inside the horizon.
	RecoverySec float64
	Counters    metrics.FaultCounters
	Truncated   bool
}

// FaultsResult is the resilience experiment: SRPT vs fast BASRPT under
// byte-identical workloads AND byte-identical fault schedules (link
// faults plus a scheduler outage), reporting per-class FCTs and the
// recovery time of the fabric backlog.
type FaultsResult struct {
	Scale     Scale
	V         float64
	FaultSeed uint64
	Load      float64
	Schedule  *faults.Schedule

	SRPT FaultsRun
	Fast FaultsRun
}

// RunFaults executes the resilience experiment. v <= 0 selects DefaultV;
// the fault schedule is drawn from run.FaultSeed (0 derives it from
// run.Seed, 1 when both are unset) and scales with the horizon: three
// link faults (down or degraded) and one scheduler outage, all inside the
// middle 80% of the run. The workload seed stays scale.Seed so schedules
// and arrivals can be varied independently.
func RunFaults(scale Scale, v float64, run Run) (*FaultsResult, error) {
	scale = scale.withDefaults()
	if v <= 0 {
		v = DefaultV
	}
	faultSeed := run.withDefaults().FaultSeed
	res := &FaultsResult{
		Scale:     scale,
		V:         v,
		FaultSeed: faultSeed,
		Load:      FaultsLoad,
	}
	runOne := func(scheduler string) (FaultsRun, error) {
		// Each Build draws the same schedule into a fresh injector, so
		// both schedulers see identical fault draws.
		cfg, schedule, err := Cell{
			Scale:     scale,
			Scheduler: scheduler,
			Options:   sched.Options{V: v},
			Load:      FaultsLoad,
			Faults:    &CellFaults{LinkFaults: 3, Outages: 1, Seed: faultSeed},
		}.Build()
		if err != nil {
			return FaultsRun{}, err
		}
		res.Schedule = schedule
		r, err := runConfig(cfg)
		if err != nil {
			return FaultsRun{}, err
		}
		out := FaultsRun{
			Scheduler: r.SchedulerName,
			Result:    r,
			Gbps:      r.AverageGbps(),
			Counters:  r.Faults,
			Truncated: r.Truncated(),
		}
		out.QueryAvgMs, out.QueryP99Ms = fctRow(r, flow.ClassQuery)
		out.BgAvgMs, out.BgP99Ms = fctRow(r, flow.ClassBackground)
		out.PreFaultMeanBytes, out.RecoverySec = recoveryTime(&r.TotalBacklogSeries, schedule)
		return out, nil
	}
	var err error
	if res.SRPT, err = runOne("srpt"); err != nil {
		return nil, fmt.Errorf("faults srpt: %w", err)
	}
	if res.Fast, err = runOne("fast-basrpt"); err != nil {
		return nil, fmt.Errorf("faults fast-basrpt: %w", err)
	}
	return res, nil
}

// recoveryTime computes the recovery metric from a backlog series: the
// pre-fault mean (samples before the first fault window opens) and the
// delay after the last fault window closes until the backlog first drops
// back within RecoveryFactor × that mean (−1 if it never does).
func recoveryTime(series *metrics.Series, s *faults.Schedule) (preMean, recovery float64) {
	firstStart := s.FirstFaultStart()
	lastEnd := s.LastFaultEnd()
	if math.IsInf(firstStart, 1) {
		return 0, 0 // no fault windows: nothing to recover from
	}
	var sum float64
	var n int
	for i, t := range series.Times {
		if t >= firstStart {
			break
		}
		sum += series.Values[i]
		n++
	}
	if n > 0 {
		preMean = sum / float64(n)
	}
	for i, t := range series.Times {
		if t < lastEnd {
			continue
		}
		if series.Values[i] <= RecoveryFactor*preMean {
			return preMean, t - lastEnd
		}
	}
	return preMean, -1
}

// Render prints the resilience table and the fault schedule it ran under.
func (r *FaultsResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Faults — SRPT vs fast BASRPT under an identical fault schedule, load %.0f%%, V=%g, %s\n",
		r.Load*100, r.V, r.Scale)
	fmt.Fprintf(&b, "schedule: %s\n", r.Schedule)
	for _, lf := range r.Schedule.LinkFaults {
		mode := "down"
		if lf.RateFraction > 0 {
			mode = fmt.Sprintf("degraded to %.0f%%", lf.RateFraction*100)
		}
		fmt.Fprintf(&b, "  link fault: port %d %s over [%.3gs, %.3gs)\n", lf.Port, mode, lf.Start, lf.End)
	}
	for _, w := range r.Schedule.Outages {
		fmt.Fprintf(&b, "  scheduler outage: [%.3gs, %.3gs) — fabric holds the last matching\n", w.Start, w.End)
	}
	b.WriteString("\n")

	tbl := trace.Table{
		Headers: []string{
			"scheduler", "q-avg ms", "q-99 ms", "bg-avg ms", "Gbps",
			"recovery s", "held decisions", "truncated",
		},
	}
	for _, run := range []*FaultsRun{&r.SRPT, &r.Fast} {
		rec := "n/a"
		if run.RecoverySec >= 0 {
			rec = fmt.Sprintf("%.3f", run.RecoverySec)
		}
		trunc := "no"
		if run.Truncated {
			trunc = run.Result.Diagnosis.Reason
		}
		tbl.AddRow(run.Scheduler,
			trace.Ms(run.QueryAvgMs), trace.Ms(run.QueryP99Ms), trace.Ms(run.BgAvgMs),
			trace.Gbps(run.Gbps), rec, fmt.Sprintf("%d", run.Counters.DecisionsHeld), trunc)
	}
	b.WriteString(tbl.Render())
	b.WriteString("\nrecovery = time after the last fault window for the fabric backlog to return\n" +
		fmt.Sprintf("within %dx its pre-fault mean; expected: the backlog-aware discipline drains\n", RecoveryFactor) +
		"the fault-built backlog faster than pure SRPT\n")
	return b.String()
}
