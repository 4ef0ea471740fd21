package core

import (
	"fmt"

	"basrpt/internal/fabricsim"
	"basrpt/internal/faults"
	"basrpt/internal/flow"
	"basrpt/internal/runner"
	"basrpt/internal/sched"
	"basrpt/internal/workload"
)

// Cell is one point of a scenario grid: a single fabric simulation of one
// scheduler at one operating point, optionally under fault injection. It
// is the execution unit behind internal/scenario — every scenario cell
// maps to exactly one Cell per replicate seed — but it is equally usable
// for ad-hoc single runs.
type Cell struct {
	// Scale shapes the topology and horizon; Scale.Seed drives the
	// workload stream (and the scheduler's own RNG when it has one).
	Scale Scale
	// Scheduler is the registry name (sched.Names) of the discipline.
	Scheduler string
	// Options carries the discipline parameters. Options.Seed, when 0, is
	// set to the replicate seed so seeded disciplines vary per replicate.
	Options sched.Options
	// Load is the per-port offered load in (0, 1).
	Load float64
	// QueryFraction is the query byte share; 0 selects the harness
	// default.
	QueryFraction float64
	// Faults, when non-nil, injects a deterministic fault schedule and
	// adds the resilience metrics (recovery time, held decisions) to the
	// sample.
	Faults *CellFaults
}

// CellFaults configures a Cell's fault schedule, mirroring the E13
// resilience experiment: LinkFaults access-link windows (hard-down or
// degraded) plus Outages scheduler outages, all inside the middle 80% of
// the horizon.
type CellFaults struct {
	// LinkFaults and Outages count the schedule's fault windows.
	LinkFaults int
	Outages    int
	// Seed draws the schedule; 0 derives it from the cell's workload seed
	// so a multi-seed sweep varies the schedule with the workload.
	Seed uint64
}

// RunCell executes one cell and flattens the run into named metrics: the
// Table I FCT columns (query_avg_ms, query_p99_ms, bg_avg_ms, bg_p99_ms),
// throughput (gbps, departed_mb), queue behavior (maxport_tail_mb,
// queue_growth), flow accounting (completed_flows, leftover_flows), and —
// for fault cells — recovered, recovery_s (only when recovered),
// decisions_held, and prefault_mean_mb. The sample is a pure function of
// the cell: identical cells produce identical samples on any machine.
func RunCell(c Cell) (runner.Sample, error) {
	scale := c.Scale.withDefaults()
	if c.Load <= 0 || c.Load >= 1 {
		return nil, fmt.Errorf("cell: load %g outside (0, 1)", c.Load)
	}
	qf := c.QueryFraction
	if qf == 0 {
		qf = workload.DefaultQueryByteFraction
	}
	if c.Options.Seed == 0 {
		c.Options.Seed = scale.Seed
	}
	scheduler, err := sched.New(c.Scheduler, c.Options)
	if err != nil {
		return nil, fmt.Errorf("cell: %w", err)
	}
	topo, err := scale.Topology()
	if err != nil {
		return nil, err
	}
	gen, err := workload.NewMixed(workload.MixedConfig{
		Topology:          topo,
		Load:              c.Load,
		QueryByteFraction: qf,
		Duration:          scale.Duration,
		Seed:              scale.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("cell: build workload: %w", err)
	}
	cfg := fabricsim.Config{
		Hosts:     topo.NumHosts(),
		LinkBps:   topo.HostLinkBps(),
		Scheduler: scheduler,
		Generator: gen,
		Duration:  scale.Duration,
		Seed:      scale.Seed,
	}
	var schedule *faults.Schedule
	if c.Faults != nil {
		faultSeed := c.Faults.Seed
		if faultSeed == 0 {
			faultSeed = scale.Seed
		}
		schedule, err = faults.Generate(faults.Params{
			Seed:       faultSeed,
			Horizon:    scale.Duration,
			Ports:      topo.NumHosts(),
			LinkFaults: c.Faults.LinkFaults,
			Outages:    c.Faults.Outages,
		})
		if err != nil {
			return nil, fmt.Errorf("cell: generate fault schedule: %w", err)
		}
		cfg.Faults = faults.NewInjector(schedule)
		// The same generous divergence bound as the E13 experiment: armed
		// so a pathological interaction truncates instead of running
		// blind, but far above any stable run's backlog.
		cfg.Watchdog = &fabricsim.Watchdog{
			MaxBacklogBytes: float64(topo.NumHosts()) * topo.HostLinkBps() / 8 * scale.Duration,
		}
	}
	sim, err := fabricsim.New(cfg)
	if err != nil {
		return nil, err
	}
	res, err := sim.Run()
	if err != nil {
		return nil, err
	}
	sample := fabricSample(res, scale)
	if schedule != nil {
		addFaultMetrics(sample, res, schedule)
	}
	return sample, nil
}

// addFaultMetrics extends a fault cell's sample with the E13 resilience
// quantities. Recovery is only observable when the backlog returned
// inside the horizon; unrecovered replicates report the indicator instead
// of poisoning the mean with -1.
func addFaultMetrics(sample runner.Sample, res *fabricsim.Result, schedule *faults.Schedule) {
	preMean, recovery := recoveryTime(&res.TotalBacklogSeries, schedule)
	recovered := 0.0
	if recovery >= 0 {
		recovered = 1
		sample["recovery_s"] = recovery
	}
	sample["recovered"] = recovered
	sample["prefault_mean_mb"] = preMean / 1e6
	sample["decisions_held"] = float64(res.Faults.DecisionsHeld)
	truncated := 0.0
	if res.Truncated() {
		truncated = 1
	}
	sample["truncated"] = truncated
}

// fabricSample flattens the headline quantities of one fabric run — the
// Table I FCT columns, throughput, and queue stability — into named
// metrics.
func fabricSample(res *fabricsim.Result, scale Scale) runner.Sample {
	qAvg, qP99 := fctRow(res, flow.ClassQuery)
	bAvg, bP99 := fctRow(res, flow.ClassBackground)
	return runner.Sample{
		"query_avg_ms":    qAvg,
		"query_p99_ms":    qP99,
		"bg_avg_ms":       bAvg,
		"bg_p99_ms":       bP99,
		"gbps":            res.AverageGbps(),
		"departed_mb":     res.DepartedBytes / 1e6,
		"maxport_tail_mb": res.MaxPortSeries.TailMean(0.3) / 1e6,
		"queue_growth":    trendAfterWarmup(&res.MaxPortSeries, scale).GrowthRatio,
		"completed_flows": float64(res.CompletedFlows),
		"leftover_flows":  float64(res.LeftoverFlows),
	}
}
