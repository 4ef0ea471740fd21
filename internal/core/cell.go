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

// Traffic patterns of a Cell.
const (
	// PatternMixed is the paper's Section V-A query+background mix.
	PatternMixed = "mixed"
	// PatternIncast is partition/aggregate: Fanout synchronized responses
	// per job converging on one aggregator, over rack-local background
	// traffic at Load.
	PatternIncast = "incast"
)

// Cell is one fabric run: a single simulation of one scheduler at one
// operating point, optionally under fault injection. It is the one
// recipe that assembles a run (topology, workload, scheduler, fault
// injector and watchdog): the paper experiments, internal/scenario (one
// Cell per grid cell and replicate seed) and cmd/basrptsim all build
// their runs through it.
type Cell struct {
	// Scale shapes the topology and horizon; Scale.Seed drives the
	// workload stream (and the scheduler's own RNG when it has one).
	Scale Scale
	// Scheduler is the registry name (sched.Names) of the discipline.
	Scheduler string
	// Options carries the discipline parameters. Options.Seed, when 0, is
	// set to the replicate seed so seeded disciplines vary per replicate.
	// The registry maps other zero options to its defaults; a caller that
	// needs a zero value replaces the built Config's Scheduler.
	Options sched.Options
	// Load is the per-port offered load in (0, 1); under PatternIncast it
	// is the background load (0 for none).
	Load float64
	// QueryFraction is the query byte share of PatternMixed; 0 selects
	// the harness default.
	QueryFraction float64
	// Pattern is PatternMixed (the default when empty) or PatternIncast.
	Pattern string
	// Fanout (backends per job) and JobsPerSecond shape PatternIncast.
	Fanout        int
	JobsPerSecond float64
	// Faults, when non-nil, injects a deterministic fault schedule and
	// arms the divergence watchdog; RunCell then adds the resilience
	// metrics (recovery time, held decisions) to the sample.
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

// Build assembles the cell's run on the centralized engine and returns
// its Config with the fault schedule (nil without Faults). Callers set
// only run plumbing on the Config (Obs, MonitorPort, the checkpoint
// sink, StreamWindow, OnProgress) before fabricsim.New.
func (c Cell) Build() (fabricsim.Config, *faults.Schedule, error) {
	scale := c.Scale.withDefaults()
	scheduler, err := sched.New(c.Scheduler, c.schedOptions(scale))
	if err != nil {
		return fabricsim.Config{}, nil, fmt.Errorf("cell: %w", err)
	}
	topo, err := scale.Topology()
	if err != nil {
		return fabricsim.Config{}, nil, err
	}
	var gen workload.Generator
	switch c.Pattern {
	case "", PatternMixed:
		gen, err = workload.NewMixed(workload.MixedConfig{
			Topology:          topo,
			Load:              c.Load,
			QueryByteFraction: c.queryFraction(),
			Duration:          scale.Duration,
			Seed:              scale.Seed,
		})
	case PatternIncast:
		gen, err = workload.NewIncast(workload.IncastConfig{
			Topology:       topo,
			JobsPerSecond:  c.JobsPerSecond,
			Fanout:         c.Fanout,
			BackgroundLoad: c.Load,
			Duration:       scale.Duration,
			Seed:           scale.Seed,
		})
	default:
		err = fmt.Errorf("unknown pattern %q (%s|%s)", c.Pattern, PatternMixed, PatternIncast)
	}
	if err != nil {
		return fabricsim.Config{}, nil, fmt.Errorf("cell: build workload: %w", err)
	}
	cfg := fabricsim.Config{
		Hosts:     topo.NumHosts(),
		LinkBps:   topo.HostLinkBps(),
		Scheduler: scheduler,
		Generator: gen,
		Duration:  scale.Duration,
		Seed:      scale.Seed,
	}
	if c.Faults == nil {
		return cfg, nil, nil
	}
	faultSeed := c.Faults.Seed
	if faultSeed == 0 {
		faultSeed = scale.Seed
	}
	schedule, err := faults.Generate(faults.Params{
		Seed:       faultSeed,
		Horizon:    scale.Duration,
		Ports:      topo.NumHosts(),
		LinkFaults: c.Faults.LinkFaults,
		Outages:    c.Faults.Outages,
	})
	if err != nil {
		return fabricsim.Config{}, nil, fmt.Errorf("cell: generate fault schedule: %w", err)
	}
	cfg.Faults = faults.NewInjector(schedule)
	// A generous divergence bound: armed so a pathological interaction
	// truncates instead of running blind, but far above any stable run's
	// backlog.
	cfg.Watchdog = &fabricsim.Watchdog{
		MaxBacklogBytes: float64(topo.NumHosts()) * topo.HostLinkBps() / 8 * scale.Duration,
	}
	return cfg, schedule, nil
}

// ShardConfig returns the same cell on the rack-decomposed engine, split
// over shards (>= 2) worker groups. The decomposed engine runs only the
// mixed pattern without faults. Callers set only run plumbing on it
// (Obs, MonitorPort, BarrierEvery, Workers, Timeline, OnWindow).
func (c Cell) ShardConfig(shards int) (fabricsim.ShardConfig, error) {
	if (c.Pattern != "" && c.Pattern != PatternMixed) || c.Faults != nil {
		return fabricsim.ShardConfig{}, fmt.Errorf("cell: the decomposed engine runs only the %s pattern without faults", PatternMixed)
	}
	scale := c.Scale.withDefaults()
	topo, err := scale.Topology()
	if err != nil {
		return fabricsim.ShardConfig{}, err
	}
	return fabricsim.ShardConfig{
		Topology:          topo,
		Scheduler:         c.Scheduler,
		SchedOpts:         c.schedOptions(scale),
		Load:              c.Load,
		QueryByteFraction: c.queryFraction(),
		Duration:          scale.Duration,
		Seed:              scale.Seed,
		Shards:            shards,
	}, nil
}

func (c Cell) schedOptions(scale Scale) sched.Options {
	opts := c.Options
	if opts.Seed == 0 {
		opts.Seed = scale.Seed
	}
	return opts
}

func (c Cell) queryFraction() float64 {
	if c.QueryFraction == 0 {
		return workload.DefaultQueryByteFraction
	}
	return c.QueryFraction
}

// run builds the cell and runs it on the centralized engine.
func (c Cell) run() (*fabricsim.Result, error) {
	cfg, _, err := c.Build()
	if err != nil {
		return nil, err
	}
	return runConfig(cfg)
}

// srptAndFast runs the cell under SRPT and under fast BASRPT. Both see
// the same arrivals, so the pair isolates the discipline.
func (c Cell) srptAndFast() (srpt, fast *fabricsim.Result, err error) {
	c.Scheduler = "srpt"
	if srpt, err = c.run(); err != nil {
		return nil, nil, fmt.Errorf("srpt: %w", err)
	}
	c.Scheduler = "fast-basrpt"
	if fast, err = c.run(); err != nil {
		return nil, nil, fmt.Errorf("fast-basrpt: %w", err)
	}
	return srpt, fast, nil
}

// runConfig runs an assembled Config on the centralized engine.
func runConfig(cfg fabricsim.Config) (*fabricsim.Result, error) {
	sim, err := fabricsim.New(cfg)
	if err != nil {
		return nil, err
	}
	return sim.Run()
}

// RunCell executes one cell and flattens the run into named metrics: the
// Table I FCT columns (query_avg_ms, query_p99_ms, bg_avg_ms, bg_p99_ms),
// throughput (gbps, departed_mb), queue behavior (maxport_tail_mb,
// queue_growth), flow accounting (completed_flows, leftover_flows), and —
// for fault cells — recovered, recovery_s (only when recovered),
// decisions_held, and prefault_mean_mb. The sample is a pure function of
// the cell: identical cells produce identical samples on any machine.
func RunCell(c Cell) (runner.Sample, error) {
	cfg, schedule, err := c.Build()
	if err != nil {
		return nil, err
	}
	res, err := runConfig(cfg)
	if err != nil {
		return nil, err
	}
	sample := fabricSample(res, c.Scale.withDefaults())
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
