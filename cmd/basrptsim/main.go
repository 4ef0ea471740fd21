// Command basrptsim runs one flow-level fabric simulation with a chosen
// scheduler and workload and prints the resulting metrics:
//
//	basrptsim -scheduler fast-basrpt -v 2500 -load 0.95 -racks 4 -hosts 6 -duration 5
//	basrptsim -scheduler srpt -load 0.6 -json
//	basrptsim -scheduler srpt -load 0.8 -faults -faultseed 7   # inject link faults + a scheduler outage
//	basrptsim -shards 4 -racks 344 -hosts 12 -duration 0.002 -timeline tl.json -ops 127.0.0.1:9090
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"basrpt"
	"basrpt/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "basrptsim:", err)
		os.Exit(1)
	}
}

// summary is the JSON export shape.
type summary struct {
	Scheduler      string  `json:"scheduler"`
	Hosts          int     `json:"hosts"`
	Load           float64 `json:"load"`
	DurationSec    float64 `json:"durationSec"`
	ArrivedFlows   int     `json:"arrivedFlows"`
	CompletedFlows int     `json:"completedFlows"`
	ThroughputGbps float64 `json:"throughputGbps"`
	LeftoverBytes  float64 `json:"leftoverBytes"`
	QueryAvgMs     float64 `json:"queryAvgMs"`
	QueryP99Ms     float64 `json:"queryP99Ms"`
	BgAvgMs        float64 `json:"backgroundAvgMs"`
	BgP99Ms        float64 `json:"backgroundP99Ms"`
	QueueVerdict   string  `json:"queueVerdict"`
	// Digest fingerprints every machine-independent result field: equal
	// digests mean equal runs, including checkpoint-resumed ones.
	Digest string `json:"digest"`

	Faults    *basrpt.FaultCounters   `json:"faults,omitempty"`
	Diagnosis *basrpt.FabricDiagnosis `json:"diagnosis,omitempty"`
	// Decomposed-engine extras: the shard count and the wall-clock
	// imbalance report (decomposed runs only; never part of the digest).
	Shards    int                    `json:"shards,omitempty"`
	Imbalance *basrpt.ShardImbalance `json:"imbalance,omitempty"`
}

// writeFileAtomic replaces path via a temp file + rename, so a checkpoint
// reader never observes a half-written file even if the writer dies.
func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// options holds the parsed command line.
type options struct {
	schedName, pattern, tracePath, ckptPath, resumeIn, timeline, opsAddr string

	v, threshold, load, duration, queryFrac, jobRate, ckptEvery, window float64

	racks, hosts, fanout, shards, barrier, workers int
	seed, faultSeed                                uint64
	inject, jsonOut, traceWall, haltAfter          bool
}

// parseFlags parses args and rejects flags the selected engine would
// ignore: -shards 1 is the centralized engine, -shards >= 2 the
// rack-decomposed one.
func parseFlags(args []string) (*options, error) {
	o := &options{}
	fs := flag.NewFlagSet("basrptsim", flag.ContinueOnError)
	fs.StringVar(&o.schedName, "scheduler", "fast-basrpt", fmt.Sprintf("scheduling discipline %v", basrpt.SchedulerNames()))
	fs.Float64Var(&o.v, "v", basrpt.DefaultV, "BASRPT tradeoff weight V")
	fs.Float64Var(&o.threshold, "threshold", 5e6, "threshold scheduler backlog threshold (bytes)")
	fs.Float64Var(&o.load, "load", 0.8, "per-port offered load in (0, 1)")
	fs.IntVar(&o.racks, "racks", 4, "number of racks")
	fs.IntVar(&o.hosts, "hosts", 6, "hosts per rack")
	fs.Float64Var(&o.duration, "duration", 4, "simulated seconds")
	fs.Uint64Var(&o.seed, "seed", 1, "random seed")
	fs.Float64Var(&o.queryFrac, "queryfrac", basrpt.DefaultQueryByteFraction, "fraction of offered bytes carried by 20KB queries")
	fs.StringVar(&o.pattern, "workload", "mixed", "traffic pattern: mixed (paper Section V-A) or incast (partition/aggregate)")
	fs.IntVar(&o.fanout, "fanout", 8, "incast: backends per job")
	fs.Float64Var(&o.jobRate, "jobs", 500, "incast: partition/aggregate jobs per second")
	fs.BoolVar(&o.inject, "faults", false, "inject a deterministic fault schedule (link faults + a scheduler outage)")
	fs.Uint64Var(&o.faultSeed, "faultseed", 1, "seed of the injected fault schedule")
	fs.BoolVar(&o.jsonOut, "json", false, "emit a JSON summary instead of text")
	fs.StringVar(&o.tracePath, "trace", "", "write a schema-versioned JSONL event trace to this file (byte-identical across fixed-seed runs)")
	fs.BoolVar(&o.traceWall, "tracewall", false, "stamp wall-clock nanos into trace events (breaks byte-identity across runs)")
	fs.StringVar(&o.ckptPath, "checkpoint", "", "persist periodic checkpoints to this file (atomic replace; also receives the watchdog's truncation checkpoint)")
	fs.Float64Var(&o.ckptEvery, "checkpointevery", 0, "simulated seconds between checkpoints (default duration/4 when -checkpoint is set)")
	fs.BoolVar(&o.haltAfter, "halt-after-checkpoint", false, "stop cleanly right after the first persisted checkpoint (resume later with -resume)")
	fs.StringVar(&o.resumeIn, "resume", "", "resume from this checkpoint file instead of starting at t=0 (flags must match the original run)")
	fs.Float64Var(&o.window, "window", 0, "streaming-results window in simulated seconds: emit window.* trace events and bound in-memory series/FCT reservoirs")
	fs.IntVar(&o.shards, "shards", 1, "fabric engine: 1 = centralized, >= 2 = rack-decomposed parallel cells (mixed workload only; no -faults, -checkpoint, -resume or -window)")
	fs.IntVar(&o.barrier, "barrier-every", 0, "with -shards >= 2: lookahead windows per coordinator barrier (0 = engine default; results are byte-identical at every value)")
	fs.IntVar(&o.workers, "workers", 0, "with -shards >= 2: persistent worker goroutines executing the cells (0 = GOMAXPROCS; wall-clock only)")
	fs.StringVar(&o.timeline, "timeline", "", "with -shards >= 2: write a Chrome trace_event timeline of cell/coordinator wall-clock execution to this file (open in chrome://tracing or Perfetto)")
	fs.StringVar(&o.opsAddr, "ops", "", "serve a live ops endpoint on this address while the run executes: Prometheus /metrics, /progress JSON, /debug/pprof")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if o.shards < 1 {
		return nil, fmt.Errorf("-shards %d < 1", o.shards)
	}
	if o.haltAfter && o.ckptPath == "" {
		return nil, fmt.Errorf("-halt-after-checkpoint requires -checkpoint")
	}
	// Each engine rejects the flags only the other one reads.
	type engineFlag struct {
		name string
		set  bool
	}
	foreign, owner := []engineFlag{
		{"-barrier-every", o.barrier != 0},
		{"-workers", o.workers != 0},
		{"-timeline", o.timeline != ""},
	}, "the decomposed engine (-shards >= 2)"
	if o.decomposed() {
		if o.pattern != "mixed" {
			return nil, fmt.Errorf("-shards >= 2 supports only -workload mixed")
		}
		foreign, owner = []engineFlag{
			{"-faults", o.inject},
			{"-checkpoint", o.ckptPath != ""},
			{"-resume", o.resumeIn != ""},
			{"-window", o.window != 0},
		}, "the centralized engine (-shards 1)"
	}
	for _, f := range foreign {
		if f.set {
			return nil, fmt.Errorf("%s requires %s", f.name, owner)
		}
	}
	return o, nil
}

// decomposed reports whether the run selects the rack-decomposed engine.
func (o *options) decomposed() bool { return o.shards >= 2 }

// fabricConfig builds the centralized engine's configuration: the
// scheduler, the workload, and the optional checkpoint sink and fault
// schedule.
func (o *options) fabricConfig(topo *basrpt.Topology) (basrpt.FabricConfig, error) {
	scheduler, err := basrpt.NewScheduler(o.schedName, o.schedOpts())
	if err != nil {
		return basrpt.FabricConfig{}, err
	}
	var gen basrpt.Generator
	switch o.pattern {
	case "mixed":
		gen, err = basrpt.NewMixedWorkload(basrpt.MixedConfig{
			Topology:          topo,
			Load:              o.load,
			QueryByteFraction: o.queryFrac,
			Duration:          o.duration,
			Seed:              o.seed,
		})
	case "incast":
		gen, err = basrpt.NewIncastWorkload(basrpt.IncastConfig{
			Topology:       topo,
			JobsPerSecond:  o.jobRate,
			Fanout:         o.fanout,
			BackgroundLoad: o.load,
			Duration:       o.duration,
			Seed:           o.seed,
		})
	default:
		err = fmt.Errorf("unknown workload %q (mixed|incast)", o.pattern)
	}
	if err != nil {
		return basrpt.FabricConfig{}, err
	}
	cfg := basrpt.FabricConfig{
		Hosts:        topo.NumHosts(),
		LinkBps:      topo.HostLinkBps(),
		Scheduler:    scheduler,
		Generator:    gen,
		Duration:     o.duration,
		Seed:         o.seed,
		StreamWindow: o.window,
	}
	if o.ckptPath != "" {
		cfg.CheckpointEvery = o.ckptEvery
		if cfg.CheckpointEvery <= 0 {
			cfg.CheckpointEvery = o.duration / 4
		}
		cfg.CheckpointSink = func(data []byte, simTime float64) error {
			if err := writeFileAtomic(o.ckptPath, data); err != nil {
				return err
			}
			if o.haltAfter {
				return basrpt.ErrStopAfterCheckpoint
			}
			return nil
		}
	}
	if o.inject {
		schedule, err := basrpt.GenerateFaults(basrpt.FaultParams{
			Seed:       o.faultSeed,
			Horizon:    o.duration,
			Ports:      topo.NumHosts(),
			LinkFaults: 3,
			Outages:    1,
		})
		if err != nil {
			return basrpt.FabricConfig{}, err
		}
		cfg.Faults = basrpt.NewFaultInjector(schedule)
	}
	return cfg, nil
}

// schedOpts is the discipline parameter set both engines receive.
func (o *options) schedOpts() basrpt.SchedulerOptions {
	return basrpt.SchedulerOptions{V: o.v, Threshold: o.threshold, Seed: o.seed}
}

// runFabric runs the centralized engine, from t=0 or from -resume.
func (o *options) runFabric(cfg basrpt.FabricConfig) (*basrpt.FabricResult, error) {
	var sim *basrpt.FabricSim
	if o.resumeIn != "" {
		data, err := os.ReadFile(o.resumeIn)
		if err != nil {
			return nil, fmt.Errorf("read checkpoint: %w", err)
		}
		if sim, err = basrpt.ResumeFabricSim(cfg, data); err != nil {
			return nil, err
		}
	} else {
		var err error
		if sim, err = basrpt.NewFabricSim(cfg); err != nil {
			return nil, err
		}
	}
	return sim.Run()
}

func run(args []string, w io.Writer) error {
	o, err := parseFlags(args)
	if err != nil {
		return err
	}
	topo, err := basrpt.NewTopology(basrpt.ScaledTopology(o.racks, o.hosts))
	if err != nil {
		return err
	}
	if err := topo.ValidateNonBlocking(); err != nil {
		return err
	}
	// Both engine configurations are filled from here on; only the one
	// -shards selects runs.
	var cfg basrpt.FabricConfig
	if !o.decomposed() {
		if cfg, err = o.fabricConfig(topo); err != nil {
			return err
		}
	}
	scfg := basrpt.ShardConfig{
		Topology:          topo,
		Scheduler:         o.schedName,
		SchedOpts:         o.schedOpts(),
		Load:              o.load,
		QueryByteFraction: o.queryFrac,
		Duration:          o.duration,
		Seed:              o.seed,
		Shards:            o.shards,
		BarrierEvery:      o.barrier,
		Workers:           o.workers,
	}
	if o.timeline != "" {
		scfg.Timeline = basrpt.NewTimeline()
	}

	var opsSrv *basrpt.OpsServer
	if o.opsAddr != "" {
		opsSrv, err = basrpt.NewOpsServer(o.opsAddr)
		if err != nil {
			return fmt.Errorf("start ops endpoint: %w", err)
		}
		defer opsSrv.Close()
		fmt.Fprintf(w, "[ops endpoint listening on %s]\n", opsSrv.URL())
		cfg.OnProgress = func(p basrpt.RunProgress) {
			opsSrv.PublishRun(basrpt.OpsRunState{
				SimTimeS: p.SimTime, DurationS: p.Duration, Windows: p.Windows,
				Decisions: p.Decisions, ArrivedFlows: p.ArrivedFlows, CompletedFlows: p.CompletedFlows,
			})
		}
		scfg.OnWindow = func(p basrpt.ShardProgress) {
			opsSrv.PublishRun(basrpt.OpsRunState{
				SimTimeS: p.SimTime, DurationS: p.Duration, Windows: p.Window + 1,
				Decisions: p.Decisions, ArrivedFlows: p.ArrivedFlows, CompletedFlows: p.CompletedFlows,
			})
			opsSrv.PublishShard(basrpt.OpsShardState{
				Barriers:          p.Barrier + 1,
				WindowsPerBarrier: p.WindowsPerBarrier,
				Cells:             p.Cells,
				Workers:           p.Workers,
				CellBusyNs:        p.CellBusyNs,
				CellWaitNs:        p.CellWaitNs,
			})
		}
	}

	var traceFile *os.File
	var traceWriter *basrpt.TraceWriter
	if o.tracePath != "" {
		traceFile, err = os.Create(o.tracePath)
		if err != nil {
			return fmt.Errorf("create trace: %w", err)
		}
		defer traceFile.Close()
		if o.resumeIn != "" {
			// A resumed run's trace has no header: concatenating the
			// original (pre-halt) trace with this continuation yields one
			// valid trace, byte-identical to an uninterrupted run's.
			traceWriter = basrpt.NewTraceContinuationWriter(traceFile)
		} else {
			traceWriter, err = basrpt.NewTraceWriter(traceFile, basrpt.TraceHeader{
				Seed:        int64(o.seed),
				Scheduler:   o.schedName,
				Hosts:       topo.NumHosts(),
				Load:        o.load,
				DurationSec: o.duration,
				WallClock:   o.traceWall,
			})
			if err != nil {
				return fmt.Errorf("start trace: %w", err)
			}
		}
		cfg.Obs = basrpt.NewObs(basrpt.ObsOptions{Sink: traceWriter, WallClock: o.traceWall})
		scfg.Obs = cfg.Obs
	}

	var res *basrpt.FabricResult
	if o.decomposed() {
		res, err = basrpt.RunShardedFabric(scfg)
	} else {
		res, err = o.runFabric(cfg)
	}
	if err != nil {
		return err
	}
	if opsSrv != nil {
		opsSrv.PublishSnapshot(res.Obs)
	}
	if traceWriter != nil {
		if err := traceWriter.Flush(); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
		if err := traceFile.Close(); err != nil {
			return fmt.Errorf("close trace: %w", err)
		}
	}
	if tl := scfg.Timeline; tl != nil {
		f, err := os.Create(o.timeline)
		if err != nil {
			return fmt.Errorf("create timeline: %w", err)
		}
		if err := tl.WriteChromeTrace(f); err != nil {
			f.Close()
			return fmt.Errorf("write timeline: %w", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("close timeline: %w", err)
		}
	}

	q := res.FCT.Stats(basrpt.ClassQuery)
	bg := res.FCT.Stats(basrpt.ClassBackground)
	out := summary{
		Scheduler:      res.SchedulerName,
		Hosts:          topo.NumHosts(),
		Load:           o.load,
		DurationSec:    o.duration,
		ArrivedFlows:   res.ArrivedFlows,
		CompletedFlows: res.CompletedFlows,
		ThroughputGbps: res.AverageGbps(),
		LeftoverBytes:  res.LeftoverBytes,
		QueryAvgMs:     q.MeanMs,
		QueryP99Ms:     q.P99Ms,
		BgAvgMs:        bg.MeanMs,
		BgP99Ms:        bg.P99Ms,
		QueueVerdict:   res.MaxPortSeries.Trend(basrpt.GrowthThreshold).Verdict.String(),
		Digest:         res.DeterministicDigest(),
		Diagnosis:      res.Diagnosis,
		Imbalance:      res.Imbalance,
	}
	if res.Faults.Any() {
		out.Faults = &res.Faults
	}
	if o.decomposed() {
		out.Shards = o.shards
	}
	// A watchdog truncation carries a resumable checkpoint; persist it so
	// the degraded run can be continued with -resume after relaxing the
	// bound that tripped.
	truncCkpt := 0
	if d := res.Diagnosis; d != nil && len(d.Checkpoint) > 0 && o.ckptPath != "" {
		if err := writeFileAtomic(o.ckptPath, d.Checkpoint); err != nil {
			return fmt.Errorf("persist truncation checkpoint: %w", err)
		}
		truncCkpt = len(d.Checkpoint)
	}
	if o.jsonOut {
		return trace.WriteJSON(w, out)
	}

	title := fmt.Sprintf("%s on %d hosts at %.0f%% load for %gs", out.Scheduler, out.Hosts, out.Load*100, out.DurationSec)
	if out.Shards > 0 {
		title += fmt.Sprintf(" (%d shards)", out.Shards)
	}
	tbl := trace.Table{Title: title, Headers: []string{"metric", "value"}}
	tbl.AddRow("flows arrived/completed", fmt.Sprintf("%d / %d", out.ArrivedFlows, out.CompletedFlows))
	tbl.AddRow("throughput", trace.Gbps(out.ThroughputGbps)+" Gbps")
	tbl.AddRow("leftover backlog", trace.Bytes(out.LeftoverBytes))
	tbl.AddRow("query FCT avg / 99th", trace.Ms(out.QueryAvgMs)+" / "+trace.Ms(out.QueryP99Ms)+" ms")
	tbl.AddRow("background FCT avg / 99th", trace.Ms(out.BgAvgMs)+" / "+trace.Ms(out.BgP99Ms)+" ms")
	tbl.AddRow("queue trend", out.QueueVerdict)
	if c := out.Faults; c != nil {
		tbl.AddRow("link faults seen", fmt.Sprintf("%d started / %d ended", c.LinkFaultStarts, c.LinkFaultEnds))
		tbl.AddRow("scheduler outages", fmt.Sprintf("%d (held %d decisions)", c.OutageStarts, c.DecisionsHeld))
	}
	if d := out.Diagnosis; d != nil {
		tbl.AddRow("watchdog", d.String())
	}
	if traceWriter != nil {
		tbl.AddRow("trace", fmt.Sprintf("%d events -> %s", traceWriter.Events(), o.tracePath))
	}
	if tl := scfg.Timeline; tl != nil {
		tbl.AddRow("timeline", fmt.Sprintf("%d spans -> %s (open in chrome://tracing)", tl.Len(), o.timeline))
	}
	if truncCkpt > 0 {
		tbl.AddRow("checkpoint", fmt.Sprintf("%d bytes -> %s (resume with -resume %s)", truncCkpt, o.ckptPath, o.ckptPath))
	}
	tbl.AddRow("digest", out.Digest)
	fmt.Fprint(w, tbl.Render())
	fmt.Fprintln(w)
	if im := res.Imbalance; im != nil {
		fmt.Fprintln(w, im.String())
	}
	fmt.Fprint(w, trace.Chart("max-port backlog (bytes)", &res.MaxPortSeries, 60, 8))
	return nil
}
