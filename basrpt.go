// Package basrpt is a Go reproduction of "Backlog-Aware SRPT Flow
// Scheduling in Data Center Networks" (Zhang, Ren, Shu — ICDCS 2016): the
// BASRPT and fast BASRPT scheduling disciplines, the SRPT/MaxWeight/FIFO
// baselines, a continuous-time flow-level data-center fabric simulator, a
// slotted input-queued switch model, the paper's query+background traffic
// generator, and runners that regenerate every table and figure of the
// paper's evaluation.
//
// This root package is the public API: it re-exports the curated surface
// of the internal packages. Quick start:
//
//	topo, _ := basrpt.NewTopology(basrpt.ScaledTopology(2, 4))
//	gen, _ := basrpt.NewMixedWorkload(basrpt.MixedConfig{
//		Topology:          topo,
//		Load:              0.8,
//		QueryByteFraction: basrpt.DefaultQueryByteFraction,
//		Duration:          2,
//		Seed:              1,
//	})
//	sim, _ := basrpt.NewFabricSim(basrpt.FabricConfig{
//		Hosts:     topo.NumHosts(),
//		LinkBps:   topo.HostLinkBps(),
//		Scheduler: basrpt.NewFastBASRPT(2500),
//		Generator: gen,
//		Duration:  2,
//	})
//	res, _ := sim.Run()
//	fmt.Println(res.FCT.Stats(basrpt.ClassQuery).MeanMs)
//
// See the examples/ directory for runnable programs and DESIGN.md for the
// system inventory.
package basrpt

import (
	"io"

	"basrpt/internal/core"
	"basrpt/internal/fabricsim"
	"basrpt/internal/faults"
	"basrpt/internal/flow"
	"basrpt/internal/metrics"
	"basrpt/internal/obs"
	"basrpt/internal/ops"
	"basrpt/internal/runner"
	"basrpt/internal/sched"
	"basrpt/internal/stats"
	"basrpt/internal/switchsim"
	"basrpt/internal/topology"
	"basrpt/internal/trace"
	"basrpt/internal/workload"
)

// Scheduling disciplines (see internal/sched for the algorithmic details).
type (
	// Scheduler selects the set of flows to transmit after every arrival
	// and completion; decisions are crossbar matchings.
	Scheduler = sched.Scheduler
	// SchedulerOptions parameterizes NewScheduler.
	SchedulerOptions = sched.Options
)

// NewSRPT returns the SRPT baseline (pFabric-style greedy shortest
// remaining size first).
func NewSRPT() Scheduler { return sched.NewSRPT() }

// NewFastBASRPT returns the paper's Algorithm 1 with tradeoff weight v:
// flows are selected in non-decreasing order of (v/N)·remaining − backlog.
func NewFastBASRPT(v float64) Scheduler { return sched.NewFastBASRPT(v) }

// NewExactBASRPT returns the exhaustive drift-plus-penalty minimizer
// (Section IV-A); it is factorial in ports and panics beyond maxPorts
// (0 selects the default limit of 8).
func NewExactBASRPT(v float64, maxPorts int) Scheduler { return sched.NewExactBASRPT(v, maxPorts) }

// NewMaxWeight returns longest-queue-first — the V = 0 limit of BASRPT.
func NewMaxWeight() Scheduler { return sched.NewMaxWeight() }

// NewFIFOMatch returns oldest-flow-first matching.
func NewFIFOMatch() Scheduler { return sched.NewFIFOMatch() }

// NewThresholdBacklog returns the Figure 2 motivation strategy: VOQs whose
// backlog exceeds threshold jump ahead of the SRPT order.
func NewThresholdBacklog(threshold float64) Scheduler { return sched.NewThresholdBacklog(threshold) }

// NewScheduler builds a discipline by registry name ("srpt",
// "fast-basrpt", "exact-basrpt", "maxweight", "fifo", "threshold",
// "random").
func NewScheduler(name string, opts SchedulerOptions) (Scheduler, error) {
	return sched.New(name, opts)
}

// SchedulerNames lists the registry names accepted by NewScheduler.
func SchedulerNames() []string { return sched.Names() }

// Flow model.
type (
	// Flow is one transfer in the fabric.
	Flow = flow.Flow
	// FlowClass labels flows for per-class metrics.
	FlowClass = flow.Class
)

// Flow classes.
const (
	ClassQuery      = flow.ClassQuery
	ClassBackground = flow.ClassBackground
	ClassOther      = flow.ClassOther
)

// Topology (the multi-rooted tree of the paper's Figure 4).
type (
	// Topology is a validated fabric.
	Topology = topology.Topology
	// TopologyConfig describes racks, hosts and link speeds.
	TopologyConfig = topology.Config
)

// PaperTopology returns the evaluation fabric: 144 hosts, 12 racks,
// 3 cores, 10G edge links.
func PaperTopology() TopologyConfig { return topology.Paper() }

// ScaledTopology shrinks the paper fabric while staying non-blocking.
func ScaledTopology(racks, hostsPerRack int) TopologyConfig {
	return topology.Scaled(racks, hostsPerRack)
}

// NewTopology validates and builds a topology.
func NewTopology(cfg TopologyConfig) (*Topology, error) { return topology.New(cfg) }

// Workload generation (Section V-A traffic).
type (
	// Arrival is one generated flow arrival.
	Arrival = workload.Arrival
	// Generator yields arrivals in time order.
	Generator = workload.Generator
	// MixedConfig parameterizes the query+background mix.
	MixedConfig = workload.MixedConfig
	// IncastConfig parameterizes the partition/aggregate (incast) pattern.
	IncastConfig = workload.IncastConfig
)

// DefaultQueryByteFraction is the query/background byte split used by the
// experiment harness (the paper does not publish one).
const DefaultQueryByteFraction = workload.DefaultQueryByteFraction

// QueryBytes is the paper's fixed 20KB query size.
const QueryBytes = workload.QueryBytes

// NewMixedWorkload builds the two-class Poisson traffic generator.
func NewMixedWorkload(cfg MixedConfig) (Generator, error) { return workload.NewMixed(cfg) }

// NewSliceWorkload replays a fixed arrival list.
func NewSliceWorkload(arrivals []Arrival) Generator { return workload.NewSliceGenerator(arrivals) }

// NewIncastWorkload builds the partition/aggregate (incast) generator the
// paper's introduction motivates: per job, Fanout fixed-size responses
// converge on one aggregator host.
func NewIncastWorkload(cfg IncastConfig) (Generator, error) { return workload.NewIncast(cfg) }

// Randomness and distributions.
type (
	// RNG is the deterministic generator used throughout the simulators.
	RNG = stats.RNG
	// Sampler draws values from a distribution.
	Sampler = stats.Sampler
)

// NewRNG returns a seeded deterministic generator.
func NewRNG(seed uint64) *RNG { return stats.NewRNG(seed) }

// WebSearchSizes returns the DCTCP web-search flow-size distribution
// (bytes) the paper cites for background flows.
func WebSearchSizes() Sampler { return workload.WebSearchBytes() }

// DataMiningSizes returns the VL2 data-mining flow-size distribution
// (bytes).
func DataMiningSizes() Sampler { return workload.DataMiningBytes() }

// Fabric simulator (the paper's Java flow-level simulator rebuilt).
type (
	// FabricConfig parameterizes a run.
	FabricConfig = fabricsim.Config
	// FabricResult carries FCTs, throughput and queue series.
	FabricResult = fabricsim.Result
	// FabricSim is one simulation instance.
	FabricSim = fabricsim.Sim
	// FabricWatchdog bounds a run (backlog divergence, wall clock).
	FabricWatchdog = fabricsim.Watchdog
	// FabricDiagnosis explains a watchdog-truncated run.
	FabricDiagnosis = fabricsim.Diagnosis
	// ShardConfig parameterizes a run of the rack-decomposed engine
	// (RunShardedFabric): one cell per rack, conservative-lookahead
	// windows (see ARCHITECTURE.md "Sharded fabric").
	ShardConfig = fabricsim.ShardConfig
	// ShardImbalance is the decomposed engine's post-run wall-clock
	// attribution report (FabricResult.Imbalance): per-cell busy and
	// barrier-wait time, slowest-cell attribution, and the skew ratio.
	// Wall-clock plane only — never part of deterministic digests.
	ShardImbalance = fabricsim.ShardImbalance
	// RunProgress is the centralized engine's sample-tick heartbeat
	// payload (FabricConfig.OnProgress).
	RunProgress = fabricsim.RunProgress
	// ShardProgress is the decomposed engine's per-window heartbeat
	// payload (ShardConfig.OnWindow).
	ShardProgress = fabricsim.ShardProgress
)

// NewFabricSim validates the configuration and prepares a run.
func NewFabricSim(cfg FabricConfig) (*FabricSim, error) { return fabricsim.New(cfg) }

// ResumeFabricSim reconstructs a simulator from a checkpoint (see
// FabricConfig.CheckpointEvery) and rewinds it to the captured instant;
// Run then continues bit-for-bit — same Result, same trace — as the
// uninterrupted run would have.
func ResumeFabricSim(cfg FabricConfig, data []byte) (*FabricSim, error) {
	return fabricsim.Resume(cfg, data)
}

// ErrStopAfterCheckpoint, returned from a FabricConfig.CheckpointSink,
// halts the run cleanly right after the checkpoint is persisted: Run
// returns a "checkpoint-stop" diagnosis instead of an error.
var ErrStopAfterCheckpoint = fabricsim.ErrStopAfterCheckpoint

// RunShardedFabric executes one fabric run on the rack-decomposed
// engine (Shards >= 2; the centralized engine is NewFabricSim + Run).
// The result is byte-identical across every shard count >= 2 and any
// GOMAXPROCS. At 4k+ hosts the decomposed engine's per-rack matchings
// beat the centralized fabric-global matching by orders of magnitude
// (see `make bench-shard`).
func RunShardedFabric(cfg ShardConfig) (*FabricResult, error) { return fabricsim.RunShard(cfg) }

// ErrShardConfig is the sentinel wrapped by every ShardConfig
// validation failure.
var ErrShardConfig = fabricsim.ErrShardConfig

// Fault injection (deterministic, seed-driven; see internal/faults).
type (
	// FaultParams parameterizes fault-schedule generation.
	FaultParams = faults.Params
	// FaultSchedule is a materialized fault plan, replayable across
	// schedulers.
	FaultSchedule = faults.Schedule
	// FaultInjector answers the simulators' runtime fault queries.
	FaultInjector = faults.Injector
	// LinkFault is one access-link down/degraded window.
	LinkFault = faults.LinkFault
	// FaultWindow is one half-open fault interval.
	FaultWindow = faults.Window
	// FaultCounters tallies the fault events a run saw.
	FaultCounters = metrics.FaultCounters
)

// GenerateFaults derives a deterministic fault schedule from params: the
// same params yield a byte-identical schedule.
func GenerateFaults(p FaultParams) (*FaultSchedule, error) { return faults.Generate(p) }

// NewFaultInjector prepares a schedule for injection. Build one fresh
// injector per run so runs sharing a schedule see identical loss draws.
func NewFaultInjector(s *FaultSchedule) *FaultInjector { return faults.NewInjector(s) }

// Slotted switch model (paper Eq. 1).
type (
	// SwitchConfig parameterizes the slotted input-queued switch.
	SwitchConfig = switchsim.Config
	// SwitchSim is one slotted simulation.
	SwitchSim = switchsim.Sim
	// FlowArrival is a scripted slotted-model arrival.
	FlowArrival = switchsim.FlowArrival
)

// NewSwitchSim builds a slotted-switch simulation.
func NewSwitchSim(cfg SwitchConfig) (*SwitchSim, error) { return switchsim.New(cfg) }

// NewScriptedArrivals replays fixed slotted arrivals.
func NewScriptedArrivals(arrivals []FlowArrival) switchsim.ArrivalProcess {
	return switchsim.NewScriptedArrivals(arrivals)
}

// Metrics.
type (
	// FCTStats summarizes one flow class in milliseconds.
	FCTStats = metrics.ClassStats
	// Series is a time-indexed sample sequence.
	Series = metrics.Series
)

// Experiments (the paper's tables and figures; see DESIGN.md §3).
type (
	// Scale selects experiment fidelity (paper scale vs reduced).
	Scale = core.Scale
	// Fig1Result is the 3-flow instability example.
	Fig1Result = core.Fig1Result
	// Fig2Result is the queue-length motivation experiment.
	Fig2Result = core.Fig2Result
	// SaturationResult backs Table I and Figure 5.
	SaturationResult = core.SaturationResult
	// Fig6Result is the load sweep.
	Fig6Result = core.Fig6Result
	// VSweepResult backs Figures 7 and 8.
	VSweepResult = core.VSweepResult
	// TheoremResult validates Theorem 1 on the slotted switch.
	TheoremResult = core.TheoremResult
	// DTMCResult is the tiny-switch stationary analysis.
	DTMCResult = core.DTMCResult
	// AblationResult compares exact and fast BASRPT decisions.
	AblationResult = core.AblationResult
	// DistributedResult measures the request/grant emulation of fast
	// BASRPT against the centralized decisions.
	DistributedResult = core.DistributedResult
	// NoiseResult sweeps flow-size estimation error.
	NoiseResult = core.NoiseResult
	// IncastResult compares schedulers under the partition/aggregate
	// pattern.
	IncastResult = core.IncastResult
	// FaultsResult compares SRPT and fast BASRPT under identical injected
	// fault schedules.
	FaultsResult = core.FaultsResult
)

// Observability (see internal/obs): a deterministic instrumentation
// registry plus a sim-time event tracer with a flight-recorder ring. A nil
// *Obs (and every handle resolved from one) is a near-zero no-op, so
// instrumented code needs no "is observability on" branches.
type (
	// Obs is the per-run instrumentation handle; set FabricConfig.Obs (or
	// SwitchConfig.Obs) to attach it.
	Obs = obs.Obs
	// ObsOptions parameterizes NewObs (ring capacity, wall-clock stamping,
	// event sink).
	ObsOptions = obs.Options
	// ObsEvent is one sim-time-stamped trace event.
	ObsEvent = obs.Event
	// ObsSnapshot is a point-in-time copy of every registered instrument;
	// FabricResult.Obs carries one per run.
	ObsSnapshot = obs.Snapshot
	// ObsRegistry holds named counters, gauges, and histograms.
	ObsRegistry = obs.Registry
	// ObsEventSink receives every emitted event in order (the JSONL trace
	// writer satisfies this).
	ObsEventSink = obs.EventSink
	// TraceHeader is the schema-versioned first line of a JSONL trace.
	TraceHeader = trace.TraceHeader
	// TraceWriter streams events as JSONL; attach via ObsOptions.Sink.
	TraceWriter = trace.EventWriter
	// Timeline collects wall-clock execution spans from a decomposed
	// sharded run (ShardConfig.Timeline) for Chrome trace_event export.
	Timeline = obs.Timeline
	// TimelineSpan is one wall-clock execution span on a timeline track.
	TimelineSpan = obs.TimelineSpan
)

// TimelineCoordinator is the TimelineSpan.Track value for coordinator
// work (fold, route) as opposed to per-cell work.
const TimelineCoordinator = obs.TimelineCoordinator

// NewTimeline returns an empty span container; attach it via
// ShardConfig.Timeline and export with Timeline.WriteChromeTrace.
func NewTimeline() *Timeline { return obs.NewTimeline() }

// IsWallClockMetric reports whether an instrument name belongs to the
// wall-clock observability plane ("wall." or "runtime." prefixes), which
// deterministic digests and traces exclude.
func IsWallClockMetric(name string) bool { return obs.IsWallClock(name) }

// TraceSchema identifies the JSONL trace format this build writes and
// ReadTrace accepts.
const TraceSchema = trace.TraceSchema

// NewObs builds an enabled instrumentation handle. A nil *Obs is the
// disabled layer — every probe through it is a pointer comparison.
func NewObs(o ObsOptions) *Obs { return obs.New(o) }

// NewTraceWriter starts a JSONL trace on w by writing the schema-versioned
// header; pass the writer as ObsOptions.Sink to stream a run's events.
func NewTraceWriter(w io.Writer, h TraceHeader) (*TraceWriter, error) {
	return trace.NewEventWriter(w, h)
}

// NewTraceContinuationWriter streams events as JSONL with no header line
// — for continuing the trace of a checkpointed run, whose file already
// holds one. Concatenating the original partial trace with a continuation
// yields a single trace byte-identical to the uninterrupted run's.
func NewTraceContinuationWriter(w io.Writer) *TraceWriter {
	return trace.NewContinuationWriter(w)
}

// ReadTrace parses a JSONL trace, validating the schema and the event
// sequence; on corruption it returns the events salvaged before the bad
// line alongside the error.
func ReadTrace(r io.Reader) (TraceHeader, []ObsEvent, error) { return trace.ReadTrace(r) }

// Run context and multi-seed progress (see internal/runner). Multi-seed
// experiments are scenario specs (internal/scenario, cmd/basrptexp).
type (
	// Run is the run context the non-fabric experiment entry points take:
	// the primary seed plus auxiliary seeds derived from it.
	Run = core.Run
	// MultiProgress is one lifecycle notification from the multi-seed
	// runner behind scenario execution: unit identity, phase, and overall
	// completion count. OpsServer.PublishUnit consumes it.
	MultiProgress = runner.Progress
	// MultiPhase labels where a unit is in its lifecycle (start, resume,
	// done, failed).
	MultiPhase = runner.Phase
)

// SeedRun wraps a bare primary seed in a Run context.
func SeedRun(seed uint64) Run { return core.SeedRun(seed) }

// Live ops endpoint (see internal/ops): the wall-clock plane's network
// face — Prometheus /metrics, /progress JSON, and pprof over a plain
// HTTP listener. Publish-only: the simulation pushes copies in, nothing
// is ever read back, so determinism is untouched.
type (
	// OpsServer serves /metrics, /progress, and /debug/pprof for a
	// running simulation or experiment sweep.
	OpsServer = ops.Server
	// OpsRunState is the live position of a single fabric run as
	// published to an OpsServer.
	OpsRunState = ops.RunState
	// OpsShardState is the decomposed engine's pool-level position —
	// barrier cadence, worker count, per-cell busy/wait — as published
	// to an OpsServer (rendered as the basrpt_shard_* metric family).
	OpsShardState = ops.ShardState
	// OpsSeedState is one experiment unit's lifecycle state as exposed
	// by the /progress endpoint.
	OpsSeedState = ops.SeedState
)

// NewOpsServer starts the ops HTTP listener on addr (use "127.0.0.1:0"
// for an ephemeral port; OpsServer.URL reports the bound address). Close
// it when the run finishes.
func NewOpsServer(addr string) (*OpsServer, error) { return ops.NewServer(addr) }

// Predefined experiment scales.
var (
	ScaleSmall  = core.ScaleSmall
	ScaleMedium = core.ScaleMedium
	ScalePaper  = core.ScalePaper
)

// DefaultV is the paper's demonstration tradeoff weight (2500).
const DefaultV = core.DefaultV

// GrowthThreshold is the growth ratio above which a queue series is
// classified as macro-scale growing (see Series.Trend).
const GrowthThreshold = core.GrowthThreshold

// RunFig1 reproduces Figure 1.
func RunFig1() (*Fig1Result, error) { return core.RunFig1() }

// RunFig2 reproduces Figure 2 (threshold <= 0 selects the default).
func RunFig2(scale Scale, threshold float64) (*Fig2Result, error) {
	return core.RunFig2(scale, threshold)
}

// RunSaturation reproduces the near-capacity run behind Table I and
// Figure 5 (v <= 0 selects DefaultV).
func RunSaturation(scale Scale, v float64) (*SaturationResult, error) {
	return core.RunSaturation(scale, v)
}

// RunLoadPair runs SRPT and fast BASRPT head-to-head on an identical
// arrival stream at an arbitrary load.
func RunLoadPair(scale Scale, v, load float64) (*SaturationResult, error) {
	return core.RunLoadPair(scale, v, load)
}

// RunStability is the reduced-scale stability showcase behind Figures 2
// and 5(b): SRPT's queue grows while fast BASRPT's stabilizes. Use
// horizons of 40+ simulated seconds.
func RunStability(scale Scale, v float64) (*SaturationResult, error) {
	return core.RunStability(scale, v)
}

// RunDistributed measures how closely the request/grant distributed
// emulation of fast BASRPT tracks the centralized decisions per
// arbitration-round budget.
func RunDistributed(n, trials int, v float64, rounds []int, run Run) (*DistributedResult, error) {
	return core.RunDistributed(n, trials, v, rounds, run)
}

// RunNoise sweeps flow-size estimation error levels for fast BASRPT.
func RunNoise(scale Scale, v, load float64, levels []float64) (*NoiseResult, error) {
	return core.RunNoise(scale, v, load, levels)
}

// RunIncast compares SRPT and fast BASRPT under the partition/aggregate
// (incast) pattern.
func RunIncast(scale Scale, v float64, fanout int, jobsPerSecond, backgroundLoad float64) (*IncastResult, error) {
	return core.RunIncast(scale, v, fanout, jobsPerSecond, backgroundLoad)
}

// RunFaults compares SRPT and fast BASRPT under byte-identical workloads
// and fault schedules (link faults plus a scheduler outage), reporting
// per-class FCTs and backlog recovery time. Deterministic per
// run.FaultSeed.
func RunFaults(scale Scale, v float64, run Run) (*FaultsResult, error) {
	return core.RunFaults(scale, v, run)
}

// RunFig6 reproduces the Figure 6 load sweep (nil loads selects the
// paper's 10%–80%).
func RunFig6(scale Scale, v float64, loads []float64) (*Fig6Result, error) {
	return core.RunFig6(scale, v, loads)
}

// RunVSweep reproduces Figures 7 and 8 (nil selects the paper's V range).
func RunVSweep(scale Scale, vs []float64) (*VSweepResult, error) {
	return core.RunVSweep(scale, vs)
}

// RunTheorem1 validates Theorem 1 on an n-port slotted switch.
func RunTheorem1(n int, load float64, slots int64, vs []float64, run Run) (*TheoremResult, error) {
	return core.RunTheorem1(n, load, slots, vs, run)
}

// RunDTMC runs the tiny-switch stationary-distribution comparison.
func RunDTMC(capacity int, v float64) (*DTMCResult, error) { return core.RunDTMC(capacity, v) }

// RunExactVsFast measures the exact-vs-fast decision gap.
func RunExactVsFast(n, trials int, v float64, run Run) (*AblationResult, error) {
	return core.RunExactVsFast(n, trials, v, run)
}
