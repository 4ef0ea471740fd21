// Package fabricsim is the flow-level data-center fabric simulator that the
// paper's evaluation runs on (Section V) — the authors' Java simulator
// rebuilt in Go. The fabric is the big-switch abstraction justified in
// Section III-A: every host is a port with a full-duplex access link, the
// core is non-blocking (validated by internal/topology), and a centralized
// scheduler picks a crossbar matching of flows.
//
// The engine is event-driven and continuous-time: between events every
// selected flow transmits at the access-link rate, and — exactly as the
// paper specifies — "the scheduling decision is updated when a flow comes
// or a transfer completes". Events are flow arrivals, flow completions,
// and metric sampling ticks.
//
// A Sim single-steps one simulation and is not safe for concurrent use;
// neither are the Scheduler, Generator, or faults.Injector it is
// configured with. Parallel experiments (the internal/runner worker pool)
// therefore build a complete Sim — scheduler included — inside each worker
// task rather than sharing components. Results, including watchdog
// truncation diagnoses, are plain values that are safe to read from any
// goroutine once Run returns.
package fabricsim

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"basrpt/internal/faults"
	"basrpt/internal/flow"
	"basrpt/internal/metrics"
	"basrpt/internal/obs"
	"basrpt/internal/sched"
	"basrpt/internal/workload"
)

// Config parameterizes a fabric run.
type Config struct {
	// Hosts is the number of fabric ports (servers).
	Hosts int
	// LinkBps is the access-link rate in bits per second (the paper uses
	// 10 Gbps).
	LinkBps float64
	// Scheduler picks the transmitting flows after every arrival and
	// completion.
	Scheduler sched.Scheduler
	// Generator supplies the flow arrivals.
	Generator workload.Generator
	// Duration is the simulated horizon in seconds.
	Duration float64
	// SampleInterval is the spacing of queue-length samples in seconds
	// (default: Duration/500).
	SampleInterval float64
	// MonitorPort is the ingress port whose backlog becomes QueueSeries —
	// the "queue length at a port" of Figures 2 and 5(b). Default 0.
	MonitorPort int
	// ThroughputBucket is the width (seconds) of the throughput series
	// buckets for Figure 5(a). Default: Duration/50.
	ThroughputBucket float64
	// ValidateDecisions re-checks the crossbar constraint on every
	// scheduling decision (tests set this; experiment sweeps leave it off).
	ValidateDecisions bool
	// DeepValidateEvery, when positive, recomputes the entire VOQ-table
	// bookkeeping from first principles every k scheduling decisions and
	// fails the run on any divergence — a self-check against incremental-
	// accounting bugs (float drift, heap corruption). Expensive; used by
	// tests and long validation runs.
	DeepValidateEvery int64
	// Seed is informational: it identifies the run in error messages and
	// diagnoses so failed sweep points are replayable. It does not drive
	// any randomness here (the generator and schedulers own their seeds).
	Seed uint64
	// DisableFlowPool turns off the recycling of completed Flow structs
	// through the simulator's free list, so every arrival allocates as it
	// did before pooling existed. Recycling is invisible to the physics —
	// pooled and non-pooled runs produce byte-identical Results at a fixed
	// seed (TestFlowPoolEquivalence) — so the knob exists only for that
	// A/B comparison. Pooling also switches off automatically when Faults
	// is set: the outage fallback's held matching retains flow pointers
	// across completions, which recycling would invalidate.
	DisableFlowPool bool
	// Faults, when non-nil, injects the schedule's link faults (access
	// links down or degraded for an interval, forcing reschedules at the
	// boundaries) and scheduler outages (decisions served from the held
	// matching via sched.OutageFallback). Build one fresh injector per run.
	Faults *faults.Injector
	// Watchdog, when non-nil, bounds the run and truncates it gracefully —
	// partial Result plus Diagnosis — instead of running blind.
	Watchdog *Watchdog
	// Obs, when non-nil, receives the run's instrumentation: backlog
	// samples, completion and fault-boundary events, and the flight
	// recorder that truncation diagnoses quote. All events are stamped
	// with simulation time, so fixed-seed traced runs are byte-identical.
	// When nil the simulator still accumulates its counters (Decisions,
	// SchedNanos) through a private registry; the per-probe cost is the
	// same pointer-indirected add either way, and the event probes reduce
	// to one pointer comparison.
	Obs *obs.Obs

	// CheckpointEvery, when positive, snapshots the full simulator state
	// every that many simulated seconds and hands the encoded checkpoint
	// to CheckpointSink. Checkpoints are taken at event-loop tops, where
	// the state is fully consistent, so restoring one re-enters the loop
	// exactly where the original run stood. Requires a Generator that
	// implements workload.Checkpointable and a non-nil CheckpointSink.
	CheckpointEvery float64
	// CheckpointSink receives each periodic checkpoint (encoded bytes plus
	// the simulated time it covers). Returning ErrStopAfterCheckpoint
	// halts the run cleanly — partial Result with a "checkpoint-stop"
	// Diagnosis carrying the bytes — without emitting any trace event, so
	// a halted run's trace concatenated with its resumed continuation is
	// byte-identical to the uninterrupted run's. Any other error fails
	// the run.
	CheckpointSink func(data []byte, simTime float64) error
	// StreamWindow, when positive, turns on streaming results mode for
	// long horizons: every StreamWindow simulated seconds the run emits
	// window.completed / window.gbps / window.fct_avg_ms / window.backlog
	// events through Obs, FCT sample retention switches to a bounded tail
	// (see StreamKeep), and the queue series are trimmed to their tails —
	// bounded memory regardless of horizon.
	StreamWindow float64
	// StreamKeep bounds per-class FCT samples and per-series points kept
	// in streaming mode (default 4096). Ignored when StreamWindow is 0.
	StreamKeep int
	// OnProgress, when non-nil, receives the run's live position at every
	// sample tick — the centralized engine's heartbeat for ops endpoints
	// and progress displays. It belongs to the wall-clock observability
	// plane: the callback runs on the simulation goroutine and must not
	// feed anything deterministic (the run's physics, results, and traces
	// are byte-identical whether or not it is set).
	OnProgress func(RunProgress)
}

// RunProgress is the live heartbeat handed to Config.OnProgress at each
// sample tick: where the simulated clock stands and how much work the
// engine has done so far. Wall-clock plane only — values are consistent
// at the tick but the callback cadence follows SampleInterval.
type RunProgress struct {
	// SimTime is the simulated clock in seconds; Duration the configured
	// horizon.
	SimTime  float64
	Duration float64
	// Windows counts streaming windows flushed so far (0 outside
	// streaming mode).
	Windows int
	// Decisions, ArrivedFlows, and CompletedFlows are cumulative work
	// counters at the tick.
	Decisions      int64
	ArrivedFlows   int
	CompletedFlows int
	// BacklogBytes is the fabric's total backlog at the tick.
	BacklogBytes float64
}

// ErrStopAfterCheckpoint, returned from a CheckpointSink, halts the run
// cleanly right after the checkpoint is taken. See Config.CheckpointSink.
var ErrStopAfterCheckpoint = errors.New("fabricsim: stop after checkpoint")

// Watchdog bounds a run. Zero-valued limits are disabled.
type Watchdog struct {
	// MaxBacklogBytes trips when the fabric's total backlog exceeds it —
	// the divergence detector for runs past the stability boundary. It is
	// checked at sample ticks, so truncation stays deterministic.
	MaxBacklogBytes float64
	// MaxWallClock bounds real elapsed time. Checked every few thousand
	// events; truncation at this limit is inherently machine-dependent, so
	// deterministic experiments should rely on MaxBacklogBytes.
	MaxWallClock time.Duration
	// DiagnosisEvents is how many flight-recorder events a truncation
	// Diagnosis captures (default 16, capped by the recorder's ring;
	// negative disables the capture). Only meaningful when the run has a
	// Config.Obs.
	DiagnosisEvents int
	// VerboseDiagnosis makes Diagnosis.String() print the captured
	// flight-recorder events after the one-line summary, so a truncated
	// run explains the event sequence that led to the stop.
	VerboseDiagnosis bool
}

// Diagnosis explains a watchdog truncation. A nil Result.Diagnosis means
// the run reached its horizon.
type Diagnosis struct {
	// Reason is "backlog-bound", "wallclock-budget", or "checkpoint-stop"
	// (a clean halt requested by the checkpoint sink, not a failure).
	Reason string
	// SimTime is the simulated time reached (seconds).
	SimTime float64
	// BacklogBytes is the fabric backlog at the stop.
	BacklogBytes float64
	// Events is the number of scheduling decisions taken.
	Events int64
	// Seed echoes Config.Seed for replay.
	Seed uint64
	// TableEpoch is the VOQ table's mutation epoch at the stop (see
	// flow.Table change tracking) — together with Seed it pins the exact
	// table state for replaying incremental-index divergences.
	TableEpoch uint64
	// LastEvents is the tail of the flight recorder at the stop — the
	// event sequence that led to the truncation, oldest first. Empty when
	// the run had no Config.Obs or Watchdog.DiagnosisEvents is negative.
	LastEvents []obs.Event
	// Verbose mirrors Watchdog.VerboseDiagnosis: String() appends
	// LastEvents after the summary line.
	Verbose bool
	// Checkpoint is the encoded simulator state at the stop, captured
	// before the truncation event was emitted, so the truncated run is
	// resumable (see Resume) instead of merely explained. Populated for
	// "checkpoint-stop" always, and for watchdog truncations when the
	// generator supports checkpointing. Excluded from JSON: diagnosis
	// serializations stay small and deterministic.
	Checkpoint []byte `json:"-"`
	// CheckpointErr records why a truncation checkpoint could not be
	// captured (empty on success or when capture was not attempted).
	CheckpointErr string
}

// String renders the diagnosis as a one-line summary, followed by the
// captured flight-recorder events when Verbose is set.
func (d *Diagnosis) String() string {
	s := fmt.Sprintf("truncated (%s) at t=%.4gs: backlog %.4g bytes after %d decisions (seed %d, epoch %d)",
		d.Reason, d.SimTime, d.BacklogBytes, d.Events, d.Seed, d.TableEpoch)
	if !d.Verbose || len(d.LastEvents) == 0 {
		return s
	}
	var b strings.Builder
	b.WriteString(s)
	fmt.Fprintf(&b, "\nlast %d events:", len(d.LastEvents))
	for _, ev := range d.LastEvents {
		fmt.Fprintf(&b, "\n  #%d t=%.6gs %s port=%d value=%.6g", ev.Seq, ev.T, ev.Kind, ev.Port, ev.Value)
		if ev.Detail != "" {
			fmt.Fprintf(&b, " (%s)", ev.Detail)
		}
	}
	return b.String()
}

// wallClockCheckEvery is how many event-loop iterations pass between
// wall-clock watchdog checks.
const wallClockCheckEvery = 4096

// defaultDiagnosisEvents is how many flight-recorder events a truncation
// Diagnosis captures when Watchdog.DiagnosisEvents is zero.
const defaultDiagnosisEvents = 16

// defaultStreamKeep is the streaming-mode retention bound when
// Config.StreamKeep is zero: per-class FCT samples and per-series points
// kept in memory regardless of horizon length.
const defaultStreamKeep = 4096

// Result carries everything the paper's figures and tables read off a run.
type Result struct {
	// FCT holds per-class completion times in seconds.
	FCT *metrics.FCT
	// Throughput accounts bytes leaving the fabric over time.
	Throughput *metrics.Throughput
	// QueueSeries samples the monitored ingress port's backlog (bytes).
	QueueSeries metrics.Series
	// TotalBacklogSeries samples the whole fabric's backlog (bytes).
	TotalBacklogSeries metrics.Series
	// MaxPortSeries samples the worst ingress-port backlog (bytes).
	MaxPortSeries metrics.Series

	ArrivedFlows   int
	CompletedFlows int
	ArrivedBytes   float64
	DepartedBytes  float64
	LeftoverBytes  float64
	LeftoverFlows  int
	Decisions      int64
	// SchedNanos is the cumulative wall-clock time spent inside
	// Scheduler.Schedule, in nanoseconds. It is measured, not simulated —
	// machine-dependent by nature — so it feeds the scheduling benchmarks
	// and never enters the deterministic sample aggregates the multi-seed
	// runner compares across worker counts.
	SchedNanos int64
	// Duration is the simulated time covered: the configured horizon, or
	// the truncation point when the watchdog stopped the run early.
	Duration      float64
	SchedulerName string

	// Faults counts the injected fault events the run saw (zero-valued
	// for fault-free runs).
	Faults metrics.FaultCounters
	// Diagnosis is non-nil when the watchdog truncated the run; the
	// metrics above still satisfy arrived = departed + backlog.
	Diagnosis *Diagnosis

	// ShardObs holds one deterministic-plane registry snapshot per PDES
	// cell, in rack order, for decomposed (RunShard) runs — per-cell
	// decisions, windows advanced, inter-shard messages sent/delivered,
	// eventq high-water — plus each cell's wall-clock busy/barrier-wait
	// counters ("wall." names, excluded from digests via obs.IsWallClock).
	// The deterministic entries are byte-identical across shard counts
	// and GOMAXPROCS (property-tested, and folded into
	// DeterministicDigest). Nil for centralized runs.
	ShardObs []obs.Snapshot
	// Imbalance is the decomposed run's post-run wall-clock attribution
	// report: which cell the barriers waited on and how skewed the load
	// was. Wall-clock plane — never digested, never byte-compared. Nil
	// for centralized runs.
	Imbalance *ShardImbalance

	// Obs is the end-of-run snapshot of the instrumentation registry —
	// every counter, gauge, and histogram the run accumulated, including
	// the slow-path stats finish() folds in (incremental-index
	// repair/rebuild counts, held decisions, arbitration rounds, event-
	// calendar high-water). Populated whether or not Config.Obs was set;
	// wall-clock-derived entries (fabric.sched_nanos, fabric.decision_ns)
	// are machine-dependent and never enter deterministic comparisons.
	Obs obs.Snapshot
}

// Truncated reports whether the watchdog stopped the run early.
func (r *Result) Truncated() bool { return r.Diagnosis != nil }

// AverageGbps returns the run's mean departure rate in Gbps — the paper's
// global throughput metric.
func (r *Result) AverageGbps() float64 {
	return r.Throughput.AverageGbps(r.Duration)
}

// DecisionsPerSec returns the measured scheduling throughput: decisions
// divided by the wall-clock time spent inside Scheduler.Schedule. Zero
// when the run took no decisions (or none were timed).
func (r *Result) DecisionsPerSec() float64 {
	if r.SchedNanos <= 0 {
		return 0
	}
	return float64(r.Decisions) / (float64(r.SchedNanos) * 1e-9)
}

// Sim is a single fabric simulation: the package's event-loop kernel run
// over every host, with arrivals drawn from the configured generator and
// checkpoints, streaming windows, and the watchdog layered on top. Build
// with New, execute with Run.
type Sim struct {
	kernel
	cfg    Config
	nextID flow.ID
	res    *Result

	pendingArrival workload.Arrival
	hasPending     bool

	// Checkpoint/streaming machinery. pendingTruncate defers a watchdog
	// stop to the next loop top — the only place the state is consistent
	// enough to checkpoint — so every truncation Diagnosis can carry a
	// resumable snapshot; haltData is the checkpoint a sink halted the run
	// on. The win* trackers feed the streaming windows' delta
	// computations; all of them are serialized verbatim so a resumed run's
	// windows match the uninterrupted run's.
	nextCheckpoint  float64
	nextWindow      float64
	pendingTruncate string
	haltData        []byte
	resumed         bool
	winDeparted0    float64
	winCompleted0   int
	winFCTSum0      float64
	wallStart       time.Time
	iter            int64

	// reg is cfg.Obs's registry when tracing is on and a private registry
	// otherwise, so the kernel's decision counters are always live —
	// Result.Decisions/SchedNanos are copied out of them at finish,
	// keeping reported values identical with and without obs.
	reg *obs.Registry
}

// New validates the configuration and prepares a run.
func New(cfg Config) (*Sim, error) {
	if cfg.Hosts <= 0 {
		return nil, fmt.Errorf("fabricsim: invalid host count %d", cfg.Hosts)
	}
	if cfg.LinkBps <= 0 {
		return nil, fmt.Errorf("fabricsim: invalid link rate %g", cfg.LinkBps)
	}
	if cfg.Scheduler == nil {
		return nil, fmt.Errorf("fabricsim: nil scheduler")
	}
	if cfg.Generator == nil {
		return nil, fmt.Errorf("fabricsim: nil generator")
	}
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("fabricsim: invalid duration %g", cfg.Duration)
	}
	if cfg.MonitorPort < 0 || cfg.MonitorPort >= cfg.Hosts {
		return nil, fmt.Errorf("fabricsim: monitor port %d out of range", cfg.MonitorPort)
	}
	if cfg.SampleInterval <= 0 {
		cfg.SampleInterval = cfg.Duration / 500
	}
	if cfg.ThroughputBucket <= 0 {
		cfg.ThroughputBucket = cfg.Duration / 50
	}
	if cfg.Faults != nil {
		if err := cfg.Faults.Schedule().Validate(); err != nil {
			return nil, err
		}
		for _, lf := range cfg.Faults.Schedule().LinkFaults {
			if lf.Port >= cfg.Hosts {
				return nil, fmt.Errorf("fabricsim: link fault on port %d, fabric has %d hosts", lf.Port, cfg.Hosts)
			}
		}
	}
	if wd := cfg.Watchdog; wd != nil && (wd.MaxBacklogBytes < 0 || wd.MaxWallClock < 0) {
		return nil, fmt.Errorf("fabricsim: negative watchdog bound %+v", *wd)
	}
	if cfg.CheckpointEvery < 0 {
		return nil, fmt.Errorf("fabricsim: negative checkpoint interval %g", cfg.CheckpointEvery)
	}
	if cfg.CheckpointEvery > 0 && cfg.CheckpointSink == nil {
		return nil, fmt.Errorf("fabricsim: checkpoint interval set without a sink")
	}
	if cfg.CheckpointSink != nil {
		if cfg.CheckpointEvery <= 0 {
			return nil, fmt.Errorf("fabricsim: checkpoint sink set without an interval")
		}
		if _, ok := cfg.Generator.(workload.Checkpointable); !ok {
			return nil, fmt.Errorf("fabricsim: checkpointing requires a workload.Checkpointable generator, have %T", cfg.Generator)
		}
	}
	if cfg.StreamWindow < 0 || cfg.StreamKeep < 0 {
		return nil, fmt.Errorf("fabricsim: negative streaming parameter (window %g, keep %d)", cfg.StreamWindow, cfg.StreamKeep)
	}
	if cfg.StreamWindow > 0 && cfg.StreamKeep == 0 {
		cfg.StreamKeep = defaultStreamKeep
	}
	fct := metrics.NewFCT()
	if cfg.StreamWindow > 0 {
		fct = metrics.NewBoundedFCT(cfg.StreamKeep)
	}
	s := &Sim{
		cfg:            cfg,
		nextID:         1,
		res:            &Result{Duration: cfg.Duration},
		nextCheckpoint: cfg.CheckpointEvery,
		nextWindow:     cfg.StreamWindow,
		reg:            cfg.Obs.Registry(),
	}
	if s.reg == nil {
		s.reg = obs.NewRegistry()
	}
	s.kernel = kernel{
		own:      s,
		ports:    cfg.Hosts,
		byteRate: cfg.LinkBps / 8,
		dur:      cfg.Duration,
		interval: cfg.SampleInterval,
		seed:     cfg.Seed,
		cell:     -1,

		scheduler: cfg.Scheduler,
		faults:    cfg.Faults,
		obs:       cfg.Obs,
		poolOn:    !cfg.DisableFlowPool && cfg.Faults == nil, // see DisableFlowPool
		validate:  cfg.ValidateDecisions,
		deepEvery: cfg.DeepValidateEvery,

		fct:         fct,
		thr:         metrics.NewThroughput(cfg.ThroughputBucket),
		cDecisions:  s.reg.Counter("fabric.decisions"),
		cSchedNanos: s.reg.Counter("fabric.sched_nanos"),
		hDecisionNs: s.reg.Histogram("fabric.decision_ns"),
	}
	s.init()
	// A fault run reports the wrapped name ("...+hold"), so it is
	// recognizable in reports.
	s.res.SchedulerName = s.scheduler.Name()
	if cfg.Faults != nil {
		cfg.Faults.SetRegistry(s.reg)
	}
	return s, nil
}

// Run executes the simulation to the horizon and returns the metrics.
// Invalid-configuration and internal-invariant failures return an error
// carrying the run context (seed, simulated time, event count); a tripped
// watchdog is not an error — it returns the partial Result with a
// populated Diagnosis.
func (s *Sim) Run() (*Result, error) {
	if !s.resumed {
		s.fetchArrival()
	}
	s.wallStart = time.Now()
	for {
		// Streaming windows cut the run at their boundaries, which the
		// kernel treats as events; every other layer rides on atTop and
		// tick.
		end := s.cfg.Duration
		if s.cfg.StreamWindow > 0 && s.nextWindow < end {
			end = s.nextWindow
		}
		if err := s.runUntil(end); err != nil {
			return nil, err
		}
		for s.cfg.StreamWindow > 0 && s.now >= s.nextWindow {
			s.flushWindow()
			s.nextWindow += s.cfg.StreamWindow
		}
		if s.haltData != nil || s.pendingTruncate != "" || s.now >= s.cfg.Duration {
			break
		}
	}
	switch {
	case s.haltData != nil:
		// Unlike truncate, a checkpoint halt emits NO trace event: the
		// halt is invisible to the event stream, which is what makes a
		// halted trace plus its continuation byte-identical to the
		// uninterrupted trace.
		return s.halt("checkpoint-stop", s.haltData), nil
	case s.pendingTruncate != "":
		return s.truncate(s.pendingTruncate), nil
	}
	return s.finish(), nil
}

// atTop is where deferred truncations land and periodic checkpoints are
// taken: restoring a checkpoint re-enters the loop at exactly this point.
func (s *Sim) atTop() (bool, error) {
	if wd := s.cfg.Watchdog; wd != nil && wd.MaxWallClock > 0 && s.pendingTruncate == "" {
		if s.iter++; s.iter%wallClockCheckEvery == 0 && time.Since(s.wallStart) > wd.MaxWallClock {
			s.pendingTruncate = "wallclock-budget"
		}
	}
	if s.pendingTruncate != "" {
		return true, nil
	}
	if s.cfg.CheckpointEvery > 0 && s.now >= s.nextCheckpoint {
		data, err := s.Checkpoint()
		if err != nil {
			return false, s.errorf("checkpoint: %v", err)
		}
		for s.nextCheckpoint <= s.now {
			s.nextCheckpoint += s.cfg.CheckpointEvery
		}
		if err := s.cfg.CheckpointSink(data, s.now); err != nil {
			if errors.Is(err, ErrStopAfterCheckpoint) {
				s.haltData = data
				return true, nil
			}
			return false, s.errorf("checkpoint sink: %v", err)
		}
	}
	return false, nil
}

// finish seals the result at the current simulated time: copy the
// counter-backed totals into the Result (identical to the pre-registry
// reporting), fold the slow-path stats into the registry, and snapshot it.
func (s *Sim) finish() *Result {
	s.res.FCT, s.res.Throughput = s.fct, s.thr
	seal(s.res, s.reg, &s.kernel)
	if d, ok := s.cfg.Scheduler.(interface{ TotalRounds() int64 }); ok {
		s.reg.Counter("sched.arbitration_rounds").Add(d.TotalRounds())
	}
	if g, ok := s.cfg.Generator.(interface{ QueueHighWater() int }); ok {
		s.reg.Gauge("eventq.high_water").Set(float64(g.QueueHighWater()))
	}
	s.res.Obs = s.reg.Snapshot()
	return s.res
}

// halt seals a run stopped before its horizon: the partial Result keeps
// every metric accumulated so far (byte conservation included) plus a
// Diagnosis saying why and where the run stopped, carrying the
// resumable checkpoint when one was captured.
func (s *Sim) halt(reason string, ckpt []byte) *Result {
	res := s.finish()
	res.Duration = s.now
	res.Diagnosis = &Diagnosis{
		Reason:       reason,
		SimTime:      s.now,
		BacklogBytes: res.LeftoverBytes,
		Events:       res.Decisions,
		Seed:         s.cfg.Seed,
		TableEpoch:   s.table.Epoch(),
		Checkpoint:   ckpt,
	}
	return res
}

// truncate seals a watchdog-stopped run.
func (s *Sim) truncate(reason string) *Result {
	// Capture the resumable snapshot BEFORE emitting the truncation event:
	// the uninterrupted run has no such event at this point, so a resumed
	// continuation must not carry it in the restored flight recorder.
	var ckpt []byte
	var ckptErr string
	if _, ok := s.cfg.Generator.(workload.Checkpointable); ok {
		if data, err := s.Checkpoint(); err != nil {
			ckptErr = err.Error()
		} else {
			ckpt = data
		}
	}
	// Record the stop itself before capturing the recorder tail, so the
	// captured sequence ends with the truncation event.
	s.cfg.Obs.Emit(s.now, "watchdog.truncate", -1, s.table.TotalBacklog(), reason)
	res := s.halt(reason, ckpt)
	res.Diagnosis.CheckpointErr = ckptErr
	if wd := s.cfg.Watchdog; wd != nil && wd.DiagnosisEvents >= 0 {
		k := wd.DiagnosisEvents
		if k == 0 {
			k = defaultDiagnosisEvents
		}
		res.Diagnosis.LastEvents = s.cfg.Obs.LastEvents(k)
		res.Diagnosis.Verbose = wd.VerboseDiagnosis
	}
	return res
}

// fetchArrival pulls the next arrival from the generator.
func (s *Sim) fetchArrival() {
	a, ok := s.cfg.Generator.Next()
	s.pendingArrival, s.hasPending = a, ok
}

// nextArrival returns the pending arrival's time (+Inf: stream exhausted).
func (s *Sim) nextArrival() float64 {
	if s.hasPending {
		return s.pendingArrival.Time
	}
	return math.Inf(1)
}

// admitDue adds every arrival due now to the fabric. An arrival in the
// past or a malformed one means the generator violated its contract; the
// run fails with context rather than panicking mid-sweep.
func (s *Sim) admitDue() (bool, error) {
	admitted := false
	for s.hasPending && s.pendingArrival.Time <= s.now+timeEps {
		a := s.pendingArrival
		if a.Time < s.now-1e-9 {
			// The loop always advances to the earliest pending arrival, so
			// an earlier one is out of order.
			return false, s.errorf("generator produced out-of-order arrival at t=%g", a.Time)
		}
		if a.Src < 0 || a.Src >= s.cfg.Hosts || a.Dst < 0 || a.Dst >= s.cfg.Hosts || a.Src == a.Dst || a.Size <= 0 {
			return false, s.errorf("generator produced invalid arrival %+v", a)
		}
		s.addFlow(s.nextID, a.Src, a.Dst, a.Class, a.Size, a.Time)
		s.nextID++
		s.fetchArrival()
		admitted = true
	}
	return admitted, nil
}

// flowDone emits the completion trace event.
func (s *Sim) flowDone(f *flow.Flow, fct float64) {
	s.cfg.Obs.Emit(s.now, "flow.done", f.Src, fct, f.Class.String())
}

// tick records the queue-length series and the matching trace events,
// then checks the backlog watchdog. When the run is instrumented it also
// snapshots the Go runtime's GC state into gauges, so a trace can
// correlate backlog spikes with collection activity. The GC numbers are
// machine-dependent, which is why they live only in registry gauges
// (never in trace events, whose byte-determinism the trace contract
// guarantees) and only when the caller opted into observability.
func (s *Sim) tick() {
	queue := s.table.IngressBacklog(s.cfg.MonitorPort)
	total := s.table.TotalBacklog()
	maxPort, maxB := s.table.MaxIngressBacklog()
	s.res.QueueSeries.Add(s.now, queue)
	s.res.TotalBacklogSeries.Add(s.now, total)
	s.res.MaxPortSeries.Add(s.now, maxB)
	s.cfg.Obs.Emit(s.now, "sample.queue", s.cfg.MonitorPort, queue, "")
	s.cfg.Obs.Emit(s.now, "sample.total", -1, total, "")
	s.cfg.Obs.Emit(s.now, "sample.maxport", maxPort, maxB, "")
	if s.cfg.Obs != nil {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		s.reg.Gauge("runtime.gc_num").Set(float64(ms.NumGC))
		s.reg.Gauge("runtime.gc_pause_total_ns").Set(float64(ms.PauseTotalNs))
		// The gauge keeps its Max, so the snapshot reports the heap-live
		// high-water mark across the run's sample ticks.
		s.reg.Gauge("runtime.heap_live_bytes").Set(float64(ms.HeapAlloc))
	}
	if s.cfg.OnProgress != nil {
		windows := 0
		if s.cfg.StreamWindow > 0 {
			// nextWindow is the next unflushed boundary, so the flushed
			// count is one boundary behind it.
			windows = int(math.Round(s.nextWindow/s.cfg.StreamWindow)) - 1
		}
		s.cfg.OnProgress(RunProgress{
			SimTime:        s.now,
			Duration:       s.cfg.Duration,
			Windows:        windows,
			Decisions:      s.cDecisions.Value(),
			ArrivedFlows:   s.arrivedFlows,
			CompletedFlows: s.completedFlows,
			BacklogBytes:   total,
		})
	}
	if wd := s.cfg.Watchdog; wd != nil && wd.MaxBacklogBytes > 0 && total > wd.MaxBacklogBytes {
		// Deferred to the next loop top (after this event's reschedule)
		// so the truncation Diagnosis can carry a consistent, resumable
		// checkpoint.
		s.pendingTruncate = "backlog-bound"
	}
}
