package fabricsim

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"basrpt/internal/flow"
	"basrpt/internal/metrics"
	"basrpt/internal/obs"
	"basrpt/internal/runner"
	"basrpt/internal/sched"
	"basrpt/internal/topology"
	"basrpt/internal/workload"
)

// ErrShardConfig reports an invalid sharded-run configuration.
var ErrShardConfig = errors.New("fabricsim: invalid shard configuration")

// DefaultBarrierEvery is the decomposed engine's default window batch:
// how many consecutive lookahead windows every cell advances through
// between coordinator barriers when ShardConfig.BarrierEvery is zero.
// Results are byte-identical for every batch size; the knob trades
// barrier-synchronization overhead against cross-rack routing latency
// tolerance (messages are still delivered on the exact same simulated
// clock — see the prefetch contract on shardCell.prefetch).
const DefaultBarrierEvery = 8

// repackEvery is the imbalance-repack period in barriers: every 16
// barriers the worker pool re-packs cells onto workers by measured busy
// time. The schedule is keyed on the barrier index — never on wall
// clock — so repacking changes which goroutine runs a cell but never
// what the cell computes.
const repackEvery = 16

// ShardConfig parameterizes a run of the rack-decomposed engine
// (RunShard). It is the topology-aware sibling of Config: instead of
// receiving pre-built scheduler and generator instances, it receives the
// recipe (registry name, options, workload parameters) so the executor
// can instantiate one copy per rack cell.
//
// The engine is a conservative PDES: one event-loop kernel per rack,
// cross-rack arrivals delivered after the topology's CoreHopLatency
// lookahead. Results are byte-stable across machines and GOMAXPROCS
// settings, and byte-identical across ALL shard counts >= 2, ALL
// BarrierEvery batch sizes, and ALL Workers counts — those knobs only
// choose how rack cells are grouped onto worker goroutines and how often
// the goroutines synchronize, never the physics.
//
// The decomposed engine is not byte-identical to the centralized one
// (New + Run): decomposition replaces the fabric-global crossbar
// matching with per-rack matchings (uplink traffic enters the
// destination rack through core-proxy ingress ports), which is the
// modeling change that makes 4k+ host fabrics tractable.
type ShardConfig struct {
	// Topology shapes the fabric: rack boundaries are the decomposition
	// units and CoreHopLatency is the conservative lookahead.
	Topology *topology.Topology
	// Scheduler is the sched registry name (see sched.Names).
	Scheduler string
	// SchedOpts carries the discipline parameters. A zero Seed inherits
	// the run Seed; each cell's scheduler derives a private seed from it
	// so RNG disciplines stay grouping-invariant.
	SchedOpts sched.Options
	// Load is the per-port offered load in (0, 1).
	Load float64
	// QueryByteFraction is the query byte share; 0 selects the workload
	// default.
	QueryByteFraction float64
	// Duration is the simulated horizon in seconds.
	Duration float64
	// SampleInterval is the queue-sample spacing (default Duration/500).
	SampleInterval float64
	// ThroughputBucket is the throughput series bucket width (default
	// Duration/50).
	ThroughputBucket float64
	// MonitorPort is the global host id whose ingress backlog becomes
	// QueueSeries.
	MonitorPort int
	// Seed drives the workload (and, via derivation, every per-cell
	// stream). Must be nonzero.
	Seed uint64
	// Shards must be >= 2 (the centralized engine is New + Run). It
	// bounds the worker pool: the engine runs at most
	// min(Shards, racks, Workers) persistent worker goroutines.
	Shards int
	// BarrierEvery is the window batch: cells advance through this many
	// consecutive lookahead windows between coordinator barriers. 0
	// selects DefaultBarrierEvery; 1 reproduces the dense per-window
	// barrier schedule. Results are byte-identical for every value >= 1
	// (wall clock only).
	BarrierEvery int
	// Workers caps the persistent worker goroutines; 0 defaults to
	// GOMAXPROCS. The effective pool size is at most
	// min(Shards, racks, Workers). Wall-clock plane only.
	Workers int
	// Obs, when non-nil, receives the run's trace. Per-cell events are
	// buffered during each batch and replayed window-by-window in
	// deterministic (time, cell, sequence) merge order at the barrier,
	// so traced runs stay byte-identical across shard counts and batch
	// sizes.
	Obs *obs.Obs
	// ValidateDecisions re-checks the crossbar constraint on every
	// decision of every cell.
	ValidateDecisions bool
	// Timeline, when non-nil, records wall-clock spans — per cell one
	// "window" span per lookahead window plus one "batch" and one
	// "barrier" span per barrier, and coordinator "fold"/"route" spans
	// per barrier — for Chrome trace_event export
	// (obs.Timeline.WriteChromeTrace). Span ORDER is deterministic (rack
	// order within each barrier); span times are wall-clock measurements.
	Timeline *obs.Timeline
	// OnWindow, when non-nil, is called on the coordinating goroutine
	// after every barrier with the run's live position — the engine's
	// heartbeat for ops endpoints. Wall-clock plane only: results are
	// byte-identical whether or not it is set.
	OnWindow func(ShardProgress)
}

// ShardProgress is the live heartbeat handed to ShardConfig.OnWindow
// after each decomposed barrier.
type ShardProgress struct {
	// SimTime is the barrier's end on the simulated clock; Duration the
	// configured horizon.
	SimTime  float64
	Duration float64
	// Window is the zero-based index of the last lookahead window the
	// barrier completed; Barrier the zero-based barrier index. With
	// window batching one barrier completes several windows, so Window
	// advances by BarrierEvery per beat.
	Window  int
	Barrier int
	// WindowsPerBarrier is the cumulative mean batch width so far.
	WindowsPerBarrier float64
	// Cells is the number of PDES cells advancing in lockstep and
	// Workers the persistent worker-goroutine count executing them.
	Cells   int
	Workers int
	// Decisions, ArrivedFlows, and CompletedFlows are cumulative sums
	// over all cells at the barrier.
	Decisions      int64
	ArrivedFlows   int
	CompletedFlows int
	// CellBusyNs and CellWaitNs are per-cell cumulative wall-clock
	// busy/barrier-wait nanoseconds (copies; safe to retain). Wall-clock
	// plane only.
	CellBusyNs []int64
	CellWaitNs []int64
}

// ShardImbalance is the decomposed engine's post-run wall-clock
// attribution report: how the run's real time split between cell work
// and barrier waiting, and which cell the others waited on. Everything
// here is measured on the host machine — wall-clock plane, never part
// of a deterministic artifact.
type ShardImbalance struct {
	// Cells is the number of PDES cells (racks); Windows the number of
	// lookahead windows the run advanced through; Barriers the number of
	// coordinator barriers that synchronized them (Windows/BarrierEvery,
	// up to rounding); WindowsPerBarrier their ratio; Workers the
	// persistent worker-goroutine count.
	Cells             int     `json:"cells"`
	Windows           int     `json:"windows"`
	Barriers          int     `json:"barriers"`
	WindowsPerBarrier float64 `json:"windows_per_barrier"`
	Workers           int     `json:"workers"`
	// BusyNs[i] is cell i's total in-window execution time and
	// BarrierWaitNs[i] the wall time between cell i finishing its batch
	// and the barrier releasing (this includes time the cell's own
	// worker spent running sibling cells — see WorkerWaitNs for the true
	// parallel loss); SlowestBarriers[i] counts barriers cell i finished
	// last.
	BusyNs          []int64 `json:"busy_ns"`
	BarrierWaitNs   []int64 `json:"barrier_wait_ns"`
	SlowestBarriers []int   `json:"slowest_barriers"`
	// WorkerBusyNs[g] is worker g's total batch-execution wall time and
	// WorkerWaitNs[g] its total time blocked at barriers for slower
	// workers — the parallel-efficiency ledger.
	WorkerBusyNs []int64 `json:"worker_busy_ns"`
	WorkerWaitNs []int64 `json:"worker_wait_ns"`
	// SlowestCell is the cell that finished last in the most barriers
	// (lowest rack wins ties).
	SlowestCell int `json:"slowest_cell"`
	// BarrierWaitFraction is total worker barrier wait over total worker
	// (busy + wait) time — the fraction of the pool's wall clock lost to
	// the lockstep, in [0, 1]. 0 when a single worker runs every cell.
	BarrierWaitFraction float64 `json:"barrier_wait_fraction"`
	// CellWaitFraction is the per-cell analogue (cell gap time over cell
	// busy + gap). It charges sibling-cell serialization on a shared
	// worker as waiting, so it approaches (cells-1)/cells on small
	// machines regardless of scheduling efficiency — kept for continuity
	// with the pre-batching reports (EXPERIMENTS.md E17).
	CellWaitFraction float64 `json:"cell_wait_fraction"`
	// SkewRatio is the maximum per-cell busy time over the mean — 1.0
	// for a perfectly balanced fabric.
	SkewRatio float64 `json:"skew_ratio"`
}

// String renders a one-paragraph imbalance summary for run footers.
func (im *ShardImbalance) String() string {
	if im == nil || im.Cells == 0 {
		return "imbalance: no decomposed windows recorded"
	}
	var totalBusy, slowBusy int64
	for i := range im.BusyNs {
		totalBusy += im.BusyNs[i]
		if i == im.SlowestCell {
			slowBusy = im.BusyNs[i]
		}
	}
	var workerBusy, workerWait int64
	for g := range im.WorkerBusyNs {
		workerBusy += im.WorkerBusyNs[g]
		workerWait += im.WorkerWaitNs[g]
	}
	return fmt.Sprintf(
		"imbalance: %d cells x %d windows over %d barriers (%.1f windows/barrier, %d workers); busy %.1fms; worker wait %.1fms (%.1f%% of pool time); skew ratio %.2f; slowest cell %d (last at %d barriers, busy %.1fms)",
		im.Cells, im.Windows, im.Barriers, im.WindowsPerBarrier, im.Workers,
		float64(totalBusy)/1e6, float64(workerWait)/1e6, 100*im.BarrierWaitFraction,
		im.SkewRatio, im.SlowestCell, im.SlowestBarriers[im.SlowestCell], float64(slowBusy)/1e6)
}

// cellIDShift positions the source-rack tag inside a decomposed flow ID:
// the low 40 bits count flows generated by the rack, the bits above tag
// the rack (+1 so no decomposed ID collides with the centralized
// engine's small sequential IDs). IDs are a pure function of (rack,
// generation order), so every table and scheduler tie-break that reads
// them is grouping-invariant.
const cellIDShift = 40

// RunShard executes one run of the rack-decomposed engine. See
// ShardConfig for its determinism contract.
func RunShard(cfg ShardConfig) (*Result, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	cells, err := newShardCells(cfg)
	if err != nil {
		return nil, err
	}
	return runDecomposed(cfg, cells)
}

// withDefaults validates the configuration and fills the defaulted
// fields.
func (cfg ShardConfig) withDefaults() (ShardConfig, error) {
	if cfg.Topology == nil {
		return cfg, fmt.Errorf("%w: nil topology", ErrShardConfig)
	}
	if cfg.Shards < 2 {
		return cfg, fmt.Errorf("%w: shards %d < 2 (the centralized engine is New + Run)", ErrShardConfig, cfg.Shards)
	}
	if cfg.Duration <= 0 {
		return cfg, fmt.Errorf("%w: duration %g <= 0", ErrShardConfig, cfg.Duration)
	}
	if cfg.Load <= 0 || cfg.Load >= 1 {
		return cfg, fmt.Errorf("%w: load %g outside (0, 1)", ErrShardConfig, cfg.Load)
	}
	if cfg.Seed == 0 {
		return cfg, fmt.Errorf("%w: seed must be nonzero", ErrShardConfig)
	}
	if cfg.BarrierEvery < 0 {
		return cfg, fmt.Errorf("%w: barrier-every %d < 0", ErrShardConfig, cfg.BarrierEvery)
	}
	if cfg.Workers < 0 {
		return cfg, fmt.Errorf("%w: workers %d < 0", ErrShardConfig, cfg.Workers)
	}
	if hosts := cfg.Topology.NumHosts(); cfg.MonitorPort < 0 || cfg.MonitorPort >= hosts {
		return cfg, fmt.Errorf("%w: monitor port %d outside [0, %d)", ErrShardConfig, cfg.MonitorPort, hosts)
	}
	if cfg.SchedOpts.Seed == 0 {
		cfg.SchedOpts.Seed = cfg.Seed
	}
	if cfg.QueryByteFraction == 0 {
		cfg.QueryByteFraction = workload.DefaultQueryByteFraction
	}
	if cfg.SampleInterval <= 0 {
		cfg.SampleInterval = cfg.Duration / 500
	}
	if cfg.ThroughputBucket <= 0 {
		cfg.ThroughputBucket = cfg.Duration / 50
	}
	return cfg, nil
}

// shardMsg is a cross-rack flow arrival in flight between cells. Ports
// are global host ids; genTime is the arrival time at the source (the
// FCT clock starts there, so the core hop is part of the flow's FCT).
type shardMsg struct {
	src, dst int
	size     float64
	class    flow.Class
	genTime  float64
	id       flow.ID
}

// routedMsg is a shardMsg stamped with its delivery time and source
// cell — the (time, shard id, seq) merge key that fixes the global
// admission order. seq is the message's position in its source outbox;
// routeOutboxes keeps it by merging stably.
type routedMsg struct {
	deliver float64
	srcCell int
	msg     shardMsg
}

// cellSample is one queue-sample tick recorded by a cell, folded into
// the global series at the barrier.
type cellSample struct {
	t       float64
	monitor float64 // monitored port's backlog; owner cell only
	total   float64 // cell backlog including core-proxy ports
	maxPort int     // global id of the cell's worst HOST ingress port
	maxB    float64
}

// cellDone is a buffered flow.done trace event; the barrier replays
// them in (time, cell, seq) order so traced decomposed runs stay
// byte-identical across shard counts.
type cellDone struct {
	t     float64
	src   int // global ingress port
	fct   float64
	class string
}

// localArrival is one prefetched intra-rack arrival waiting in a cell's
// local queue, carrying the flow ID minted at generation time (IDs are
// allocated in stream order, local and cross-rack alike, so prefetch
// depth never changes an ID).
type localArrival struct {
	a  workload.Arrival
	id flow.ID
}

// shardCell is one rack's private simulator: its own kernel (VOQ table
// over the rack's hosts plus one core-proxy ingress port per core
// switch, scheduler instance, metrics, and flow pool) fed by its own
// workload stream. Cells only ever touch their own state inside a batch;
// all cross-cell traffic moves through the outbox/inbox exchange at
// barriers on the main goroutine.
type shardCell struct {
	kernel
	base    int // global id of the rack's first host
	hpr     int // local host ports [0, hpr)
	uplinks int // core-proxy ingress ports [hpr, hpr+uplinks)
	look    float64
	monitor int // local monitor port, -1 unless this cell owns it

	// Workload prefetch state: the cell pulls its stream eagerly up to
	// each batch's horizon (see prefetch), queueing intra-rack arrivals
	// in localQ (consumed positionally) and diverting cross-rack ones to
	// the outbox. genT is the time of the last pulled arrival; genDone
	// marks stream exhaustion.
	gen      *workload.Mixed
	localQ   []localArrival
	localPos int
	genT     float64
	genDone  bool

	// inbox holds delivered cross-rack messages in (deliver, srcCell,
	// seq) order, consumed positionally from inboxPos. outbox holds the
	// cell's cross-rack sends not yet routed, in (deliver, seq) order:
	// the stream yields arrivals in time order and delivery is arrival
	// time plus the constant lookahead.
	inbox    []routedMsg
	inboxPos int
	outbox   []routedMsg

	nextSeq uint64 // per-rack flow counter; see cellIDShift

	traced    bool
	remoteSrc map[flow.ID]int // proxy-admitted flow -> global source
	samples   []cellSample
	dones     []cellDone
	// sampleMarks/doneMarks record the cumulative samples/dones length at
	// the end of each window in the current batch, so the barrier fold
	// can replay trace events window-by-window — byte-identical to the
	// dense per-window barrier schedule.
	sampleMarks []int
	doneMarks   []int

	// reg is the cell's private deterministic-plane registry; its
	// snapshot survives into Result.ShardObs. The resolved instruments
	// keep the hot paths at one pointer-indirected add.
	reg            *obs.Registry
	cMsgsSent      *obs.Counter
	cMsgsDelivered *obs.Counter
	cWindows       *obs.Counter

	// Wall-clock plane: the worker stamps each window's start/duration
	// (nanoseconds since the run origin) into winStarts/winDurs; the
	// coordinator reads them after the barrier join, so no extra
	// synchronization beyond the join is needed.
	winStarts       []int64
	winDurs         []int64
	busyNs          int64
	barrierWaitNs   int64
	slowestBarriers int

	err error
}

// allocID mints the next flow ID for traffic generated by this rack.
func (c *shardCell) allocID() flow.ID {
	c.nextSeq++
	return flow.ID(uint64(c.cell+1)<<cellIDShift | c.nextSeq)
}

// prefetch pulls the cell's workload stream through time `to`: every
// intra-rack arrival is queued on localQ (with its stream-order flow
// ID) and every cross-rack arrival is diverted to the outbox at its
// delivery time (generation time plus the lookahead; messages that
// could not arrive before the horizon are dropped, mirroring the
// centralized engine's refusal to admit arrivals at t >= Duration).
//
// This is the sparse-barrier enabler: calling prefetch(batchEnd) before
// a batch guarantees that any cross-rack message materialized LATER —
// by a deeper prefetch or by the next batch — was generated at or after
// batchEnd and therefore delivers at or after batchEnd + lookahead,
// strictly beyond every window the batch will run. Skipped intra-batch
// barriers consequently had nothing to route, and one routing pass with
// the batch-end horizon replaces them exactly.
//
// Pull timing never changes the physics: IDs are minted in stream
// order, the generator's internal event calendar is caller-agnostic,
// and both queues are consumed by simulated time, so every batch size
// admits every arrival at the identical instant.
func (c *shardCell) prefetch(to float64) {
	if c.localPos > 0 {
		n := copy(c.localQ, c.localQ[c.localPos:])
		c.localQ = c.localQ[:n]
		c.localPos = 0
	}
	// The admission slack (timeEps) is part of the horizon: an arrival
	// within timeEps past a window cap is admitted inside that window,
	// so it must be materialized with the batch that runs the window.
	for !c.genDone && c.genT <= to+timeEps {
		a, ok := c.gen.Next()
		if !ok {
			c.genDone = true
			return
		}
		c.genT = a.Time
		id := c.allocID()
		if a.Dst >= c.base && a.Dst < c.base+c.hpr {
			c.localQ = append(c.localQ, localArrival{a: a, id: id})
			continue
		}
		deliver := a.Time + c.look
		if deliver >= c.dur {
			continue
		}
		c.outbox = append(c.outbox, routedMsg{deliver: deliver, srcCell: c.cell, msg: shardMsg{
			src: a.Src, dst: a.Dst, size: a.Size, class: a.Class,
			genTime: a.Time, id: id,
		}})
		c.cMsgsSent.Inc()
	}
}

// atTop never stops a cell: the coordinator cuts its runs at window caps.
func (c *shardCell) atTop() (bool, error) { return false, nil }

// nextArrival returns the earlier of the local queue's and the inbox's
// heads (+Inf: neither holds one).
func (c *shardCell) nextArrival() float64 {
	t := math.Inf(1)
	if c.localPos < len(c.localQ) {
		t = c.localQ[c.localPos].a.Time
	}
	if c.inboxPos < len(c.inbox) && c.inbox[c.inboxPos].deliver < t {
		t = c.inbox[c.inboxPos].deliver
	}
	return t
}

// admitDue admits every local and delivered arrival due now,
// interleaved by (time, source cell): a delivered message goes first
// when it is earlier, or simultaneous and from a lower rack.
func (c *shardCell) admitDue() (bool, error) {
	admitted := false
	for {
		localReady := c.localPos < len(c.localQ) && c.localQ[c.localPos].a.Time <= c.now+timeEps
		inboxReady := c.inboxPos < len(c.inbox) && c.inbox[c.inboxPos].deliver <= c.now+timeEps
		if !localReady && !inboxReady {
			return admitted, nil
		}
		if localReady && inboxReady {
			in, localT := c.inbox[c.inboxPos], c.localQ[c.localPos].a.Time
			localReady = !(in.deliver < localT || (in.deliver == localT && in.srcCell < c.cell))
		}
		var err error
		if localReady {
			err = c.admitLocal()
		} else {
			err = c.admitRemote()
		}
		if err != nil {
			return false, err
		}
		admitted = true
	}
}

// admitLocal admits the local queue's head arrival.
func (c *shardCell) admitLocal() error {
	la := c.localQ[c.localPos]
	c.localPos++
	a := la.a
	src, dst := a.Src-c.base, a.Dst-c.base
	if src < 0 || src >= c.hpr || dst < 0 || dst >= c.hpr || src == dst || a.Size <= 0 {
		return c.errorf("generator produced invalid local arrival %+v", a)
	}
	c.addFlow(la.id, src, dst, a.Class, a.Size, a.Time)
	return nil
}

// admitRemote admits the inbox's head — a delivered cross-rack arrival —
// through the core-proxy ingress port assigned to its source (globalSrc
// mod uplinks — the static core-switch hash of the multi-rooted tree).
// Traced cells remember the true source for the completion event.
func (c *shardCell) admitRemote() error {
	m := c.inbox[c.inboxPos].msg
	c.inboxPos++
	dst := m.dst - c.base
	if dst < 0 || dst >= c.hpr || m.size <= 0 {
		return c.errorf("misrouted cross-rack arrival %+v", m)
	}
	c.addFlow(m.id, c.hpr+m.src%c.uplinks, dst, m.class, m.size, m.genTime)
	if c.traced {
		c.remoteSrc[m.id] = m.src
	}
	c.cMsgsDelivered.Inc()
	return nil
}

// flowDone buffers the completion trace event for barrier replay,
// naming the true global source of proxy-admitted flows.
func (c *shardCell) flowDone(f *flow.Flow, fct float64) {
	if !c.traced {
		return
	}
	src := c.base + f.Src
	if f.Src >= c.hpr {
		src = c.remoteSrc[f.ID]
		delete(c.remoteSrc, f.ID)
	}
	c.dones = append(c.dones, cellDone{t: c.now, src: src, fct: fct, class: f.Class.String()})
}

// tick records one queue sample into the cell's window buffer. The
// per-port maximum spans HOST ports only: core-proxy backlog is an
// artifact of the decomposition, not a host queue, though it does count
// toward the cell total (those bytes are genuinely in the fabric).
func (c *shardCell) tick() {
	s := cellSample{t: c.now, total: c.table.TotalBacklog()}
	if c.monitor >= 0 {
		s.monitor = c.table.IngressBacklog(c.monitor)
	}
	maxP, maxB := 0, c.table.IngressBacklog(0)
	for p := 1; p < c.hpr; p++ {
		if b := c.table.IngressBacklog(p); b > maxB {
			maxP, maxB = p, b
		}
	}
	s.maxPort, s.maxB = c.base+maxP, maxB
	c.samples = append(c.samples, s)
}

// runWindow advances the cell's kernel to capT, the current window's
// end. Events at exactly capT are processed inside this window; window
// boundaries are global multiples of the lookahead, so the split is
// identical for every shard count and batch size. The inbox may hold
// deliveries beyond capT (routing runs once per batch with the
// batch-end horizon); they are invisible here because every
// consultation is gated on the simulated clock. The window's wall-clock
// start and duration are stamped around the run, and the fold marks
// (cumulative sample/done counts) let the barrier replay it exactly.
func (c *shardCell) runWindow(capT float64, origin time.Time) {
	start := time.Since(origin).Nanoseconds()
	c.cWindows.Inc()
	c.err = c.runUntil(capT)
	dur := time.Since(origin).Nanoseconds() - start
	c.winStarts = append(c.winStarts, start)
	c.winDurs = append(c.winDurs, dur)
	c.busyNs += dur
	c.sampleMarks = append(c.sampleMarks, len(c.samples))
	c.doneMarks = append(c.doneMarks, len(c.dones))
}

// runBatch advances the cell through every window of one batch, then
// prefetches the next batch's workload (prefetchTo < 0 skips — final
// batch). Runs on a pool worker; touches only cell-local state.
func (c *shardCell) runBatch(capTs []float64, prefetchTo float64, origin time.Time) {
	for _, capT := range capTs {
		if c.err != nil {
			return
		}
		c.runWindow(capT, origin)
	}
	if prefetchTo >= 0 && c.err == nil {
		c.prefetch(prefetchTo)
	}
}

// poolCmd is one batch descriptor fed to every pool worker: the batch's
// window caps (shared read-only) and the next batch's prefetch horizon.
type poolCmd struct {
	capTs      []float64
	prefetchTo float64
}

// poolWorker is one persistent worker goroutine of the decomposed
// engine: it owns a (repackable) set of cells and executes batch
// commands from the coordinator. Lifetime spans the whole run — no
// per-window goroutine churn. The stamps and accumulators are
// wall-clock plane; the coordinator reads them between the ack and the
// next command, which the channel handoffs order.
type poolWorker struct {
	id    int
	cells []*shardCell
	cmds  chan poolCmd
	ack   chan struct{}

	startNs int64 // current batch start (since run origin)
	endNs   int64 // current batch end
	busyNs  int64 // cumulative batch-execution time
	waitNs  int64 // cumulative barrier-blocked time
}

// exec runs one batch over the worker's cells, stamping the batch span.
func (wk *poolWorker) exec(cmd poolCmd, origin time.Time) {
	wk.startNs = time.Since(origin).Nanoseconds()
	for _, c := range wk.cells {
		c.runBatch(cmd.capTs, cmd.prefetchTo, origin)
	}
	wk.endNs = time.Since(origin).Nanoseconds()
}

// shardPool is the decomposed engine's persistent worker pool. With one
// worker the coordinator executes batches inline (no goroutines); with
// more, each worker loops on its command channel until stop closes it.
type shardPool struct {
	workers []*poolWorker
	cells   []*shardCell
	origin  time.Time
	inline  bool
}

// newShardPool partitions the cells into contiguous rack-order spans
// across `workers` persistent goroutines and starts them. The grouping
// affects wall clock only, never results.
func newShardPool(cells []*shardCell, workers int, origin time.Time) *shardPool {
	p := &shardPool{origin: origin, cells: cells, inline: workers <= 1}
	per := (len(cells) + workers - 1) / workers
	for lo := 0; lo < len(cells); lo += per {
		hi := lo + per
		if hi > len(cells) {
			hi = len(cells)
		}
		wk := &poolWorker{
			id:    len(p.workers),
			cells: cells[lo:hi:hi],
			cmds:  make(chan poolCmd),
			ack:   make(chan struct{}),
		}
		p.workers = append(p.workers, wk)
	}
	if !p.inline {
		for _, wk := range p.workers {
			go func(wk *poolWorker) {
				for cmd := range wk.cmds {
					wk.exec(cmd, origin)
					wk.ack <- struct{}{}
				}
			}(wk)
		}
	}
	return p
}

// runBatch dispatches one batch to every worker and blocks until all
// have finished — the coordinator barrier.
func (p *shardPool) runBatch(capTs []float64, prefetchTo float64) {
	cmd := poolCmd{capTs: capTs, prefetchTo: prefetchTo}
	if p.inline {
		p.workers[0].exec(cmd, p.origin)
		return
	}
	for _, wk := range p.workers {
		wk.cmds <- cmd
	}
	for _, wk := range p.workers {
		<-wk.ack
	}
}

// stop terminates the worker goroutines. Safe to call once, after the
// final barrier.
func (p *shardPool) stop() {
	if p.inline {
		return
	}
	for _, wk := range p.workers {
		close(wk.cmds)
	}
}

// repack reassigns cells to workers by cumulative measured busy time:
// greedy longest-processing-time packing (heaviest cell first onto the
// least-loaded worker). Called between barriers on a schedule keyed on
// the barrier index; the assignment feeds wall-clock placement only, so
// using measured (machine-dependent) busy time is sound — results are
// byte-identical under every packing.
func (p *shardPool) repack() {
	if len(p.workers) <= 1 {
		return
	}
	order := make([]int, len(p.cells))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return p.cells[order[a]].busyNs > p.cells[order[b]].busyNs
	})
	loads := make([]int64, len(p.workers))
	assign := make([][]*shardCell, len(p.workers))
	for _, ci := range order {
		g := 0
		for h := 1; h < len(loads); h++ {
			if loads[h] < loads[g] {
				g = h
			}
		}
		assign[g] = append(assign[g], p.cells[ci])
		loads[g] += p.cells[ci].busyNs
	}
	for g, wk := range p.workers {
		// Keep each worker's cells in rack order for cache-friendly
		// iteration; membership, not order, carries the balance.
		sort.Slice(assign[g], func(a, b int) bool { return assign[g][a].cell < assign[g][b].cell })
		wk.cells = assign[g]
	}
}

// newShardCells builds the decomposed engine's cells, one per rack: a
// kernel over the rack's hosts plus one core-proxy ingress port per core
// switch, with per-rack derived scheduler and workload seeds (so RNG
// disciplines stay grouping-invariant) and the rack's source-restricted
// workload stream.
func newShardCells(cfg ShardConfig) ([]*shardCell, error) {
	topo := cfg.Topology
	tc := topo.Config()
	hpr := tc.HostsPerRack
	cells := make([]*shardCell, tc.Racks)
	for r := range cells {
		opts := cfg.SchedOpts
		opts.Seed = runner.DeriveSeed(cfg.SchedOpts.Seed, r)
		scheduler, err := sched.New(cfg.Scheduler, opts)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrShardConfig, err)
		}
		gen, err := workload.NewMixed(workload.MixedConfig{
			Topology:          topo,
			Load:              cfg.Load,
			QueryByteFraction: cfg.QueryByteFraction,
			Duration:          cfg.Duration,
			Seed:              runner.DeriveSeed(cfg.Seed, r),
			SrcLo:             r * hpr,
			SrcHi:             (r + 1) * hpr,
		})
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrShardConfig, err)
		}
		c := &shardCell{
			base:    r * hpr,
			hpr:     hpr,
			uplinks: tc.Cores,
			look:    topo.CoreHopLatency(),
			monitor: -1,
			gen:     gen,
			traced:  cfg.Obs != nil,
			reg:     obs.NewRegistry(),
		}
		c.kernel = kernel{
			own:      c,
			ports:    hpr + tc.Cores,
			byteRate: topo.HostLinkBps() / 8,
			dur:      cfg.Duration,
			interval: cfg.SampleInterval,
			seed:     cfg.Seed,
			cell:     r,

			scheduler: scheduler,
			poolOn:    true,
			validate:  cfg.ValidateDecisions,

			fct:         metrics.NewFCT(),
			thr:         metrics.NewThroughput(cfg.ThroughputBucket),
			cDecisions:  c.reg.Counter("cell.decisions"),
			cSchedNanos: c.reg.Counter("wall.sched_nanos"),
		}
		c.init()
		if cfg.MonitorPort/hpr == r {
			c.monitor = cfg.MonitorPort % hpr
		}
		if c.traced {
			c.remoteSrc = make(map[flow.ID]int)
		}
		c.cMsgsSent = c.reg.Counter("cell.msgs_sent")
		c.cMsgsDelivered = c.reg.Counter("cell.msgs_delivered")
		c.cWindows = c.reg.Counter("cell.windows")
		cells[r] = c
	}
	return cells, nil
}

// runDecomposed is the engine's coordinator: the cells
// advance in lockstep lookahead windows, batched BarrierEvery windows per
// coordinator barrier, executed by a persistent worker pool. Every
// barrier-side fold (message routing, window-by-window trace replay,
// series and metric merges) runs on the calling goroutine in rack
// order, so results are a pure function of the configuration —
// independent of shard count, batch size, worker count, repack
// placement, and GOMAXPROCS.
func runDecomposed(cfg ShardConfig, cells []*shardCell) (*Result, error) {
	look := cfg.Topology.CoreHopLatency()
	numCells := len(cells)
	hpr := cells[0].hpr

	batch := cfg.BarrierEvery
	if batch == 0 {
		batch = DefaultBarrierEvery
	}
	workers := cfg.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, cfg.Shards, numCells)
	for _, c := range cells {
		c.prefetch(min(float64(batch)*look, cfg.Duration))
	}

	res := &Result{
		FCT:           metrics.NewFCT(),
		Throughput:    metrics.NewThroughput(cfg.ThroughputBucket),
		Duration:      cfg.Duration,
		SchedulerName: cells[0].scheduler.Name(),
	}
	// Wall-clock plane: every cell-window is stamped against this origin
	// (two clock reads per cell-window — cheap enough to keep always-on),
	// feeding the barrier-wait accounting, the imbalance report, and the
	// optional Timeline.
	origin := time.Now()
	pool := newShardPool(cells, workers, origin)
	defer pool.stop()

	capTs := make([]float64, 0, batch)
	rt := router{hpr: hpr}
	windows := 0
	for b := 0; ; b++ {
		if b > 0 && b%repackEvery == 0 {
			pool.repack()
		}
		capTs = capTs[:0]
		for j := 0; j < batch; j++ {
			capT := float64(windows+j+1) * look
			if capT >= cfg.Duration {
				capTs = append(capTs, cfg.Duration)
				break
			}
			capTs = append(capTs, capT)
		}
		end := capTs[len(capTs)-1]
		last := end >= cfg.Duration
		prefetchTo := -1.0
		if !last {
			// One window past the next batch's widest possible end is still
			// safe (deeper prefetch only moves messages into outboxes
			// earlier); what matters is covering at least the next batch.
			prefetchTo = min(float64(windows+len(capTs)+batch)*look, cfg.Duration)
		}
		// Route before the batch: one pass with the batch-end horizon
		// replaces the skipped intra-batch barriers — by the prefetch
		// contract every message deliverable inside the batch is already
		// in an outbox. The horizon carries the admission slack so a
		// message within timeEps of a window cap lands with the batch
		// that admits it, at every batch size.
		routeStart := time.Since(origin).Nanoseconds()
		rt.routeOutboxes(cells, end+2*timeEps)
		cfg.Timeline.Add(obs.TimelineSpan{
			Track: obs.TimelineCoordinator, Name: "route", Window: b,
			StartNs: routeStart, DurNs: time.Since(origin).Nanoseconds() - routeStart,
		})
		pool.runBatch(capTs, prefetchTo)
		for _, c := range cells {
			if c.err != nil {
				return nil, c.err
			}
		}
		accountBatch(cells, pool, b, windows, cfg.Timeline)
		foldStart := time.Since(origin).Nanoseconds()
		if err := foldBatch(cells, res, cfg, len(capTs)); err != nil {
			return nil, err
		}
		cfg.Timeline.Add(obs.TimelineSpan{
			Track: obs.TimelineCoordinator, Name: "fold", Window: b,
			StartNs: foldStart, DurNs: time.Since(origin).Nanoseconds() - foldStart,
		})
		windows += len(capTs)
		if cfg.OnWindow != nil {
			p := ShardProgress{
				SimTime: end, Duration: cfg.Duration,
				Window: windows - 1, Barrier: b,
				WindowsPerBarrier: float64(windows) / float64(b+1),
				Cells:             numCells, Workers: len(pool.workers),
				CellBusyNs: make([]int64, numCells),
				CellWaitNs: make([]int64, numCells),
			}
			for i, c := range cells {
				p.Decisions += c.cDecisions.Value()
				p.ArrivedFlows += c.arrivedFlows
				p.CompletedFlows += c.completedFlows
				p.CellBusyNs[i] = c.busyNs
				p.CellWaitNs[i] = c.barrierWaitNs
			}
			cfg.OnWindow(p)
		}
		if last {
			return mergeCells(cells, res, cfg, windows, b+1, pool), nil
		}
	}
}

// accountBatch folds one batch's wall-clock stamps into the per-cell
// and per-worker busy/barrier-wait accumulators and, when a Timeline is
// attached, records the batch's spans in rack order — a deterministic
// span sequence regardless of how the worker goroutines interleaved.
// The barrier is modeled as ending when the slowest worker finished its
// batch (the coordinator's own fold work is tracked separately).
func accountBatch(cells []*shardCell, pool *shardPool, barrier, firstWindow int, tl *obs.Timeline) {
	barrierEnd := int64(0)
	for _, wk := range pool.workers {
		if wk.endNs > barrierEnd {
			barrierEnd = wk.endNs
		}
	}
	for _, wk := range pool.workers {
		wk.busyNs += wk.endNs - wk.startNs
		wk.waitNs += barrierEnd - wk.endNs
	}
	slowest, slowestEnd := 0, int64(0)
	for i, c := range cells {
		if n := len(c.winStarts); n > 0 {
			if end := c.winStarts[n-1] + c.winDurs[n-1]; end > slowestEnd {
				slowestEnd = end
				slowest = i
			}
		}
	}
	cells[slowest].slowestBarriers++
	for _, c := range cells {
		n := len(c.winStarts)
		for j := 0; j < n; j++ {
			tl.Add(obs.TimelineSpan{Track: c.cell, Name: "window", Window: firstWindow + j,
				StartNs: c.winStarts[j], DurNs: c.winDurs[j]})
		}
		cellStart, cellEnd := int64(0), int64(0)
		if n > 0 {
			cellStart = c.winStarts[0]
			cellEnd = c.winStarts[n-1] + c.winDurs[n-1]
		}
		tl.Add(obs.TimelineSpan{Track: c.cell, Name: "batch", Window: barrier,
			StartNs: cellStart, DurNs: cellEnd - cellStart})
		wait := barrierEnd - cellEnd
		c.barrierWaitNs += wait
		tl.Add(obs.TimelineSpan{Track: c.cell, Name: "barrier", Window: barrier,
			StartNs: cellEnd, DurNs: wait})
		c.winStarts = c.winStarts[:0]
		c.winDurs = c.winDurs[:0]
	}
}

// router moves cross-rack messages from source outboxes into
// destination inboxes at each barrier, on the coordinator goroutine. Its
// slices are scratch kept across barriers, so routing stops allocating
// once they have grown to the run's largest barrier.
type router struct {
	hpr   int         // hosts per rack: a global host id's cell is id/hpr
	start []int       // per destination: inbox length before this pass
	ends  []int       // run ends of the inbox segment being merged
	tmp   []routedMsg // left run of the merge in progress
}

// routeOutboxes moves every cross-rack message deliverable before
// `horizon` (exclusive — the end of the batch about to run, plus the
// admission slack) from source outboxes into destination inboxes in
// global (delivery time, source cell, outbox order) order. By the
// conservative-lookahead argument every such message already exists: a
// message delivered inside a batch was generated at least one lookahead
// earlier, inside the horizon the previous barrier's prefetch pulled
// through. Later barriers only append later deliveries, so inboxes stay
// sorted under positional consumption.
//
// Each outbox is already in (deliver, seq) order, so one pass in rack
// order takes every source's prefix below the horizon and appends it to
// the destination inboxes. A destination's new segment is then one
// ascending run per source cell, in source order, and a stable merge by
// delivery time alone yields the (deliver, srcCell, seq) order.
func (r *router) routeOutboxes(cells []*shardCell, horizon float64) {
	r.start = r.start[:0]
	for _, c := range cells {
		if c.inboxPos > 0 {
			n := copy(c.inbox, c.inbox[c.inboxPos:])
			c.inbox = c.inbox[:n]
			c.inboxPos = 0
		}
		r.start = append(r.start, len(c.inbox))
	}
	for _, c := range cells {
		n := 0
		for ; n < len(c.outbox) && c.outbox[n].deliver < horizon; n++ {
			dst := cells[c.outbox[n].msg.dst/r.hpr]
			dst.inbox = append(dst.inbox, c.outbox[n])
		}
		c.outbox = c.outbox[:copy(c.outbox, c.outbox[n:])]
	}
	for i, c := range cells {
		r.mergeRuns(c.inbox[r.start[i]:])
	}
}

// mergeRuns stably sorts seg by delivery time. seg is a concatenation of
// ascending runs, so a bottom-up merge of its natural runs costs
// O(n log runs) moves.
func (r *router) mergeRuns(seg []routedMsg) {
	r.ends = r.ends[:0]
	for i := 1; i < len(seg); i++ {
		if seg[i].deliver < seg[i-1].deliver {
			r.ends = append(r.ends, i)
		}
	}
	if len(r.ends) == 0 {
		return
	}
	r.ends = append(r.ends, len(seg))
	for len(r.ends) > 1 {
		lo, w := 0, 0
		for k := 0; k < len(r.ends); k += 2 {
			if k+1 == len(r.ends) {
				r.ends[w] = r.ends[k]
				w++
				break
			}
			mid, hi := r.ends[k], r.ends[k+1]
			r.merge(seg[lo:hi], mid-lo)
			r.ends[w] = hi
			w++
			lo = hi
		}
		r.ends = r.ends[:w]
	}
}

// merge stably merges the ascending runs s[:mid] and s[mid:] in place,
// copying only the left run out. Ties take the left run first.
func (r *router) merge(s []routedMsg, mid int) {
	if s[mid-1].deliver <= s[mid].deliver {
		return
	}
	r.tmp = append(r.tmp[:0], s[:mid]...)
	left, right := r.tmp, s[mid:]
	i, j, w := 0, 0, 0
	for i < len(left) && j < len(right) {
		if right[j].deliver < left[i].deliver {
			s[w] = right[j]
			j++
		} else {
			s[w] = left[i]
			i++
		}
		w++
	}
	copy(s[w:], left[i:])
}

// foldBatch replays one batch window-by-window through foldWindowSeg —
// byte-identical to folding at dense per-window barriers — then resets
// the per-cell buffers.
func foldBatch(cells []*shardCell, res *Result, cfg ShardConfig, nwin int) error {
	for k := 0; k < nwin; k++ {
		if err := foldWindowSeg(cells, res, cfg, k); err != nil {
			return err
		}
	}
	for _, c := range cells {
		c.samples = c.samples[:0]
		c.dones = c.dones[:0]
		c.sampleMarks = c.sampleMarks[:0]
		c.doneMarks = c.doneMarks[:0]
	}
	return nil
}

// windowSeg returns window k's slice of a cell buffer (samples or
// completion events) in the current batch, delimited by the cumulative
// fold marks runWindow recorded.
func windowSeg[T any](buf []T, marks []int, k int) []T {
	lo := 0
	if k > 0 {
		lo = marks[k-1]
	}
	return buf[lo:marks[k]]
}

// foldWindowSeg merges one window's per-cell sample ticks into the
// global series and replays buffered trace events in deterministic
// order: completions sorted by (time, cell, cell-local sequence),
// interleaved before each tick's sample.queue / sample.total /
// sample.maxport triplet exactly as the centralized engine orders them.
func foldWindowSeg(cells []*shardCell, res *Result, cfg ShardConfig, k int) error {
	ref := windowSeg(cells[0].samples, cells[0].sampleMarks, k)
	nticks := len(ref)
	for _, c := range cells {
		if n := len(windowSeg(c.samples, c.sampleMarks, k)); n != nticks {
			return fmt.Errorf("fabricsim shard: cell %d recorded %d sample ticks, cell 0 recorded %d",
				c.cell, n, nticks)
		}
	}
	var merged []cellDone
	if cfg.Obs != nil {
		for _, c := range cells {
			merged = append(merged, windowSeg(c.dones, c.doneMarks, k)...)
		}
		sort.SliceStable(merged, func(i, j int) bool { return merged[i].t < merged[j].t })
	}
	di := 0
	for i := 0; i < nticks; i++ {
		t := ref[i].t
		var queue, total float64
		maxPort, maxB := ref[i].maxPort, ref[i].maxB
		for _, c := range cells {
			s := windowSeg(c.samples, c.sampleMarks, k)[i]
			total += s.total
			if c.monitor >= 0 {
				queue = s.monitor
			}
			if s.maxB > maxB {
				maxPort, maxB = s.maxPort, s.maxB
			}
		}
		for di < len(merged) && merged[di].t <= t {
			cfg.Obs.Emit(merged[di].t, "flow.done", merged[di].src, merged[di].fct, merged[di].class)
			di++
		}
		res.QueueSeries.Add(t, queue)
		res.TotalBacklogSeries.Add(t, total)
		res.MaxPortSeries.Add(t, maxB)
		cfg.Obs.Emit(t, "sample.queue", cfg.MonitorPort, queue, "")
		cfg.Obs.Emit(t, "sample.total", -1, total, "")
		cfg.Obs.Emit(t, "sample.maxport", maxPort, maxB, "")
	}
	for di < len(merged) {
		cfg.Obs.Emit(merged[di].t, "flow.done", merged[di].src, merged[di].fct, merged[di].class)
		di++
	}
	return nil
}

// mergeCells folds the per-cell metrics into the global Result in rack
// order — the fixed fold order that makes every float accumulation
// (FCT sums, sample order, throughput buckets) a pure function of the
// per-cell streams — and seals the instrumentation registry through the
// same path as the centralized finish().
func mergeCells(cells []*shardCell, res *Result, cfg ShardConfig, windows, barriers int, pool *shardPool) *Result {
	reg := cfg.Obs.Registry()
	if reg == nil {
		reg = obs.NewRegistry()
	}
	ks := make([]*kernel, len(cells))
	highWater := 0
	for i, c := range cells {
		ks[i] = &c.kernel
		res.FCT.Merge(c.fct)
		res.Throughput.Merge(c.thr)
		highWater = max(highWater, c.gen.QueueHighWater())
	}
	seal(res, reg, ks...)
	reg.Counter("fabric.decisions").Add(res.Decisions)
	reg.Counter("fabric.sched_nanos").Add(res.SchedNanos)
	reg.Gauge("eventq.high_water").Set(float64(highWater))

	// Per-cell attribution: seal each cell's deterministic-plane registry
	// (plus its wall-clock busy/wait counters, filtered out of digests by
	// obs.IsWallClock) and fold the snapshots into the Result in rack
	// order. The global registry gets the wall-clock totals and the
	// Result gets the imbalance report.
	im := &ShardImbalance{
		Cells:             len(cells),
		Windows:           windows,
		Barriers:          barriers,
		WindowsPerBarrier: float64(windows) / float64(barriers),
		Workers:           len(pool.workers),
		BusyNs:            make([]int64, len(cells)),
		BarrierWaitNs:     make([]int64, len(cells)),
		SlowestBarriers:   make([]int, len(cells)),
		WorkerBusyNs:      make([]int64, len(pool.workers)),
		WorkerWaitNs:      make([]int64, len(pool.workers)),
	}
	var totalBusy, totalWait, maxBusy int64
	for i, c := range cells {
		c.reg.Gauge("cell.eventq_high_water").Set(float64(c.gen.QueueHighWater()))
		c.reg.Counter("wall.busy_ns").Add(c.busyNs)
		c.reg.Counter("wall.barrier_wait_ns").Add(c.barrierWaitNs)
		res.ShardObs = append(res.ShardObs, c.reg.Snapshot())
		im.BusyNs[i] = c.busyNs
		im.BarrierWaitNs[i] = c.barrierWaitNs
		im.SlowestBarriers[i] = c.slowestBarriers
		if c.slowestBarriers > im.SlowestBarriers[im.SlowestCell] {
			im.SlowestCell = i
		}
		totalBusy += c.busyNs
		totalWait += c.barrierWaitNs
		maxBusy = max(maxBusy, c.busyNs)
	}
	var workerBusy, workerWait int64
	for g, wk := range pool.workers {
		im.WorkerBusyNs[g] = wk.busyNs
		im.WorkerWaitNs[g] = wk.waitNs
		workerBusy += wk.busyNs
		workerWait += wk.waitNs
	}
	if workerBusy+workerWait > 0 {
		im.BarrierWaitFraction = float64(workerWait) / float64(workerBusy+workerWait)
	}
	if totalBusy+totalWait > 0 {
		im.CellWaitFraction = float64(totalWait) / float64(totalBusy+totalWait)
	}
	if totalBusy > 0 {
		im.SkewRatio = float64(maxBusy) / (float64(totalBusy) / float64(len(cells)))
	}
	res.Imbalance = im
	reg.Counter("wall.busy_ns").Add(totalBusy)
	reg.Counter("wall.barrier_wait_ns").Add(totalWait)
	reg.Counter("wall.worker_busy_ns").Add(workerBusy)
	reg.Counter("wall.worker_wait_ns").Add(workerWait)
	reg.Gauge("wall.windows_per_barrier").Set(im.WindowsPerBarrier)
	reg.Gauge("wall.workers").Set(float64(len(pool.workers)))

	res.Obs = reg.Snapshot()
	return res
}
