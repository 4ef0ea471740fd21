package fabricsim

import (
	"fmt"
	"math"
	"time"

	"basrpt/internal/faults"
	"basrpt/internal/flow"
	"basrpt/internal/metrics"
	"basrpt/internal/obs"
	"basrpt/internal/sched"
)

// completionEps is the residual (bytes) below which a flow counts as done;
// it absorbs float drift over long runs.
const completionEps = 1e-6

// timeEps is the simulated-clock slack used when matching event times:
// arrivals within timeEps of `now` are admitted at `now`.
const timeEps = 1e-12

// owner is what an engine plugs into its kernel: where arrivals come
// from, what a sample tick records, and what happens at the loop top.
// The centralized Sim draws arrivals from its generator and layers
// checkpoints and the watchdog on the loop top; a decomposed rack cell
// merges its local queue with delivered cross-rack messages and buffers
// its ticks and completions for the barrier fold.
type owner interface {
	// atTop runs at every loop top, the one place the kernel state is
	// fully consistent (completions collected, arrivals admitted,
	// decision fresh). Returning stop ends runUntil there.
	atTop() (stop bool, err error)
	// nextArrival returns the time of the earliest arrival not yet
	// admitted (+Inf: none).
	nextArrival() float64
	// admitDue admits every arrival due at the kernel clock (within
	// timeEps) through kernel.addFlow and reports whether any was.
	admitDue() (bool, error)
	// tick records one queue-sample tick at the kernel clock.
	tick()
	// flowDone observes a completed flow before the kernel recycles it.
	flowDone(f *flow.Flow, fct float64)
}

// kernel is the one event loop both engines run — BASRPT's "the
// scheduling decision is updated when a flow comes or a transfer
// completes" over a range of ports. It owns the VOQ table, the
// scheduler, the decision, the next-completion cache, the flow pool, the
// validator, and the per-kernel accumulators. The centralized Sim is the
// one-kernel case over every host; a decomposed run gives each rack cell
// its own kernel over the rack's hosts plus its core-proxy ports.
type kernel struct {
	own      owner
	ports    int
	byteRate float64 // bytes/s per selected flow at full link rate
	dur      float64 // horizon: events at or past it end the run
	interval float64 // sample spacing
	seed     uint64  // run seed, for error context
	cell     int     // rack of a decomposed cell; -1 for the centralized Sim

	table     *flow.Table
	scheduler sched.Scheduler       // possibly wrapped by fallback
	fallback  *sched.OutageFallback // non-nil iff faults are injected
	faults    *faults.Injector
	obs       *obs.Obs // receives fault-boundary events
	// clearsDirty: the scheduler does not consume the table's dirty-VOQ
	// feed, so the kernel clears it after every decision to keep the
	// dirty set from growing without bound.
	clearsDirty bool

	now        float64
	nextSample float64
	decision   []*flow.Flow
	// nextCompletion caches the absolute time the earliest transmitting
	// flow finishes (+Inf: none will on its own). advanceTo refreshes it
	// during its drain pass and reschedule after each new decision, so the
	// loop reads it instead of rescanning the decision every event.
	nextCompletion float64

	// Steady-state allocation avoidance: completed flows recycle through
	// pool into the next arrivals (when poolOn), decisions are re-checked
	// by a scratch-owning validator, and deepValidate keeps its per-port
	// accumulators across calls.
	pool      flow.FreeList
	poolOn    bool
	validate  bool
	deepEvery int64
	validator sched.Validator
	dvIngress []float64
	dvEgress  []float64

	fct            *metrics.FCT
	thr            *metrics.Throughput
	arrivedFlows   int
	completedFlows int
	arrivedBytes   float64
	departedBytes  float64
	fctSum         float64
	faultCounts    metrics.FaultCounters // DecisionsHeld is filled by seal

	// Decision instruments, resolved from the owner's registry. Cells
	// keep no latency histogram: they run concurrently, and the
	// per-decision latency is machine-dependent anyway.
	cDecisions  *obs.Counter
	cSchedNanos *obs.Counter   // wall clock
	hDecisionNs *obs.Histogram // wall clock; nil in cells
}

// init finishes a kernel whose configuration fields are set: the table,
// the fault fallback, dirty-feed ownership, and an empty completion
// horizon.
func (k *kernel) init() {
	k.table = flow.NewTable(k.ports)
	if k.faults != nil {
		// Degraded mode for scheduler outages: hold the last matching.
		k.fallback = sched.NewOutageFallback(k.scheduler)
		k.scheduler = k.fallback
	}
	// Dirty-feed ownership (see the flow package's change-tracking
	// contract): an index-maintaining scheduler consumes the feed itself;
	// for everything else the kernel is the consumer of record.
	k.clearsDirty = !sched.IsDirtyConsumer(k.scheduler)
	k.nextCompletion = math.Inf(1)
}

// errorf wraps a run failure with the context a sweep needs to replay it:
// the seed, the cell, the simulated time reached, and the decision count.
func (k *kernel) errorf(format string, args ...any) error {
	where := fmt.Sprintf("seed=%d", k.seed)
	if k.cell >= 0 {
		where += fmt.Sprintf(" cell=%d", k.cell)
	}
	return fmt.Errorf("fabricsim [%s t=%gs events=%d epoch=%d]: %w",
		where, k.now, k.cDecisions.Value(), k.table.Epoch(), fmt.Errorf(format, args...))
}

// runUntil advances the kernel through every event up to and including
// cap, or until the owner stops it at a loop top. Completions are
// collected strictly before admissions at one instant (the departing
// flow frees its ports for the newcomer's decision), samples follow
// admissions, and the kernel reschedules only when the flow population
// or the fault state changed. An event at or past the horizon ends the
// run without a final decision.
func (k *kernel) runUntil(cap float64) error {
	for {
		if stop, err := k.own.atTop(); stop || err != nil {
			return err
		}
		t := cap
		if a := k.own.nextArrival(); a < t {
			t = a
		}
		if k.nextSample < t {
			t = k.nextSample
		}
		if k.nextCompletion < t {
			t = k.nextCompletion
		}
		faultBoundary := false
		if k.faults != nil {
			if fb, ok := k.faults.NextBoundaryAfter(k.now); ok && fb <= t {
				t = fb
				faultBoundary = true
			}
		}

		k.advanceTo(t)
		done := t >= k.dur
		if faultBoundary {
			k.crossFaultBoundary()
		}
		reschedule := k.collectCompletions() || faultBoundary
		if !done {
			admitted, err := k.own.admitDue()
			if err != nil {
				return err
			}
			reschedule = reschedule || admitted
		}
		if k.now >= k.nextSample {
			k.own.tick()
			k.nextSample += k.interval
		}
		if done {
			return nil
		}
		if reschedule {
			if err := k.reschedule(); err != nil {
				return err
			}
		}
		if t >= cap {
			return nil
		}
	}
}

// crossFaultBoundary accounts the fault transitions at the current
// instant (a link went down or recovered, or the scheduler's
// reachability flipped); the loop then forces a fresh decision under the
// new conditions.
func (k *kernel) crossFaultBoundary() {
	ls, le, os, oe := k.faults.TransitionsAt(k.now)
	k.faultCounts.LinkFaultStarts += int64(ls)
	k.faultCounts.LinkFaultEnds += int64(le)
	k.faultCounts.OutageStarts += int64(os)
	k.faultCounts.OutageEnds += int64(oe)
	for _, tr := range [...]struct {
		n    int
		kind string
	}{{ls, "fault.link.start"}, {le, "fault.link.end"}, {os, "fault.outage.start"}, {oe, "fault.outage.end"}} {
		if tr.n > 0 {
			k.obs.Emit(k.now, tr.kind, -1, float64(tr.n), "")
		}
	}
}

// addFlow admits one flow into the table (port indices are the kernel's
// own). Malformed arrivals are the owner's to reject first.
func (k *kernel) addFlow(id flow.ID, src, dst int, class flow.Class, size, arrival float64) {
	var f *flow.Flow
	if k.poolOn {
		f = k.pool.Get(id, src, dst, class, size, arrival)
	} else {
		f = flow.NewFlow(id, src, dst, class, size, arrival)
	}
	k.table.Add(f)
	k.arrivedFlows++
	k.arrivedBytes += size
}

// flowRate returns f's current transmission rate in bytes/s: the access-
// link rate scaled by the worse of its two ports' surviving link
// fractions. Rates only change at fault boundaries, which are events, so
// a rate sampled at k.now is valid until the next event.
func (k *kernel) flowRate(f *flow.Flow) float64 {
	if k.faults == nil {
		return k.byteRate
	}
	frac := k.faults.LinkRateFraction(f.Src, k.now)
	if d := k.faults.LinkRateFraction(f.Dst, k.now); d < frac {
		frac = d
	}
	return k.byteRate * frac
}

// advanceTo drains the transmitting flows up to time t, each at its
// current (possibly degraded) link rate, and refreshes the next-completion
// cache from the post-drain residuals in the same pass. Rates only change
// at fault boundaries, and every boundary forces a reschedule (which
// recomputes the cache), so the rates read here stay valid until the cache
// is next consulted. Flows on a fully failed link never complete on their
// own; a fault boundary or a new decision unblocks them.
func (k *kernel) advanceTo(t float64) {
	if t < k.now {
		t = k.now
	}
	dt := t - k.now
	if dt > 0 && len(k.decision) > 0 {
		var drained float64
		minTime := math.Inf(1)
		for _, f := range k.decision {
			if rate := k.flowRate(f); rate > 0 {
				drained += k.table.Drain(f, dt*rate)
				if left := f.Remaining / rate; left < minTime {
					minTime = left
				}
			}
		}
		if drained > 0 {
			k.thr.AddRange(k.now, t, drained)
			k.departedBytes += drained
		}
		k.nextCompletion = t + minTime
	}
	k.now = t
}

// collectCompletions removes flows that finished by now and records
// FCTs. A flow counts as finished below an absolute residual floor
// (normal completions) or an adaptive one covering sub-byte residues
// whose drain time rounds to zero at large timestamps (float64 has
// ~1e-16 relative resolution, so any remainder that would take less than
// ~100 ULPs of `now` to drain is already indistinguishable from done and
// would otherwise stall the event loop).
func (k *kernel) collectCompletions() bool {
	if len(k.decision) == 0 {
		return false
	}
	threshold := max(completionEps, k.byteRate*k.now*1e-14)
	kept := k.decision[:0]
	completed := false
	for _, f := range k.decision {
		if f.Remaining > threshold {
			kept = append(kept, f)
			continue
		}
		// Flush the sub-threshold residue so byte conservation
		// (arrived = departed + backlog) holds exactly.
		if residue := k.table.Drain(f, f.Remaining); residue > 0 {
			k.thr.AddBytes(k.now, residue)
			k.departedBytes += residue
		}
		k.table.Remove(f)
		k.completedFlows++
		fct := k.now - f.Arrival
		k.fct.Add(f.Class, fct)
		k.fctSum += fct
		k.own.flowDone(f, fct)
		if k.poolOn {
			// The flow is detached and dropped from the compacted
			// decision; the scheduler's candidate index may still hold
			// its pointer but never dereferences entries of a dirtied
			// VOQ (Remove just dirtied this one), so recycling is safe.
			k.pool.Put(f)
		}
		completed = true
	}
	k.decision = kept
	return completed
}

// reschedule recomputes the scheduling decision and its completion
// horizon, then runs the configured validation. During an injected
// scheduler outage the fallback wrapper serves the held matching instead
// of consulting the unreachable scheduler (the dirty-VOQ feed then simply
// accumulates until the scheduler's index is reachable again).
func (k *kernel) reschedule() error {
	if k.fallback != nil {
		k.fallback.SetOutage(k.faults.SchedulerDown(k.now))
	}
	start := time.Now()
	k.decision = k.scheduler.Schedule(k.table)
	ns := time.Since(start).Nanoseconds()
	k.cSchedNanos.Add(ns)
	k.hDecisionNs.Observe(float64(ns))
	k.cDecisions.Inc()
	if k.clearsDirty {
		k.table.ClearDirty()
	}
	// Fresh decision, fresh completion horizon, at the rates in force now.
	minTime := math.Inf(1)
	for _, f := range k.decision {
		if rate := k.flowRate(f); rate > 0 {
			if left := f.Remaining / rate; left < minTime {
				minTime = left
			}
		}
	}
	k.nextCompletion = k.now + minTime
	if k.validate {
		if err := k.validator.ValidateDecision(k.ports, k.decision); err != nil {
			return k.errorf("%w", err)
		}
	}
	if k.deepEvery > 0 && k.cDecisions.Value()%k.deepEvery == 0 {
		if err := k.deepValidate(); err != nil {
			return k.errorf("%w", err)
		}
	}
	return nil
}

// deepValidate recomputes every backlog aggregate from the live flows,
// compares against the table's incremental accounting, checks byte
// conservation over everything the kernel admitted, and cross-checks the
// scheduler's incremental candidate index (when it maintains one)
// against a from-scratch view of the table.
func (k *kernel) deepValidate() error {
	n := k.ports
	if cap(k.dvIngress) < n {
		k.dvIngress = make([]float64, n)
		k.dvEgress = make([]float64, n)
	}
	ingress := k.dvIngress[:n]
	egress := k.dvEgress[:n]
	for i := range ingress {
		ingress[i] = 0
		egress[i] = 0
	}
	var total float64
	flows := 0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			q := k.table.VOQ(i, j)
			var qSum float64
			var err error
			top := q.Top()
			q.ForEachFlow(func(f *flow.Flow) {
				if err != nil {
					return
				}
				switch {
				case !f.Attached():
					err = fmt.Errorf("deep validate: VOQ (%d,%d) holds detached flow %d (remaining %g)",
						i, j, f.ID, f.Remaining)
				case f.Src != i || f.Dst != j:
					err = fmt.Errorf("deep validate: VOQ (%d,%d) holds misfiled flow %d addressed %d->%d",
						i, j, f.ID, f.Src, f.Dst)
				case f.Remaining < 0:
					err = fmt.Errorf("deep validate: VOQ (%d,%d) flow %d has negative remaining %g",
						i, j, f.ID, f.Remaining)
				case f.Remaining < top.Remaining:
					err = fmt.Errorf("deep validate: VOQ (%d,%d) top is flow %d (remaining %g) but flow %d has %g",
						i, j, top.ID, top.Remaining, f.ID, f.Remaining)
				default:
					qSum += f.Remaining
					flows++
				}
			})
			if err != nil {
				return err
			}
			if !closeEnough(qSum, q.Backlog()) {
				return fmt.Errorf("deep validate: VOQ (%d,%d) backlog %g, recomputed %g", i, j, q.Backlog(), qSum)
			}
			ingress[i] += qSum
			egress[j] += qSum
			total += qSum
		}
	}
	for p := 0; p < n; p++ {
		if !closeEnough(ingress[p], k.table.IngressBacklog(p)) {
			return fmt.Errorf("deep validate: ingress %d backlog %g, recomputed %g", p, k.table.IngressBacklog(p), ingress[p])
		}
		if !closeEnough(egress[p], k.table.EgressBacklog(p)) {
			return fmt.Errorf("deep validate: egress %d backlog %g, recomputed %g", p, k.table.EgressBacklog(p), egress[p])
		}
	}
	if !closeEnough(total, k.table.TotalBacklog()) {
		return fmt.Errorf("deep validate: total backlog %g, recomputed %g", k.table.TotalBacklog(), total)
	}
	if flows != k.table.NumFlows() {
		return fmt.Errorf("deep validate: %d flows counted, table reports %d", flows, k.table.NumFlows())
	}
	if !closeEnough(k.arrivedBytes, k.departedBytes+total) {
		return fmt.Errorf("deep validate: conservation broken (arrived %g, departed %g, backlog %g)",
			k.arrivedBytes, k.departedBytes, total)
	}
	if err := sched.CheckIndex(k.scheduler, k.table); err != nil {
		return fmt.Errorf("deep validate: %w", err)
	}
	return nil
}

// closeEnough compares accumulated float quantities with a relative
// tolerance sized for long runs of incremental adds/subtracts.
func closeEnough(a, b float64) bool {
	diff := math.Abs(a - b)
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return diff <= 1e-6*scale
}

// seal totals the kernels' accumulators into res and fills the run
// registry's shared counters — the one sealing path of both engines:
// Sim.finish passes its single kernel, mergeCells every cell in rack
// order (so every float sum is a pure function of the per-cell streams).
// FCT and throughput state, per-engine gauges, and the snapshot are the
// caller's.
func seal(res *Result, reg *obs.Registry, ks ...*kernel) {
	var repairs, rebuilds, held, activations, reuses int64
	var poolSize int
	pooled, faulted := false, false
	for _, k := range ks {
		res.ArrivedFlows += k.arrivedFlows
		res.CompletedFlows += k.completedFlows
		res.ArrivedBytes += k.arrivedBytes
		res.DepartedBytes += k.departedBytes
		res.LeftoverBytes += k.table.TotalBacklog()
		res.LeftoverFlows += k.table.NumFlows()
		res.Decisions += k.cDecisions.Value()
		res.SchedNanos += k.cSchedNanos.Value()
		res.Faults.LinkFaultStarts += k.faultCounts.LinkFaultStarts
		res.Faults.LinkFaultEnds += k.faultCounts.LinkFaultEnds
		res.Faults.OutageStarts += k.faultCounts.OutageStarts
		res.Faults.OutageEnds += k.faultCounts.OutageEnds
		if k.fallback != nil {
			faulted = true
			held += k.fallback.HeldDecisions()
			activations += k.fallback.Activations()
		}
		ist := sched.IndexStatsOf(k.scheduler)
		repairs += ist.Repairs
		rebuilds += ist.Rebuilds
		if k.poolOn {
			pooled = true
			reuses += k.pool.Reuses()
			poolSize += k.pool.Len()
		}
	}
	if faulted {
		res.Faults.DecisionsHeld = held
		reg.Counter("sched.decisions_held").Add(held)
		reg.Counter("sched.outage_activations").Add(activations)
	}
	reg.Counter("fabric.arrived_flows").Add(int64(res.ArrivedFlows))
	reg.Counter("fabric.completed_flows").Add(int64(res.CompletedFlows))
	if repairs+rebuilds > 0 {
		reg.Counter("sched.index_repairs").Add(repairs)
		reg.Counter("sched.index_rebuilds").Add(rebuilds)
	}
	if pooled {
		reg.Counter("flow.pool_reuses").Add(reuses)
		reg.Gauge("flow.pool_size").Set(float64(poolSize))
	}
}
