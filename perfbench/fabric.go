package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"time"

	"basrpt/internal/fabricsim"
	"basrpt/internal/obs"
	"basrpt/internal/sched"
	"basrpt/internal/topology"
)

// fabric-4k: the decomposed engine at 4128 hosts.
const (
	fabricRacks, fabricHostsPerRack = 344, 12
	fabricLoad                      = 0.5
	fabricDuration                  = 0.04 // simulated seconds per run
	fabricShards                    = 4
	fabricWorkers                   = 2
	// fabricSetupProbes is how many set-up probes each repetition makes:
	// runs of the same configuration cut to probeBarriers barriers,
	// whose construction is the full run's.
	fabricSetupProbes = 4
	probeBarriers     = 3
)

// fabricDigest is the DeterministicDigest of fabric-4k at the default
// seed; it is the same at every worker count.
const fabricDigest = "ec58333a406ac750"

// fabricRun is one RunShard call with its wall-clock marks: the call's
// start, every OnWindow heartbeat, and the return.
type fabricRun struct {
	res   *fabricsim.Result
	wall  float64 // RunShard, topology construction included
	beats []float64
}

// setup is the construction time: the first heartbeat less one mean
// barrier interval, since the first barrier's work precedes it.
func (f *fabricRun) setup() float64 {
	n := len(f.beats)
	if n < 2 {
		return f.wall
	}
	return f.beats[0] - (f.beats[n-1]-f.beats[0])/float64(n-1)
}

func runFabric(seed uint64, workers int, tl *obs.Timeline) (*fabricRun, error) {
	return runFabricFor(seed, workers, tl, fabricDuration)
}

func runFabricFor(seed uint64, workers int, tl *obs.Timeline, duration float64) (*fabricRun, error) {
	fr := &fabricRun{}
	start := time.Now()
	topo, err := topology.New(topology.Scaled(fabricRacks, fabricHostsPerRack))
	if err != nil {
		return nil, err
	}
	fr.res, err = fabricsim.RunShard(fabricsim.ShardConfig{
		Topology:  topo,
		Scheduler: "fast-basrpt",
		SchedOpts: sched.Options{V: paperV},
		Load:      fabricLoad,
		Duration:  duration,
		Seed:      seed,
		Shards:    fabricShards,
		Workers:   workers,
		Timeline:  tl,
		OnWindow: func(fabricsim.ShardProgress) {
			fr.beats = append(fr.beats, time.Since(start).Seconds())
		},
	})
	fr.wall = time.Since(start).Seconds()
	return fr, err
}

// fabricRep makes the set-up probes, then the measured run. Each probe
// starts from a cold heap, as the run does.
func fabricRep(seed uint64) (rep, error) {
	var r rep
	topo, err := topology.New(topology.Scaled(fabricRacks, fabricHostsPerRack))
	if err != nil {
		return r, err
	}
	probe := float64(probeBarriers*fabricsim.DefaultBarrierEvery) * topo.CoreHopLatency()
	for i := 0; i < fabricSetupProbes; i++ {
		debug.FreeOSMemory()
		pre, err := runFabricFor(seed, fabricWorkers, nil, probe)
		if err != nil {
			return r, err
		}
		r.setup = append(r.setup, pre.setup())
	}
	debug.FreeOSMemory()
	full, err := runFabric(seed, fabricWorkers, nil)
	if err != nil {
		return r, err
	}
	r.run = full.wall - full.setup()
	r.flows = full.res.CompletedFlows
	r.output = full.res.DeterministicDigest
	return r, nil
}

// fabricTraced makes tracedRounds rounds of three runs of one
// configuration: untraced at two workers (the reference, and the source
// of the cell and scheduler counters), traced with a Timeline at two
// workers (coordinator route and fold spans), and untraced at one worker
// (the scaling arm). Every run must report one digest.
func fabricTraced(seed uint64, check checker, t *tally) (layers, error) {
	return overRounds(tracedRounds, func() (layers, error) { return fabricRound(seed, check, t) })
}

func fabricRound(seed uint64, check checker, t *tally) (layers, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ref, err := runFabric(seed, fabricWorkers, nil)
	runtime.ReadMemStats(&after)
	var refCheck error
	if err == nil {
		refCheck = check(ref.res.DeterministicDigest())
	}
	t.record(err, refCheck)
	if err != nil {
		return nil, err
	}

	debug.FreeOSMemory()
	tl := obs.NewTimeline()
	traced, err := runFabric(seed, fabricWorkers, tl)
	var twin error
	if err == nil {
		twin = sameWork(ref.res, traced.res)
	}
	t.record(err, twin)
	if err != nil {
		return nil, err
	}

	debug.FreeOSMemory()
	serial, err := runFabric(seed, 1, nil)
	var arm error
	if err == nil {
		if a, b := ref.res.DeterministicDigest(), serial.res.DeterministicDigest(); a != b {
			arm = fmt.Errorf("1-worker digest %s, 2-worker %s", b, a)
		}
	}
	t.record(err, arm)
	if err != nil {
		return nil, err
	}

	l := layers{"trace.overhead_s": traced.wall - ref.wall}
	res, im := ref.res, ref.res.Imbalance
	decisions := float64(res.Decisions)
	schedBusy := float64(res.SchedNanos) / 1e9
	l["sched.busy_s"] = schedBusy
	l["sched.share"] = schedBusy / (ref.wall - ref.setup())
	l["sched.decisions"] = decisions
	l["sched.ns_per_decision"] = schedBusy * 1e9 / decisions
	rebuilds := float64(res.Obs.Counter("sched.index_rebuilds"))
	repairs := float64(res.Obs.Counter("sched.index_repairs"))
	l["sched.index_rebuilds"] = rebuilds
	if repairs+rebuilds > 0 {
		l["sched.repair_ratio"] = repairs / (repairs + rebuilds)
	}
	l["workload.arrivals"] = float64(res.ArrivedFlows)
	l["workload.eventq_high_water"] = gauge(res.Obs, "eventq.high_water")
	l["flow.pool_reuses"] = float64(res.Obs.Counter("flow.pool_reuses"))

	var cellBusy, workerWait, maxWorker float64
	for _, ns := range im.BusyNs {
		cellBusy += float64(ns) / 1e9
	}
	for g := range im.WorkerBusyNs {
		maxWorker = math.Max(maxWorker, float64(im.WorkerBusyNs[g])/1e9)
		workerWait += float64(im.WorkerWaitNs[g]) / 1e9
	}
	var msgs int64
	for _, cell := range res.ShardObs {
		msgs += cell.Counter("cell.msgs_sent")
	}
	l["cells.busy_s"] = cellBusy
	l["cells.max_worker_busy_s"] = maxWorker
	l["cells.worker_wait_s"] = workerWait
	l["cells.barrier_wait_fraction"] = im.BarrierWaitFraction
	l["cells.skew_ratio"] = im.SkewRatio
	l["cells.allocs_per_decision"] = float64(after.Mallocs-before.Mallocs) / decisions
	l["cells.gc_cycles"] = float64(after.NumGC - before.NumGC)
	l["cells.msgs_sent"] = float64(msgs)
	l["cells.barriers"] = float64(im.Barriers)

	// Route and fold come from the traced run's coordinator spans, and
	// the pool's share of each barrier from its cells' batch spans. The
	// Timeline's own appends fall between those spans, so the remainder
	// is taken against the untraced twin's wall time.
	digestStart := time.Now()
	_ = ref.res.DeterministicDigest()
	digest := time.Since(digestStart).Seconds()
	route, fold, batches := coordinatorSpans(tl.Spans())
	l["coord.route_s"] = route
	l["coord.fold_s"] = fold
	l["coord.other_s"] = ref.wall + digest - route - fold - batches
	s := serialFraction(ref.wall, maxWorker)
	l["coord.serial_fraction"] = s
	l["coord.amdahl_bound"] = amdahlBound(s)
	l["coord.parallel_speedup"] = serial.wall / ref.wall
	fmt.Printf("coord: wall %.3fs at %d workers, %.3fs at 1 worker; route %.3fs, fold %.3fs, pool batches %.3fs, digest %.3fs\n",
		ref.wall, fabricWorkers, serial.wall, route, fold, batches, digest)
	return l, nil
}

// coordinatorSpans sums the Timeline's route and fold spans and, per
// barrier, the wall time from the first cell's batch start to the last
// cell's batch end.
func coordinatorSpans(spans []obs.TimelineSpan) (route, fold, batches float64) {
	type window struct{ lo, hi int64 }
	perBarrier := map[int]*window{}
	for _, sp := range spans {
		switch sp.Name {
		case "route":
			route += float64(sp.DurNs) / 1e9
		case "fold":
			fold += float64(sp.DurNs) / 1e9
		case "batch":
			if sp.StartNs == 0 && sp.DurNs == 0 {
				continue // a cell with no window in this batch
			}
			w, ok := perBarrier[sp.Window]
			if !ok {
				w = &window{sp.StartNs, sp.StartNs + sp.DurNs}
				perBarrier[sp.Window] = w
			}
			w.lo = min(w.lo, sp.StartNs)
			w.hi = max(w.hi, sp.StartNs+sp.DurNs)
		}
	}
	for _, w := range perBarrier {
		batches += float64(w.hi-w.lo) / 1e9
	}
	return route, fold, batches
}

func gauge(s obs.Snapshot, name string) float64 {
	for _, g := range s.Gauges {
		if g.Name == name {
			return g.Value
		}
	}
	return 0
}
