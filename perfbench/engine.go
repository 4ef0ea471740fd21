package main

import (
	"fmt"
	"runtime"
	"time"

	"basrpt/internal/fabricsim"
	"basrpt/internal/sched"
	"basrpt/internal/workload"
)

// wrapFunc interposes timers between a centralized simulator and its
// scheduler and generator; a nil wrapFunc builds the untraced run.
type wrapFunc func(sched.Scheduler, workload.Generator) (sched.Scheduler, workload.Generator, error)

// engineTrace is what one traced centralized run yields: the timers of
// the wrapped layers, the run's wall time, its allocation and GC work,
// and its result.
type engineTrace struct {
	sched        *timedScheduler
	gen          *timedGenerator
	wall         float64
	mallocs, gcs uint64
	res          *fabricsim.Result
}

// traceEngine builds a run through build with the timers interposed and
// runs it, reading MemStats on both sides of Sim.Run.
func traceEngine(build func(wrapFunc) (*fabricsim.Sim, error)) (*engineTrace, error) {
	tr := &engineTrace{}
	sim, err := build(func(s sched.Scheduler, g workload.Generator) (sched.Scheduler, workload.Generator, error) {
		ws, ts := wrapScheduler(s)
		tg, err := wrapGenerator(g)
		if err != nil {
			return nil, nil, err
		}
		tr.sched, tr.gen = ts, tg
		return ws, tg, nil
	})
	if err != nil {
		return nil, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	tr.res, err = sim.Run()
	tr.wall = time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	tr.mallocs = after.Mallocs - before.Mallocs
	tr.gcs = uint64(after.NumGC - before.NumGC)
	return tr, err
}

// sameWork reports how a traced run's result departs from its untraced
// twin: digest, decision count and index rebuilds must all agree.
func sameWork(untraced, traced *fabricsim.Result) error {
	if a, b := untraced.DeterministicDigest(), traced.DeterministicDigest(); a != b {
		return fmt.Errorf("traced digest %s, untraced %s", b, a)
	}
	if untraced.Decisions != traced.Decisions {
		return fmt.Errorf("traced run took %d decisions, untraced %d", traced.Decisions, untraced.Decisions)
	}
	a, b := untraced.Obs.Counter("sched.index_rebuilds"), traced.Obs.Counter("sched.index_rebuilds")
	if a != b {
		return fmt.Errorf("traced run rebuilt the index %d times, untraced %d", b, a)
	}
	return nil
}

// engineTotals sums traced centralized runs into the sched, workload
// and fabricsim layer metrics.
type engineTotals struct {
	wall, schedBusy, genBusy float64
	decisions, arrivals      int64
	repairs, rebuilds        int64
	highWater                int
	poolReuses               int64
	mallocs, gcs             uint64
	hist                     latencyHist
}

func (e *engineTotals) add(tr *engineTrace) {
	e.wall += tr.wall
	e.schedBusy += tr.sched.busy.Seconds()
	e.genBusy += tr.gen.busy.Seconds()
	e.decisions += tr.sched.hist.n
	e.arrivals += tr.gen.arrivals
	st := tr.sched.IndexStats()
	e.repairs += st.Repairs
	e.rebuilds += st.Rebuilds
	e.highWater = max(e.highWater, tr.gen.QueueHighWater())
	e.poolReuses += tr.res.Obs.Counter("flow.pool_reuses")
	e.mallocs += tr.mallocs
	e.gcs += tr.gcs
	for i, c := range tr.sched.hist.counts {
		e.hist.counts[i] += c
	}
	e.hist.n += tr.sched.hist.n
}

// fill writes the totals into l. The engine's self time is the traced
// wall time neither wrapped layer accounts for: flow.Table add, drain
// and remove, completions and metrics.
func (e *engineTotals) fill(l layers) {
	l["sched.busy_s"] = e.schedBusy
	l["sched.share"] = e.schedBusy / e.wall
	l["sched.decisions"] = float64(e.decisions)
	if e.decisions > 0 {
		l["sched.ns_per_decision"] = e.schedBusy * 1e9 / float64(e.decisions)
		l["fabricsim.allocs_per_decision"] = float64(e.mallocs) / float64(e.decisions)
	}
	l["sched.decision_p50_ns"] = e.hist.quantile(0.5)
	l["sched.decision_p99_ns"] = e.hist.quantile(0.99)
	if q, label, ok := tailPercentile(e.hist.n); ok {
		l["sched.decision_tail_ns"] = e.hist.quantile(q)
		fmt.Printf("sched: decision latency p50 %.0f ns, %s %.0f ns over %d decisions\n",
			e.hist.quantile(0.5), label, e.hist.quantile(q), e.hist.n)
	}
	l["sched.index_rebuilds"] = float64(e.rebuilds)
	if e.repairs+e.rebuilds > 0 {
		l["sched.repair_ratio"] = float64(e.repairs) / float64(e.repairs+e.rebuilds)
	}
	l["workload.next_s"] = e.genBusy
	l["workload.arrivals"] = float64(e.arrivals)
	l["workload.eventq_high_water"] = float64(e.highWater)
	l["fabricsim.engine_self_s"] = e.wall - e.schedBusy - e.genBusy
	l["fabricsim.gc_cycles"] = float64(e.gcs)
	l["flow.pool_reuses"] = float64(e.poolReuses)
}
