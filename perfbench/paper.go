package main

import (
	"time"

	"basrpt/internal/fabricsim"
	"basrpt/internal/sched"
	"basrpt/internal/topology"
	"basrpt/internal/workload"
)

// paper-144: the paper's own evaluation point on the centralized engine.
const (
	paperLoad     = 0.8
	paperV        = 2500
	paperDuration = 0.05 // simulated seconds per run
	// paperSetupReps is how many constructions each repetition times;
	// one takes about a millisecond, so setup_s is the median of many.
	paperSetupReps = 8
)

// paperDigest is the DeterministicDigest of paper-144 at the default
// seed.
const paperDigest = "5b5e0a3dcef12985"

// paperBuild constructs one paper-144 run: topology, generator,
// scheduler and simulator. wrap, when non-nil, interposes the timed
// scheduler and generator.
func paperBuild(seed uint64, wrap wrapFunc) (*fabricsim.Sim, error) {
	topo, err := topology.New(topology.Paper())
	if err != nil {
		return nil, err
	}
	var gen workload.Generator
	gen, err = workload.NewMixed(workload.MixedConfig{
		Topology:          topo,
		Load:              paperLoad,
		QueryByteFraction: workload.DefaultQueryByteFraction,
		Duration:          paperDuration,
		Seed:              seed,
	})
	if err != nil {
		return nil, err
	}
	s, err := sched.New("fast-basrpt", sched.Options{V: paperV})
	if err != nil {
		return nil, err
	}
	if wrap != nil {
		if s, gen, err = wrap(s, gen); err != nil {
			return nil, err
		}
	}
	return fabricsim.New(fabricsim.Config{
		Hosts:     topo.NumHosts(),
		LinkBps:   topo.HostLinkBps(),
		Scheduler: s,
		Generator: gen,
		Duration:  paperDuration,
		Seed:      seed,
	})
}

// timedBuild times paperBuild from a cold heap.
func timedBuild(seed uint64) (sim *fabricsim.Sim, secs float64, err error) {
	secs = coldTimed(func() { sim, err = paperBuild(seed, nil) })
	return sim, secs, err
}

func paperRep(seed uint64) (rep, error) {
	var r rep
	for i := 0; i < paperSetupReps-1; i++ {
		_, s, err := timedBuild(seed)
		if err != nil {
			return r, err
		}
		r.setup = append(r.setup, s)
	}
	sim, s, err := timedBuild(seed)
	if err != nil {
		return r, err
	}
	r.setup = append(r.setup, s)
	start := time.Now()
	res, err := sim.Run()
	r.run = time.Since(start).Seconds()
	if err != nil {
		return r, err
	}
	r.flows = res.CompletedFlows
	r.output = res.DeterministicDigest
	return r, nil
}

// paperTraced makes tracedRounds pairs of an untraced run and a run
// with the scheduler and generator wrapped, and attributes each traced
// run's wall time.
func paperTraced(seed uint64, check checker, t *tally) (layers, error) {
	return overRounds(tracedRounds, func() (layers, error) {
		sim, _, err := timedBuild(seed)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		ref, err := sim.Run()
		refWall := time.Since(start).Seconds()
		var refCheck error
		if err == nil {
			refCheck = check(ref.DeterministicDigest())
		}
		t.record(err, refCheck)
		if err != nil {
			return nil, err
		}

		tr, err := traceEngine(func(wrap wrapFunc) (*fabricsim.Sim, error) { return paperBuild(seed, wrap) })
		var twin error
		if err == nil {
			twin = sameWork(ref, tr.res)
		}
		t.record(err, twin)
		if err != nil {
			return nil, err
		}
		var tot engineTotals
		tot.add(tr)
		l := layers{"trace.overhead_s": tr.wall - refWall}
		tot.fill(l)
		return l, nil
	})
}
