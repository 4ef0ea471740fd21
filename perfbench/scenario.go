package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"slices"
	"sort"
	"time"

	"basrpt/internal/fabricsim"
	"basrpt/internal/runner"
	"basrpt/internal/scenario"
	"basrpt/internal/sched"
	"basrpt/internal/topology"
	"basrpt/internal/workload"
)

// scenario-e3: the committed Table I scenario through scenario.Execute.
const (
	e3Dir      = "scenarios/e3-fct-tradeoff"
	e3Parallel = 2
	// e3Rounds is how many Executes a traced invocation makes; each
	// takes several seconds.
	e3Rounds = 2
	// e3SetupReps is how many spec loads each repetition times; one load
	// takes tens of microseconds.
	e3SetupReps = 50
)

func e3SpecPath() string     { return filepath.Join(e3Dir, "spec.json") }
func e3FindingsPath() string { return filepath.Join(e3Dir, "findings.json") }

// e3Load loads the spec e3SetupReps times, timing each load, and
// re-roots its replicate seeds at seed.
func e3Load(seed uint64) (*scenario.Spec, []float64, error) {
	var spec *scenario.Spec
	var setup []float64
	for i := 0; i < e3SetupReps; i++ {
		var err error
		setup = append(setup, coldTimed(func() { spec, err = scenario.LoadSpec(e3SpecPath()) }))
		if err != nil {
			return nil, nil, err
		}
	}
	spec.Seeds.Root = seed
	return spec, setup, nil
}

// unitKey names one runner unit: a scenario cell at one replicate seed.
type unitKey struct {
	task string
	seed uint64
}

// e3Exec is one scenario.Execute call with the runner's progress marks.
type e3Exec struct {
	findings []byte
	wall     float64              // Execute call
	flows    int                  // completed flows over every unit
	units    map[unitKey]interval // seconds from the call's start
	samples  map[unitKey]runner.Sample
	lastDone float64
}

func runE3(spec *scenario.Spec) (*e3Exec, error) {
	ex := &e3Exec{units: map[unitKey]interval{}, samples: map[unitKey]runner.Sample{}}
	// The runner serializes OnProgress calls, and Execute returns only
	// after every worker has finished, so ex needs no lock of its own.
	start := time.Now()
	f, err := scenario.Execute(spec, scenario.Options{
		Parallel: e3Parallel,
		OnProgress: func(p runner.Progress) {
			now := time.Since(start).Seconds()
			k := unitKey{p.Task, p.Seed}
			switch p.Phase {
			case runner.PhaseStart:
				ex.units[k] = interval{start: now}
			case runner.PhaseDone:
				u := ex.units[k]
				u.end = now
				ex.units[k] = u
				ex.samples[k] = p.Sample
				ex.flows += int(p.Sample["completed_flows"])
				ex.lastDone = now
			}
		},
	})
	ex.wall = time.Since(start).Seconds()
	if err != nil {
		return nil, err
	}
	if ex.findings, err = f.EncodeJSON(); err != nil {
		return nil, err
	}
	return ex, nil
}

func e3Rep(seed uint64) (rep, error) {
	spec, setup, err := e3Load(seed)
	if err != nil {
		return rep{}, err
	}
	ex, err := runE3(spec)
	if err != nil {
		return rep{}, err
	}
	return rep{setup: setup, run: ex.wall, flows: ex.flows, output: func() string { return string(ex.findings) }}, nil
}

// e3Golden reads the committed findings the default seed must reproduce.
func e3Golden() (string, error) {
	b, err := os.ReadFile(e3FindingsPath())
	return string(b), err
}

// e3Traced makes e3Rounds Executes, recording the runner's unit spans
// through its progress callbacks (as every Execute here does), then
// replays each unit of the last one serially on a centralized
// simulator, untraced and then with the scheduler and generator
// wrapped. The replay builds each unit exactly as the scenario's task
// does and must reproduce the unit's completed and leftover flows and
// departed bytes; the wrapped replay must reproduce the untraced one.
func e3Traced(seed uint64, check checker, t *tally) (layers, error) {
	spec, _, err := e3Load(seed)
	if err != nil {
		return nil, err
	}
	var last *e3Exec
	l, err := overRounds(e3Rounds, func() (layers, error) {
		ex, err := runE3(spec)
		var c error
		if err == nil {
			c = check(string(ex.findings))
		}
		t.record(err, c)
		if err != nil {
			return nil, err
		}
		last = ex
		return runnerLayers(ex), nil
	})
	if err != nil {
		return nil, err
	}

	keys := make([]unitKey, 0, len(last.samples))
	for k := range last.samples {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].task != keys[j].task {
			return keys[i].task < keys[j].task
		}
		return keys[i].seed < keys[j].seed
	})
	var tot engineTotals
	var overhead float64
	for _, k := range keys {
		debug.FreeOSMemory()
		sim, err := e3Build(spec, k, nil)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		ref, err := sim.Run()
		refWall := time.Since(start).Seconds()
		var match error
		if err == nil {
			match = sameUnit(k, ref, last.samples[k])
		}
		t.record(err, match)
		if err != nil {
			return nil, err
		}

		debug.FreeOSMemory()
		tr, err := traceEngine(func(wrap wrapFunc) (*fabricsim.Sim, error) { return e3Build(spec, k, wrap) })
		var twin error
		if err == nil {
			twin = sameWork(ref, tr.res)
		}
		t.record(err, twin)
		if err != nil {
			return nil, err
		}
		tot.add(tr)
		overhead += tr.wall - refWall
	}
	tot.fill(l)
	l["trace.overhead_s"] = overhead
	return l, nil
}

// runnerLayers derives the runner and scenario metrics from one
// Execute's unit spans.
func runnerLayers(ex *e3Exec) layers {
	spans := make([]interval, 0, len(ex.units))
	durs := make([]float64, 0, len(ex.units))
	for _, u := range ex.units {
		spans = append(spans, u)
		durs = append(durs, u.end-u.start)
	}
	fan := summarizeFanout(spans, e3Parallel)
	fmt.Printf("runner: %d units on %d workers, fan-out wall %.3fs, busy %.3fs, tail %.3fs, Execute %.3fs\n",
		len(spans), e3Parallel, fan.wall, fan.busy, fan.tail, ex.wall)
	return layers{
		"runner.unit_busy_s":   fan.busy,
		"runner.unit_p50_s":    median(durs),
		"runner.unit_max_s":    slices.Max(durs),
		"runner.idle_fraction": fan.idleFraction,
		"runner.tail_s":        fan.tail,
		"scenario.fold_s":      ex.wall - ex.lastDone,
	}
}

// e3Build constructs the centralized simulation scenario task k runs,
// with the timers interposed when wrap is non-nil:
// core.RunCell's construction for a fault-free cell of a single-load,
// unswept spec, which is what e3's spec is.
func e3Build(spec *scenario.Spec, k unitKey, wrap wrapFunc) (*fabricsim.Sim, error) {
	var sc *scenario.SchedulerSpec
	for i := range spec.Schedulers {
		if spec.Schedulers[i].CellLabel() == k.task && len(spec.Schedulers[i].VSweep) == 0 {
			sc = &spec.Schedulers[i]
		}
	}
	if sc == nil || len(spec.Loads) != 1 || spec.Faults != nil {
		return nil, fmt.Errorf("perfbench: cannot replay scenario unit %q", k.task)
	}
	topo, err := topology.New(topology.Scaled(spec.Topology.Racks, spec.Topology.HostsPerRack))
	if err != nil {
		return nil, err
	}
	qf := spec.Workload.QueryByteFraction
	if qf == 0 {
		qf = workload.DefaultQueryByteFraction
	}
	var gen workload.Generator
	gen, err = workload.NewMixed(workload.MixedConfig{
		Topology:          topo,
		Load:              spec.Loads[0],
		QueryByteFraction: qf,
		Duration:          spec.DurationS,
		Seed:              k.seed,
	})
	if err != nil {
		return nil, err
	}
	s, err := sched.New(sc.Name, sched.Options{
		V: sc.V, Threshold: sc.Threshold, NoiseLevel: sc.NoiseLevel,
		Rounds: sc.Rounds, MaxPorts: sc.MaxPorts, Seed: k.seed,
	})
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
		Duration:  spec.DurationS,
		Seed:      k.seed,
	})
}

// sameUnit reports how a replayed unit departs from the scenario's
// sample of it.
func sameUnit(k unitKey, res *fabricsim.Result, sample runner.Sample) error {
	got := runner.Sample{
		"completed_flows": float64(res.CompletedFlows),
		"leftover_flows":  float64(res.LeftoverFlows),
		"departed_mb":     res.DepartedBytes / 1e6,
	}
	for name, v := range got {
		if sample[name] != v {
			return fmt.Errorf("replay of %s seed %d: %s %g, the scenario unit %g", k.task, k.seed, name, v, sample[name])
		}
	}
	return nil
}
