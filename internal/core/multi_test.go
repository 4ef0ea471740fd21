package core

import (
	"testing"

	"basrpt/internal/fabricsim"
	"basrpt/internal/runner"
	"basrpt/internal/sched"
	"basrpt/internal/workload"
)

func tinyScale() Scale {
	return Scale{Racks: 2, HostsPerRack: 2, Duration: 0.4, Seed: 1}
}

// TestMultiWatchdogTruncationParallel runs watchdog-truncated simulations
// concurrently: a 1-byte backlog bound trips immediately in every
// replicate, and the truncation diagnosis must still be populated per run
// with no cross-worker interference.
func TestMultiWatchdogTruncationParallel(t *testing.T) {
	scale := tinyScale()
	task := runner.Task{Name: "truncated", Run: func(seed uint64) (runner.Sample, error) {
		s := scale
		s.Seed = seed
		topo, err := s.Topology()
		if err != nil {
			return nil, err
		}
		gen, err := workload.NewMixed(workload.MixedConfig{
			Topology:          topo,
			Load:              0.9,
			QueryByteFraction: workload.DefaultQueryByteFraction,
			Duration:          s.Duration,
			Seed:              seed,
		})
		if err != nil {
			return nil, err
		}
		sim, err := fabricsim.New(fabricsim.Config{
			Hosts:     topo.NumHosts(),
			LinkBps:   topo.HostLinkBps(),
			Scheduler: sched.NewSRPT(),
			Generator: gen,
			Duration:  s.Duration,
			Seed:      seed,
			Watchdog:  &fabricsim.Watchdog{MaxBacklogBytes: 1},
		})
		if err != nil {
			return nil, err
		}
		res, err := sim.Run()
		if err != nil {
			return nil, err
		}
		truncated := 0.0
		if res.Truncated() {
			truncated = 1
			if res.Diagnosis.Reason == "" {
				t.Error("truncated run lacks a diagnosis reason")
			}
		}
		return runner.Sample{"truncated": truncated, "sim_end_s": res.Diagnosis.SimTime}, nil
	}}
	agg, err := runner.Run(runner.Config{Seeds: 4, Parallel: 4}, []runner.Task{task})
	if err != nil {
		t.Fatal(err)
	}
	m := agg.Metric("truncated/truncated")
	if m == nil || m.Mean != 1 {
		t.Fatalf("expected every replicate truncated, got %+v", m)
	}
}

// TestMultiFaultSeedVariesPerReplicate checks that RunFaults derives the
// fault schedule from the replicate seed when no fault seed is pinned: two
// replicates must not see the same schedule (the whole point of
// multi-seed resilience runs).
func TestMultiFaultSeedVariesPerReplicate(t *testing.T) {
	s1 := runner.DeriveSeed(1, 0)
	s2 := runner.DeriveSeed(1, 1)
	r1, err := RunFaults(tinyScale(), 0, Run{Seed: s1})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunFaults(tinyScale(), 0, Run{Seed: s2})
	if err != nil {
		t.Fatal(err)
	}
	if r1.FaultSeed == r2.FaultSeed {
		t.Fatalf("replicates share fault seed %d", r1.FaultSeed)
	}
	if r1.Schedule.String() == r2.Schedule.String() {
		t.Fatal("replicates drew identical fault schedules")
	}
}
