package core

import (
	"reflect"
	"testing"
)

// TestCellBuildPlumbsSeed pins the recipe's seed plumbing: every built
// Config carries the cell's seed (incast included), a fault cell draws
// the schedule and arms the watchdog bound RunFaults runs under, and the
// decomposed form of a cell carries the same seeds.
func TestCellBuildPlumbsSeed(t *testing.T) {
	scale := Scale{Racks: 2, HostsPerRack: 3, Duration: 0.2, Seed: 7}
	faulty := Cell{
		Scale:     scale,
		Scheduler: "srpt",
		Load:      FaultsLoad,
		Faults:    &CellFaults{LinkFaults: 3, Outages: 1, Seed: 5},
	}
	cfg, schedule, err := faulty.Build()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Seed != 7 {
		t.Fatalf("fault cell Config.Seed = %d, want 7", cfg.Seed)
	}
	ref, err := RunFaults(scale, 0, Run{Seed: 7, FaultSeed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(schedule, ref.Schedule) {
		t.Fatalf("fault schedule %s, RunFaults ran under %s", schedule, ref.Schedule)
	}
	topo, err := scale.Topology()
	if err != nil {
		t.Fatal(err)
	}
	bound := float64(topo.NumHosts()) * topo.HostLinkBps() / 8 * scale.Duration
	if cfg.Watchdog == nil || cfg.Watchdog.MaxBacklogBytes != bound {
		t.Fatalf("watchdog %+v, want a %g-byte backlog bound", cfg.Watchdog, bound)
	}

	incast := Cell{Scale: scale, Scheduler: "srpt", Load: 0.3, Pattern: PatternIncast, Fanout: 3, JobsPerSecond: 200}
	if cfg, _, err = incast.Build(); err != nil {
		t.Fatal(err)
	}
	if cfg.Seed != 7 {
		t.Fatalf("incast cell Config.Seed = %d, want 7", cfg.Seed)
	}

	mixed := Cell{Scale: scale, Scheduler: "random", Load: 0.5}
	scfg, err := mixed.ShardConfig(2)
	if err != nil {
		t.Fatal(err)
	}
	if scfg.Seed != 7 || scfg.SchedOpts.Seed != 7 || scfg.Shards != 2 {
		t.Fatalf("shard config seed %d, scheduler seed %d, shards %d", scfg.Seed, scfg.SchedOpts.Seed, scfg.Shards)
	}
	for _, c := range []Cell{faulty, incast} {
		if _, err := c.ShardConfig(2); err == nil {
			t.Fatalf("decomposed form accepted for %+v", c)
		}
	}
}
