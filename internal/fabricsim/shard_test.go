package fabricsim

import (
	"bytes"
	"errors"
	"math"
	"runtime"
	"testing"

	"basrpt/internal/flow"
	"basrpt/internal/obs"
	"basrpt/internal/sched"
	"basrpt/internal/topology"
	"basrpt/internal/trace"
	"basrpt/internal/workload"
)

func shardTopo(t *testing.T, racks, hpr int) *topology.Topology {
	t.Helper()
	topo, err := topology.New(topology.Scaled(racks, hpr))
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// runShardTraced executes RunShard with a JSONL trace sink attached and
// returns the result plus the full trace bytes.
func runShardTraced(t *testing.T, cfg ShardConfig) (*Result, string) {
	t.Helper()
	var buf bytes.Buffer
	ew, err := trace.NewEventWriter(&buf, trace.TraceHeader{
		Seed:        int64(cfg.Seed),
		Scheduler:   cfg.Scheduler,
		Hosts:       cfg.Topology.NumHosts(),
		Load:        cfg.Load,
		DurationSec: cfg.Duration,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Obs = obs.New(obs.Options{Sink: ew})
	res, err := RunShard(cfg)
	if err != nil {
		t.Fatalf("RunShard(shards=%d): %v", cfg.Shards, err)
	}
	if err := ew.Flush(); err != nil {
		t.Fatal(err)
	}
	return res, buf.String()
}

// TestRunShardOneShardMatchesDirectSim is the refactor's equivalence
// proof: the Shards == 1 facade must be byte-identical — digest and
// JSONL trace alike — to building the centralized Sim by hand exactly
// as pre-refactor callers did.
func TestRunShardOneShardMatchesDirectSim(t *testing.T) {
	topo := shardTopo(t, 3, 4)
	const (
		load = 0.8
		dur  = 0.05
		seed = 7
	)

	// The pre-refactor construction: explicit scheduler, fabric-wide
	// generator, direct fabricsim.New.
	var directBuf bytes.Buffer
	ew, err := trace.NewEventWriter(&directBuf, trace.TraceHeader{
		Seed: seed, Scheduler: "fast-basrpt", Hosts: topo.NumHosts(),
		Load: load, DurationSec: dur,
	})
	if err != nil {
		t.Fatal(err)
	}
	scheduler, err := sched.New("fast-basrpt", sched.Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.NewMixed(workload.MixedConfig{
		Topology: topo, Load: load,
		QueryByteFraction: workload.DefaultQueryByteFraction,
		Duration:          dur, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := New(Config{
		Hosts: topo.NumHosts(), LinkBps: topo.HostLinkBps(),
		Scheduler: scheduler, Generator: gen, Duration: dur, Seed: seed,
		Obs: obs.New(obs.Options{Sink: ew}),
	})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := ew.Flush(); err != nil {
		t.Fatal(err)
	}

	sharded, shardedTrace := runShardTraced(t, ShardConfig{
		Topology: topo, Scheduler: "fast-basrpt", Load: load,
		Duration: dur, Seed: seed, Shards: 1,
	})

	if direct.CompletedFlows == 0 {
		t.Fatal("direct run completed no flows; equivalence check is vacuous")
	}
	if d, s := direct.DeterministicDigest(), sharded.DeterministicDigest(); d != s {
		t.Fatalf("one-shard digest diverged from direct sim:\n direct  %s\n sharded %s", d, s)
	}
	if directBuf.String() != shardedTrace {
		t.Fatalf("one-shard trace diverged from direct sim (%d vs %d bytes)",
			directBuf.Len(), len(shardedTrace))
	}
}

// TestRunShardDecomposedDeterminism pins the second determinism family:
// every shard count >= 2, at every GOMAXPROCS, produces byte-identical
// digests and traces — the shard count only groups rack cells onto
// goroutines.
func TestRunShardDecomposedDeterminism(t *testing.T) {
	topo := shardTopo(t, 4, 4)
	base := ShardConfig{
		Topology: topo, Scheduler: "fast-basrpt", Load: 0.85,
		Duration: 0.01, Seed: 11, ValidateDecisions: true,
	}
	type arm struct {
		shards, procs int
	}
	arms := []arm{{2, 1}, {3, 1}, {4, 1}, {2, 4}, {4, 4}}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	var wantDigest, wantTrace string
	var wantCompleted int
	for i, a := range arms {
		runtime.GOMAXPROCS(a.procs)
		cfg := base
		cfg.Shards = a.shards
		res, tr := runShardTraced(t, cfg)
		if i == 0 {
			wantDigest, wantTrace, wantCompleted = res.DeterministicDigest(), tr, res.CompletedFlows
			if wantCompleted == 0 {
				t.Fatal("decomposed run completed no flows; determinism check is vacuous")
			}
			continue
		}
		if got := res.DeterministicDigest(); got != wantDigest {
			t.Fatalf("shards=%d GOMAXPROCS=%d digest %s != shards=%d digest %s",
				a.shards, a.procs, got, arms[0].shards, wantDigest)
		}
		if tr != wantTrace {
			t.Fatalf("shards=%d GOMAXPROCS=%d trace diverged (%d vs %d bytes)",
				a.shards, a.procs, len(tr), len(wantTrace))
		}
	}
}

// TestRunShardFamiliesDiffer runs one configuration at 1, 2 and 4
// shards: the decomposed arms (2 and 4) share a digest, while the
// centralized arm (1) is the other family — fabric-wide matching, not
// per-rack — and must yield another digest.
func TestRunShardFamiliesDiffer(t *testing.T) {
	base := ShardConfig{
		Topology: shardTopo(t, 3, 4), Scheduler: "fast-basrpt", Load: 0.6,
		Duration: 0.01, Seed: 1,
	}
	digests := make(map[int]string)
	for _, shards := range []int{1, 2, 4} {
		cfg := base
		cfg.Shards = shards
		res, err := RunShard(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Decisions == 0 {
			t.Fatalf("shards=%d made no scheduling decisions; the digest check is vacuous", shards)
		}
		digests[shards] = res.DeterministicDigest()
	}
	if digests[2] != digests[4] {
		t.Fatalf("decomposed digests diverged: %s vs %s", digests[2], digests[4])
	}
	if digests[1] == digests[2] {
		t.Fatal("centralized and decomposed digests identical; the families model different physics")
	}
}

// TestRunShardDecomposedConservation checks the decomposed engine's
// bookkeeping invariants: byte conservation (arrived = departed +
// leftover) and flow conservation, plus non-degenerate cross-rack
// traffic actually flowing through the proxy ports. After the run every
// cell's kernel is deep-validated — VOQ aggregates over its hosts and
// core-proxy ports, per-cell byte conservation, and the scheduler's
// candidate index — the same check DeepValidateEvery runs centrally.
func TestRunShardDecomposedConservation(t *testing.T) {
	topo := shardTopo(t, 4, 4)
	cfg, err := ShardConfig{
		Topology: topo, Scheduler: "srpt", Load: 0.9,
		Duration: 0.02, Seed: 3, Shards: 2, ValidateDecisions: true,
	}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	cells, err := newShardCells(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runDecomposed(cfg, cells)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		if c.ports != topo.Config().HostsPerRack+topo.Config().Cores {
			t.Fatalf("cell %d kernel spans %d ports", c.cell, c.ports)
		}
		if c.table.NumFlows() == 0 || c.cMsgsDelivered.Value() == 0 {
			t.Fatalf("cell %d ended empty or saw no proxy traffic; deep validation is vacuous", c.cell)
		}
		if err := c.deepValidate(); err != nil {
			t.Fatalf("cell %d: %v", c.cell, err)
		}
	}
	viaRunShard, err := RunShard(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.DeterministicDigest(), viaRunShard.DeterministicDigest(); got != want {
		t.Fatalf("split construction digest %s != RunShard digest %s", got, want)
	}
	if res.ArrivedFlows == 0 || res.CompletedFlows == 0 {
		t.Fatalf("degenerate run: arrived %d completed %d", res.ArrivedFlows, res.CompletedFlows)
	}
	if got := res.CompletedFlows + res.LeftoverFlows; got != res.ArrivedFlows {
		t.Fatalf("flow conservation broken: %d completed + %d leftover != %d arrived",
			res.CompletedFlows, res.LeftoverFlows, res.ArrivedFlows)
	}
	sum := res.DepartedBytes + res.LeftoverBytes
	if diff := math.Abs(sum - res.ArrivedBytes); diff > 1e-6*math.Max(1, res.ArrivedBytes) {
		t.Fatalf("byte conservation broken: departed %g + leftover %g != arrived %g",
			res.DepartedBytes, res.LeftoverBytes, res.ArrivedBytes)
	}
	// Queries fan out fabric-wide, so a 4-rack run must complete flows
	// whose FCT includes the core hop — i.e. more completions than the
	// intra-rack-only background traffic could supply on its own.
	if res.FCT.Count(flow.ClassQuery) == 0 {
		t.Fatal("no query flows completed; cross-rack path untested")
	}
	if res.QueueSeries.Len() == 0 || res.TotalBacklogSeries.Len() == 0 || res.MaxPortSeries.Len() == 0 {
		t.Fatal("decomposed run recorded no sample series")
	}
}

// TestRunShardDecomposedCheckpointUnsupported pins the documented
// checkpoint story: the decomposed engine rejects checkpointing with
// ErrShardUnsupported, directing callers to the Shards == 1 path.
func TestRunShardDecomposedCheckpointUnsupported(t *testing.T) {
	topo := shardTopo(t, 2, 4)
	_, err := RunShard(ShardConfig{
		Topology: topo, Scheduler: "srpt", Load: 0.5, Duration: 0.01,
		Seed: 1, Shards: 2, CheckpointEvery: 0.001,
		CheckpointSink: func([]byte, float64) error { return nil },
	})
	if !errors.Is(err, ErrShardUnsupported) {
		t.Fatalf("decomposed checkpointing accepted or wrong error: %v", err)
	}
}

// TestRunShardOneShardCheckpointRoundTrip proves sharded runs
// checkpoint through the merge-to-1-shard path: a RunShard(Shards=1)
// run halted at a checkpoint resumes — via the centralized engine's
// Resume — to the same digest as the uninterrupted run.
func TestRunShardOneShardCheckpointRoundTrip(t *testing.T) {
	topo := shardTopo(t, 3, 4)
	base := ShardConfig{
		Topology: topo, Scheduler: "srpt", Load: 0.7,
		Duration: 0.04, Seed: 9, Shards: 1,
	}
	full, err := RunShard(base)
	if err != nil {
		t.Fatal(err)
	}

	var ckpt []byte
	halted := base
	halted.CheckpointEvery = 0.01
	halted.CheckpointSink = func(data []byte, simTime float64) error {
		ckpt = data
		return ErrStopAfterCheckpoint
	}
	partial, err := RunShard(halted)
	if err != nil {
		t.Fatal(err)
	}
	if partial.Diagnosis == nil || partial.Diagnosis.Reason != "checkpoint-stop" {
		t.Fatalf("halted run diagnosis = %+v", partial.Diagnosis)
	}
	if len(ckpt) == 0 {
		t.Fatal("checkpoint sink captured nothing")
	}

	// Rebuild the identical centralized configuration and resume.
	scheduler, err := sched.New("srpt", sched.Options{Seed: base.Seed})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.NewMixed(workload.MixedConfig{
		Topology: topo, Load: base.Load,
		QueryByteFraction: workload.DefaultQueryByteFraction,
		Duration:          base.Duration, Seed: base.Seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := Resume(Config{
		Hosts: topo.NumHosts(), LinkBps: topo.HostLinkBps(),
		Scheduler: scheduler, Generator: gen,
		Duration: base.Duration, Seed: base.Seed,
	}, ckpt)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r, f := resumed.DeterministicDigest(), full.DeterministicDigest(); r != f {
		t.Fatalf("resumed digest %s != uninterrupted digest %s", r, f)
	}
}

// TestRunShardConfigValidation exercises the typed rejection of every
// malformed ShardConfig dimension.
func TestRunShardConfigValidation(t *testing.T) {
	topo := shardTopo(t, 2, 4)
	ok := ShardConfig{Topology: topo, Scheduler: "srpt", Load: 0.5, Duration: 0.01, Seed: 1, Shards: 1}
	cases := []struct {
		name   string
		mutate func(*ShardConfig)
	}{
		{"nil topology", func(c *ShardConfig) { c.Topology = nil }},
		{"zero shards", func(c *ShardConfig) { c.Shards = 0 }},
		{"negative shards", func(c *ShardConfig) { c.Shards = -2 }},
		{"zero duration", func(c *ShardConfig) { c.Duration = 0 }},
		{"bad load", func(c *ShardConfig) { c.Load = 1.5 }},
		{"zero seed", func(c *ShardConfig) { c.Seed = 0 }},
		{"bad monitor", func(c *ShardConfig) { c.MonitorPort = topo.NumHosts() }},
		{"unknown scheduler", func(c *ShardConfig) { c.Scheduler = "nope" }},
	}
	for _, tc := range cases {
		cfg := ok
		tc.mutate(&cfg)
		if _, err := RunShard(cfg); !errors.Is(err, ErrShardConfig) {
			t.Errorf("%s: accepted or wrong error: %v", tc.name, err)
		}
		// The decomposed engine applies the same validation.
		if cfg.Shards == 1 {
			cfg.Shards = 2
			if _, err := RunShard(cfg); !errors.Is(err, ErrShardConfig) {
				t.Errorf("%s (decomposed): accepted or wrong error: %v", tc.name, err)
			}
		}
	}
	if _, err := RunShard(ok); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

// TestRunShardDecomposedSchedulerSweep runs every registered discipline
// through the decomposed engine once, checking the grouping-invariance
// contract holds for dirty-feed consumers and RNG schedulers alike.
func TestRunShardDecomposedSchedulerSweep(t *testing.T) {
	topo := shardTopo(t, 3, 4)
	for _, name := range sched.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			base := ShardConfig{
				Topology: topo, Scheduler: name, Load: 0.6,
				Duration: 0.005, Seed: 5, ValidateDecisions: true,
			}
			digests := make([]string, 0, 2)
			for _, shards := range []int{2, 3} {
				cfg := base
				cfg.Shards = shards
				res, err := RunShard(cfg)
				if err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
				digests = append(digests, res.DeterministicDigest())
			}
			if digests[0] != digests[1] {
				t.Fatalf("scheduler %s not grouping-invariant:\n %s\n %s", name, digests[0], digests[1])
			}
		})
	}
}
