package fabricsim

import (
	"bytes"
	"errors"
	"math"
	"runtime"
	"strings"
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

// runCentral runs the centralized engine (New + Run) on cfg's recipe —
// one fabric-wide scheduler and workload stream, built as a direct New
// caller builds them — with mutate, when non-nil, applied to the Config
// first. It is the centralized arm of the tests that set the two engines
// side by side; cfg.Shards and the pool knobs are ignored.
func runCentral(t testing.TB, cfg ShardConfig, mutate func(*Config)) *Result {
	t.Helper()
	opts := cfg.SchedOpts
	if opts.Seed == 0 {
		opts.Seed = cfg.Seed
	}
	scheduler, err := sched.New(cfg.Scheduler, opts)
	if err != nil {
		t.Fatal(err)
	}
	qfrac := cfg.QueryByteFraction
	if qfrac == 0 {
		qfrac = workload.DefaultQueryByteFraction
	}
	gen, err := workload.NewMixed(workload.MixedConfig{
		Topology: cfg.Topology, Load: cfg.Load, QueryByteFraction: qfrac,
		Duration: cfg.Duration, Seed: cfg.Seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := Config{
		Hosts: cfg.Topology.NumHosts(), LinkBps: cfg.Topology.HostLinkBps(),
		Scheduler: scheduler, Generator: gen, Duration: cfg.Duration,
		SampleInterval: cfg.SampleInterval, ThroughputBucket: cfg.ThroughputBucket,
		MonitorPort: cfg.MonitorPort, ValidateDecisions: cfg.ValidateDecisions,
		Seed: cfg.Seed, Obs: cfg.Obs,
	}
	if mutate != nil {
		mutate(&c)
	}
	return mustRun(t, c)
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

// TestRunShardFamiliesDiffer runs one configuration on the centralized
// engine and at 2 and 4 shards: the decomposed arms share a digest,
// while the centralized arm — fabric-wide matching, not per-rack — must
// yield another digest.
func TestRunShardFamiliesDiffer(t *testing.T) {
	base := ShardConfig{
		Topology: shardTopo(t, 3, 4), Scheduler: "fast-basrpt", Load: 0.6,
		Duration: 0.01, Seed: 1,
	}
	central := runCentral(t, base, nil)
	if central.Decisions == 0 {
		t.Fatal("centralized run made no scheduling decisions; the digest check is vacuous")
	}
	digests := make(map[int]string)
	for _, shards := range []int{2, 4} {
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
	if central.DeterministicDigest() == digests[2] {
		t.Fatal("centralized and decomposed digests identical; the engines model different physics")
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

// TestRunShardConfigValidation exercises the typed rejection of every
// malformed ShardConfig dimension, one shard (the centralized engine's
// job) included.
func TestRunShardConfigValidation(t *testing.T) {
	topo := shardTopo(t, 2, 4)
	ok := ShardConfig{Topology: topo, Scheduler: "srpt", Load: 0.5, Duration: 0.01, Seed: 1, Shards: 2}
	cases := []struct {
		name   string
		mutate func(*ShardConfig)
	}{
		{"nil topology", func(c *ShardConfig) { c.Topology = nil }},
		{"one shard", func(c *ShardConfig) { c.Shards = 1 }},
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
	}
	one := ok
	one.Shards = 1
	if _, err := RunShard(one); err == nil || !strings.Contains(err.Error(), "New") {
		t.Errorf("one-shard rejection does not point to New: %v", err)
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
