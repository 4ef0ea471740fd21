package fabricsim

import (
	"runtime"
	"testing"
	"time"

	"basrpt/internal/obs"
	"basrpt/internal/sched"
	"basrpt/internal/topology"
)

// The engine's performance gates. Each bound is a named constant with the
// reason for its value; the correctness halves of the same checks (pooled
// vs unpooled, obs on vs off, trace determinism) are TestFlowPoolEquivalence,
// TestObsDisabledRunsIdentical and TestTraceByteIdenticalAcrossRuns.
const (
	// maxAllocsPerDecision and maxAllocBytesPerDecision bound the
	// allocator traffic of the scheduling hot path in both engines. The
	// centralized steady state is ~0.01 allocs/decision; the decomposed
	// engine is ~0.11 with the construction of its cells included. The
	// slack absorbs metrics-slice growth, cell buffer growth and the
	// end-of-run registry snapshot, while a reintroduced
	// per-decision allocation (one slice, one flow, one boxed event =
	// >= 1/decision) trips the gate immediately.
	maxAllocsPerDecision     = 0.25
	maxAllocBytesPerDecision = 512

	// maxDisabledOverheadPct bounds the disabled-probe overhead — probe
	// cost x probes/decision vs per-decision scheduling cost. Measured
	// steady state is well under 1%; 2% is the "observability is free when
	// off" claim, loose enough that timer noise never trips it while an
	// accidental always-on probe (one map lookup or time.Now per decision
	// = whole percents) trips it immediately.
	maxDisabledOverheadPct = 2.0

	// minDecomposedSpeedup is the decisions/sec floor of the 4-shard
	// rack-decomposed arm over the centralized engine. Per-rack matching
	// replaces the O(hosts²) fabric-global matching, so the bound is
	// algorithmic and holds at any core count.
	minDecomposedSpeedup = 2.0
	// minParallelSpeedup is the floor of the 4-shard arm over the 2-shard
	// arm, enforced only with >= 4 CPUs, where more workers can help.
	minParallelSpeedup = 1.0
)

// readAllocs settles the heap and snapshots the allocator counters.
func readAllocs() runtime.MemStats {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

// checkAllocs fails t when the allocator traffic between two snapshots
// exceeds the per-decision bounds.
func checkAllocs(t *testing.T, name string, before, after runtime.MemStats, decisions int64) {
	t.Helper()
	if decisions == 0 {
		t.Fatalf("%s: run took no decisions", name)
	}
	allocs := float64(after.Mallocs-before.Mallocs) / float64(decisions)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / float64(decisions)
	t.Logf("%s: %d decisions, %.4f allocs and %.1f B per decision", name, decisions, allocs, bytes)
	if allocs > maxAllocsPerDecision {
		t.Errorf("%s: %.4f allocs/decision exceeds %.2f", name, allocs, maxAllocsPerDecision)
	}
	if bytes > maxAllocBytesPerDecision {
		t.Errorf("%s: %.1f B/decision exceeds %d", name, bytes, maxAllocBytesPerDecision)
	}
}

// TestAllocBudget gates allocations per scheduling decision in both
// engines. The centralized case measures Sim.Run alone (construction
// excluded) on the paper's 144-host fabric at load 0.8 with flow pooling
// on; the decomposed case measures a whole RunShard call, construction
// included, since cells are built inside it.
func TestAllocBudget(t *testing.T) {
	topo := topology.MustNew(topology.Scaled(12, 12))
	for _, c := range []struct {
		name string
		mk   func() sched.Scheduler
	}{
		{"srpt", func() sched.Scheduler { return sched.NewSRPT() }},
		{"fast-basrpt", func() sched.Scheduler { return sched.NewFastBASRPT(2500) }},
	} {
		sim, err := New(Config{
			Hosts: topo.NumHosts(), LinkBps: topo.HostLinkBps(),
			Scheduler: c.mk(),
			Generator: mixedGen(t, topo, 0.8, 0.02, 1),
			Duration:  0.02, Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		before := readAllocs()
		res, err := sim.Run()
		after := readAllocs()
		if err != nil {
			t.Fatal(err)
		}
		checkAllocs(t, "centralized "+c.name, before, after, res.Decisions)
	}

	before := readAllocs()
	res, err := RunShard(ShardConfig{
		Topology: topology.MustNew(topology.Scaled(24, 12)), Scheduler: "fast-basrpt",
		Load: 0.5, Duration: 0.02, Seed: 1, Shards: 4,
	})
	after := readAllocs()
	if err != nil {
		t.Fatal(err)
	}
	checkAllocs(t, "decomposed fast-basrpt", before, after, res.Decisions)
}

// TestObsDisabledOverhead gates what the disabled observability path
// costs. A rate delta between two fabric runs cannot show it — at ~µs
// decisions the ~ns probe drowns in run-to-run noise — so the gate times
// the probe directly (a nil-handle Emit loop), counts the probes an
// instrumented run fires per decision, and compares the product with
// the measured per-decision scheduling cost.
func TestObsDisabledOverhead(t *testing.T) {
	// 24 hosts: a decision costs ~1.5µs, so the ~2.5ns probe sits well
	// inside the bound. Tiny 4-port fabrics are excluded on purpose — their
	// ~200ns decisions make the ratio hug the bound and flake.
	topo := topology.MustNew(topology.Scaled(4, 6))
	run := func(o *obs.Obs) *Result {
		return mustRun(t, Config{
			Hosts: topo.NumHosts(), LinkBps: topo.HostLinkBps(),
			Scheduler: sched.NewFastBASRPT(2500),
			Generator: mixedGen(t, topo, 0.7, 0.1, 3),
			Duration:  0.1, Seed: 3, Obs: o,
		})
	}
	disabled := run(nil)
	o := obs.New(obs.Options{})
	enabled := run(o)
	if disabled.Decisions == 0 || disabled.Decisions != enabled.Decisions {
		t.Fatalf("decisions %d (disabled) vs %d (enabled): arms must take the same nonzero decisions",
			disabled.Decisions, enabled.Decisions)
	}

	const iters = 20_000_000
	var nilObs *obs.Obs
	start := time.Now()
	for i := 0; i < iters; i++ {
		nilObs.Emit(0, "probe", -1, 0, "")
	}
	probeNs := float64(time.Since(start).Nanoseconds()) / iters

	// Each decision's disabled cost: the event probes that would have fired
	// (counted on the enabled arm — identical control flow) plus the two
	// always-on counter accumulations in reschedule.
	dec := float64(disabled.Decisions)
	probes := float64(o.EventCount())/dec + 2
	decisionNs := float64(disabled.SchedNanos) / dec
	if decisionNs <= 0 {
		t.Fatalf("decision cost %g ns not measured", decisionNs)
	}
	pct := 100 * probeNs * probes / decisionNs
	t.Logf("disabled overhead %.4f%%: probe %.2f ns x %.2f/decision vs %.0f ns decisions",
		pct, probeNs, probes, decisionNs)
	if pct > maxDisabledOverheadPct {
		t.Fatalf("disabled observability overhead %.4f%% exceeds %.0f%%", pct, maxDisabledOverheadPct)
	}
}

// BenchmarkShardScaling gates the decomposed engine's decision throughput
// on a 4128-host fabric at load 0.5 (make bench-shard):
//
//	go test -run NONE -bench ShardScaling -benchtime 1x ./internal/fabricsim/
//
// It runs the centralized engine and the rack-decomposed engine at 2 and 4
// shards, timing each whole run (construction included). The
// centralized arm's O(hosts²) matching makes it ~100x slower in wall time
// than every decomposed arm combined, so it runs a quarter of the horizon:
// decisions/sec converges well within it. The decomposed arms run the full
// horizon and must share one digest (grouping invariance at scale).
func BenchmarkShardScaling(b *testing.B) {
	const (
		racks, hostsPerRack = 344, 12
		load                = 0.5
		duration            = 0.002
		centralizedDuration = 0.0005
	)
	topo, err := topology.New(topology.Scaled(racks, hostsPerRack))
	if err != nil {
		b.Fatal(err)
	}
	// shards 1 is the centralized engine.
	arm := func(shards int, dur float64) (decPerSec float64, digest string) {
		cfg := ShardConfig{
			Topology: topo, Scheduler: "fast-basrpt",
			Load: load, Duration: dur, Seed: 1, Shards: shards,
		}
		start := time.Now()
		var res *Result
		if shards == 1 {
			res = runCentral(b, cfg, nil)
		} else {
			var err error
			if res, err = RunShard(cfg); err != nil {
				b.Fatalf("shards=%d: %v", shards, err)
			}
		}
		wall := time.Since(start).Seconds()
		if res.Decisions == 0 {
			b.Fatalf("shards=%d: run took no decisions", shards)
		}
		return float64(res.Decisions) / wall, res.DeterministicDigest()
	}
	for i := 0; i < b.N; i++ {
		central, _ := arm(1, centralizedDuration)
		two, digest2 := arm(2, duration)
		four, digest4 := arm(4, duration)
		if digest2 != digest4 {
			b.Fatalf("decomposed digests diverged: 2 shards %s, 4 shards %s", digest2, digest4)
		}
		speedup, parallel := four/central, four/two
		b.ReportMetric(central, "centralized-dec/s")
		b.ReportMetric(two, "2shard-dec/s")
		b.ReportMetric(four, "4shard-dec/s")
		b.ReportMetric(speedup, "speedup-vs-centralized")
		b.ReportMetric(parallel, "4-vs-2-shard")
		if speedup < minDecomposedSpeedup {
			b.Fatalf("4 shards at %.2fx the centralized decisions/sec, want >= %.1fx", speedup, minDecomposedSpeedup)
		}
		if cpus := runtime.NumCPU(); cpus >= 4 && parallel < minParallelSpeedup {
			b.Fatalf("4 shards at %.2fx the 2-shard decisions/sec on %d CPUs, want >= %.1fx",
				parallel, cpus, minParallelSpeedup)
		}
	}
}
