package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"testing"

	"basrpt/internal/sched"
	"basrpt/internal/topology"
	"basrpt/internal/workload"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestMedianAndQuantile(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %g, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %g, want 2.5", got)
	}
	xs := []float64{5, 1, 4, 2, 3}
	if got := quantile(xs, 0.9); got != 5 {
		t.Errorf("p90 of 1..5 = %g, want 5 (nearest rank 5)", got)
	}
	if xs[0] != 5 {
		t.Error("quantile reordered its input")
	}
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n     int64
		label string
	}{
		{20, "p50"},   // median rank 10, 10 beyond
		{19, ""},      // median rank 10, 9 beyond: nothing qualifies
		{100, "p90"},  // p90 rank 90, 10 beyond
		{99, "p50"},   // p90 rank 90, 9 beyond
		{1000, "p99"}, // p99 rank 990, 10 beyond
		{95648, "p99.9"},
		{9070703, "p99.999"},
	} {
		_, label, ok := tailPercentile(tc.n)
		if label != tc.label || ok != (tc.label != "") {
			t.Errorf("tailPercentile(%d) = %q, %v; want %q", tc.n, label, ok, tc.label)
		}
	}
}

func TestLatencyHistQuantiles(t *testing.T) {
	var h latencyHist
	for v := int64(1); v <= 100000; v++ {
		h.record(v)
	}
	for _, q := range []float64{0.5, 0.99, 0.999} {
		want := q * 100000
		if got := h.quantile(q); math.Abs(got-want)/want > 1.0/(1<<histSubBits) {
			t.Errorf("quantile(%g) = %g, want %g within 1/%d", q, got, want, 1<<histSubBits)
		}
	}
	for i := 0; i < len(h.counts); i++ {
		lo, hi := histBounds(i)
		if histIndex(lo) != i || histIndex(hi) != i {
			t.Fatalf("bucket %d covers [%d, %d] but they index to %d and %d", i, lo, hi, histIndex(lo), histIndex(hi))
		}
		if i > 0 {
			if _, prevHi := histBounds(i - 1); prevHi+1 != lo {
				t.Fatalf("bucket %d starts at %d, previous ends at %d", i, lo, prevHi)
			}
		}
	}
	var empty latencyHist
	if empty.quantile(0.5) != 0 {
		t.Error("empty histogram quantile is not 0")
	}
}

func TestSerialFractionAndAmdahl(t *testing.T) {
	// 10 s of wall, the busiest worker busy for 6 s: 4 s no worker
	// overlapped, so 40% serial and at most 2.5x from any worker count.
	s := serialFraction(10, 6)
	if !near(s, 0.4) {
		t.Errorf("serialFraction(10, 6) = %g, want 0.4", s)
	}
	if got := amdahlBound(s); !near(got, 2.5) {
		t.Errorf("amdahlBound(0.4) = %g, want 2.5", got)
	}
	if got := serialFraction(10, 12); got != 0 {
		t.Errorf("busy beyond wall clamps to 0, got %g", got)
	}
	if got := serialFraction(0, 1); got != 0 {
		t.Errorf("zero wall gives %g, want 0", got)
	}
	if got := amdahlBound(0); got != 0 {
		t.Errorf("amdahlBound(0) = %g, want 0 (no ceiling)", got)
	}
}

func TestSummarizeFanout(t *testing.T) {
	// Two workers: [0,4] and [0,3] run together, [3,5] follows on the
	// freed worker, and [4,8] ends alone after the pool last ran full
	// at t=5.
	f := summarizeFanout([]interval{{0, 4}, {0, 3}, {3, 5}, {4, 8}}, 2)
	if !near(f.busy, 4+3+2+4) || !near(f.wall, 8) {
		t.Errorf("busy %g wall %g, want 13 and 8", f.busy, f.wall)
	}
	if !near(f.idleFraction, 1-13.0/16) {
		t.Errorf("idle fraction %g, want %g", f.idleFraction, 1-13.0/16)
	}
	if !near(f.tail, 3) {
		t.Errorf("tail %g, want 3 (from 5 to 8)", f.tail)
	}

	// Both workers finish together: no tail.
	if f := summarizeFanout([]interval{{0, 2}, {0, 2}}, 2); f.tail != 0 || f.idleFraction != 0 {
		t.Errorf("balanced pool: tail %g idle %g, want 0 and 0", f.tail, f.idleFraction)
	}
	// One unit on two workers never fills the pool: all of it is tail.
	if f := summarizeFanout([]interval{{1, 3}}, 2); !near(f.tail, 2) || !near(f.idleFraction, 0.5) {
		t.Errorf("single unit: tail %g idle %g, want 2 and 0.5", f.tail, f.idleFraction)
	}
	// A back-to-back handoff at t=2 is not a drop.
	if f := summarizeFanout([]interval{{0, 2}, {2, 4}, {0, 4}}, 2); f.tail != 0 {
		t.Errorf("handoff: tail %g, want 0", f.tail)
	}
	if f := summarizeFanout(nil, 2); f != (fanout{}) {
		t.Errorf("no units: %+v", f)
	}
}

func TestTallyErrorRate(t *testing.T) {
	var tl tally
	if tl.errorRate() != 1 {
		t.Error("an empty tally must not read as clean")
	}
	tl.record(nil, nil)
	tl.record(errors.New("run failed"), nil)
	tl.record(nil, errors.New("digest mismatch"))
	tl.record(nil, nil)
	if tl.attempted != 4 || tl.failed != 2 || !near(tl.errorRate(), 0.5) {
		t.Errorf("attempted %d failed %d rate %g, want 4, 2, 0.5", tl.attempted, tl.failed, tl.errorRate())
	}
	if len(tl.reasons) != 2 {
		t.Errorf("reasons %q, want two", tl.reasons)
	}
}

func TestMedianLayers(t *testing.T) {
	got := medianLayers([]layers{{"a": 1, "b": 5}, {"a": 3}, {"a": 2, "b": 7}})
	if got["a"] != 2 || got["b"] != 5 {
		t.Errorf("medianLayers = %v, want a=2 b=5 (a missing b counts as 0)", got)
	}
}

func TestCheckerRecordedAndRepeat(t *testing.T) {
	check := newChecker(defaultSeed, "golden")
	if check("golden") != nil || check("other") == nil {
		t.Error("default seed must match the recorded output exactly")
	}
	check = newChecker(7, "golden")
	if check("first") != nil || check("first") != nil || check("second") == nil {
		t.Error("other seeds must repeat the first run's output")
	}
}

func isRNG(s sched.Scheduler) bool {
	_, ok := s.(sched.RNGScheduler)
	return ok
}

// TestWrappersForward pins the forwarding the traced runs depend on.
func TestWrappersForward(t *testing.T) {
	s, ts := wrapScheduler(sched.NewFastBASRPT(2500))
	if !sched.IsDirtyConsumer(s) {
		t.Error("wrapped fast-basrpt hides DirtyConsumer")
	}
	if _, ok := s.(sched.IndexChecker); !ok {
		t.Error("wrapped fast-basrpt hides IndexChecker")
	}
	if _, ok := s.(sched.IndexStatser); !ok {
		t.Error("wrapped fast-basrpt hides IndexStatser")
	}
	if isRNG(s) {
		t.Error("wrapped fast-basrpt claims an RNG it does not have")
	}
	if s.Name() != ts.inner.Name() {
		t.Errorf("name %q, want %q", s.Name(), ts.inner.Name())
	}
	if s, _ := wrapScheduler(sched.NewRandom(1)); !isRNG(s) {
		t.Error("wrapped random hides RNGScheduler")
	}

	gen, err := workload.NewMixed(workload.MixedConfig{
		Topology: topology.MustNew(topology.Scaled(2, 4)), Load: 0.5, Duration: 0.01, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	g, err := wrapGenerator(gen)
	if err != nil {
		t.Fatal(err)
	}
	var wg workload.Generator = g
	if _, ok := wg.(workload.Checkpointable); !ok {
		t.Error("wrapped generator hides Checkpointable")
	}
	if _, ok := wg.(interface{ QueueHighWater() int }); !ok {
		t.Error("wrapped generator hides QueueHighWater")
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics the
// benchmark prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, benchmark %s/%s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, spec.Workloads[i].Name, w.name)
		}
	}
}
