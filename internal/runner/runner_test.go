package runner

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"basrpt/internal/stats"
)

// twoTasks is a deterministic pair of tasks whose metrics depend only on
// the seed, so parallel and serial runs must agree exactly.
func twoTasks() []Task {
	mk := func(name string, scale float64) Task {
		return Task{Name: name, Run: func(seed uint64) (Sample, error) {
			r := stats.NewRNG(seed)
			return Sample{
				"x": scale * r.Float64(),
				"y": scale * float64(seed%97),
			}, nil
		}}
	}
	return []Task{mk("a", 1), mk("b", 10)}
}

func TestParallelMatchesSerial(t *testing.T) {
	tasks := twoTasks()
	serial, err := Run(Config{Seeds: 7, Parallel: 1, RootSeed: 42}, tasks)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 13} {
		par, err := Run(Config{Seeds: 7, Parallel: workers, RootSeed: 42}, twoTasks())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial.Metrics, par.Metrics) {
			t.Fatalf("parallel=%d metrics differ from serial", workers)
		}
	}
}

func TestAggregateShape(t *testing.T) {
	agg, err := Run(Config{Seeds: 5, Parallel: 2, RootSeed: 1}, twoTasks())
	if err != nil {
		t.Fatal(err)
	}
	if len(agg.Seeds) != 5 {
		t.Fatalf("seeds=%d, want 5", len(agg.Seeds))
	}
	// Metrics come out in (task position, metric name) order with the task
	// name prefixed.
	want := []string{"a/x", "a/y", "b/x", "b/y"}
	var got []string
	for _, m := range agg.Metrics {
		got = append(got, m.Name)
		if m.N != 5 || len(m.Samples) != 5 {
			t.Fatalf("%s: n=%d samples=%d, want 5", m.Name, m.N, len(m.Samples))
		}
		if m.Min > m.Mean || m.Mean > m.Max {
			t.Fatalf("%s: min %g mean %g max %g out of order", m.Name, m.Min, m.Mean, m.Max)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("metric order %v, want %v", got, want)
	}
	if agg.Metric("b/y") == nil || agg.Metric("nope") != nil {
		t.Fatal("Metric lookup wrong")
	}
}

func TestSingleTaskHasNoPrefix(t *testing.T) {
	agg, err := Run(Config{Seeds: 2}, []Task{{Run: func(seed uint64) (Sample, error) {
		return Sample{"v": float64(seed)}, nil
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(agg.Metrics) != 1 || agg.Metrics[0].Name != "v" {
		t.Fatalf("metrics = %+v, want single unprefixed v", agg.Metrics)
	}
}

func TestErrorCarriesTaskAndSeed(t *testing.T) {
	boom := Task{Name: "boom", Run: func(seed uint64) (Sample, error) {
		if seed == DeriveSeed(9, 1) {
			return nil, fmt.Errorf("kaput")
		}
		return Sample{"ok": 1}, nil
	}}
	_, err := Run(Config{Seeds: 3, Parallel: 2, RootSeed: 9}, []Task{boom})
	if err == nil {
		t.Fatal("want error")
	}
	msg := err.Error()
	if !strings.Contains(msg, `task "boom"`) || !strings.Contains(msg, "kaput") ||
		!strings.Contains(msg, fmt.Sprintf("seed %d", DeriveSeed(9, 1))) {
		t.Fatalf("error lacks context: %v", err)
	}
}

func TestValidation(t *testing.T) {
	ok := func(uint64) (Sample, error) { return Sample{}, nil }
	cases := []struct {
		cfg   Config
		tasks []Task
	}{
		{Config{Seeds: 0}, []Task{{Run: ok}}},
		{Config{Seeds: 1}, nil},
		{Config{Seeds: 1}, []Task{{Name: "t"}}},
		{Config{Seeds: 1}, []Task{{Name: "t", Run: ok}, {Name: "t", Run: ok}}},
	}
	for i, c := range cases {
		if _, err := Run(c.cfg, c.tasks); err == nil {
			t.Fatalf("case %d: invalid input accepted", i)
		}
	}
}

func TestDeriveSeed(t *testing.T) {
	seen := map[uint64]bool{}
	for root := uint64(0); root < 4; root++ {
		for stream := 0; stream < 1000; stream++ {
			s := DeriveSeed(root, stream)
			if s == 0 {
				t.Fatalf("DeriveSeed(%d,%d) = 0", root, stream)
			}
			if seen[s] {
				t.Fatalf("DeriveSeed collision at root %d stream %d", root, stream)
			}
			seen[s] = true
		}
	}
	if DeriveSeed(1, 5) != DeriveSeed(1, 5) {
		t.Fatal("DeriveSeed not pure")
	}
}

func TestMissingMetricShrinksN(t *testing.T) {
	// A metric only some replicates report aggregates over those that did.
	agg, err := Run(Config{Seeds: 4, RootSeed: 3}, []Task{{Run: func(seed uint64) (Sample, error) {
		s := Sample{"always": 1}
		// Only the first two replicates report the optional metric.
		for i := 0; i < 2; i++ {
			if DeriveSeed(3, i) == seed {
				s["sometimes"] = 2
			}
		}
		return s, nil
	}}})
	if err != nil {
		t.Fatal(err)
	}
	always := agg.Metric("always")
	sometimes := agg.Metric("sometimes")
	if always == nil || always.N != 4 {
		t.Fatalf("always: %+v", always)
	}
	if sometimes == nil || sometimes.N != 2 {
		t.Fatalf("sometimes: %+v", sometimes)
	}
}

func TestCI95Value(t *testing.T) {
	// Known data: {1,2,3,4,5} has mean 3, stddev sqrt(2.5); t(4, .975)=2.776.
	agg, err := Run(Config{Seeds: 5, RootSeed: 1}, []Task{{Run: func(seed uint64) (Sample, error) {
		// Map each replicate seed to its index via position in the derived
		// sequence.
		for i := 0; i < 5; i++ {
			if DeriveSeed(1, i) == seed {
				return Sample{"v": float64(i + 1)}, nil
			}
		}
		return nil, fmt.Errorf("unexpected seed %d", seed)
	}}})
	if err != nil {
		t.Fatal(err)
	}
	m := agg.Metric("v")
	want := 2.776 * math.Sqrt(2.5) / math.Sqrt(5)
	if math.Abs(m.Mean-3) > 1e-12 || math.Abs(m.CI95-want) > 1e-3 {
		t.Fatalf("mean %g ci %g, want 3 / %g", m.Mean, m.CI95, want)
	}
}

func TestOnProgressReportsEveryUnit(t *testing.T) {
	tasks := twoTasks()
	var events []Progress
	agg, err := Run(Config{Seeds: 3, Parallel: 4, RootSeed: 5, OnProgress: func(p Progress) {
		events = append(events, p) // mutex-serialized by the runner
	}}, tasks)
	if err != nil {
		t.Fatal(err)
	}
	// Every unit fires a start and a terminal phase: 6 units -> 12 events.
	if len(events) != 12 {
		t.Fatalf("progress events = %d, want 12", len(events))
	}
	seenTasks := map[string]int{}
	var terminal int
	started := map[string]int{}
	for i, p := range events {
		if p.Total != 6 {
			t.Fatalf("event %d: Total = %d", i, p.Total)
		}
		switch p.Phase {
		case PhaseStart:
			started[p.Task]++
			if p.Sample != nil || p.Err != nil {
				t.Fatalf("start event %d carries sample/err: %+v", i, p)
			}
		case PhaseDone:
			terminal++
			if p.Done != terminal {
				t.Fatalf("event %d: Done = %d, want %d", i, p.Done, terminal)
			}
			if p.Err != nil || p.Sample == nil {
				t.Fatalf("event %d: err=%v sample=%v", i, p.Err, p.Sample)
			}
			seenTasks[p.Task]++
		default:
			t.Fatalf("event %d: unexpected phase %q", i, p.Phase)
		}
	}
	if started["a"] != 3 || started["b"] != 3 {
		t.Fatalf("start coverage = %v", started)
	}
	if seenTasks["a"] != 3 || seenTasks["b"] != 3 {
		t.Fatalf("task coverage = %v", seenTasks)
	}
	// The callback must not perturb aggregation: identical to a callback-
	// free run.
	plain, err := Run(Config{Seeds: 3, Parallel: 1, RootSeed: 5}, twoTasks())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(agg.Metrics, plain.Metrics) {
		t.Fatal("OnProgress changed the aggregate")
	}
}

func TestOnProgressCarriesFailures(t *testing.T) {
	boom := []Task{{Name: "boom", Run: func(seed uint64) (Sample, error) {
		return nil, fmt.Errorf("bad seed %d", seed)
	}}}
	var failed int
	_, err := Run(Config{Seeds: 2, Parallel: 2, OnProgress: func(p Progress) {
		if p.Err != nil {
			failed++
		}
	}}, boom)
	if err == nil {
		t.Fatal("expected run error")
	}
	if failed != 2 {
		t.Fatalf("failed progress events = %d, want 2", failed)
	}
}

func TestOnProgressResumePhase(t *testing.T) {
	task := []Task{{
		Name: "flaky",
		Run: func(seed uint64) (Sample, error) {
			return nil, fmt.Errorf("first attempt at %d", seed)
		},
		Resume: func(seed uint64, cause error) (Sample, error) {
			return Sample{"v": 1}, nil
		},
	}}
	var phases []Phase
	agg, err := Run(Config{Seeds: 1, Parallel: 1, OnProgress: func(p Progress) {
		phases = append(phases, p.Phase)
		if p.Phase == PhaseResume && p.Err == nil {
			t.Error("resume phase should carry the first attempt's error")
		}
	}}, task)
	if err != nil {
		t.Fatalf("resumed run should succeed: %v", err)
	}
	if agg == nil || agg.Metric("flaky/v") == nil {
		t.Fatal("missing resumed metric")
	}
	want := []Phase{PhaseStart, PhaseResume, PhaseDone}
	if !reflect.DeepEqual(phases, want) {
		t.Fatalf("phases = %v, want %v", phases, want)
	}
	for _, p := range phases {
		if p.Terminal() != (p == PhaseDone) {
			t.Errorf("Terminal(%q) wrong", p)
		}
	}
}
