// Command perfbench is the repository's benchmark. It runs one workload
// per invocation from a single process, checks the program's outputs,
// and prints one JSON result as the last line of standard output:
//
//	perfbench --workload paper-144 --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it repeats untraced runs for --seconds and reports the
// end-to-end metrics as medians over the repetitions. With --trace 1 it
// makes one untraced reference run and one traced run (plus the
// workload's extra arms) and reports the per-layer metrics. Run it from
// the repository root, through run.sh, which builds it first. README.md
// describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// defaultSeed is the seed whose outputs are recorded: run at it, a
// workload must reproduce its recorded digest or committed findings.
// Seed 0 selects it too.
const defaultSeed = 1

// minReps is the fewest untraced repetitions one invocation makes, so
// every reported median has at least three samples.
const minReps = 3

// rep is one untraced repetition's end-to-end figures.
type rep struct {
	setup []float64 // seconds, one per timed construction
	run   float64   // seconds from the first event to the returned result
	flows int       // completed flows
	// output fingerprints the run's result (its digest or findings
	// bytes); it is called after the memory sampler stops, so the
	// benchmark's own check does not count toward the run's peak.
	output func() string
}

// checker verifies one run's output fingerprint.
type checker func(fp string) error

// layers holds a traced run's per-layer metrics by name.
type layers map[string]float64

type benchWorkload struct {
	name string
	// golden returns the fingerprint the default seed must reproduce.
	golden func() (string, error)
	rep    func(seed uint64) (rep, error)
	traced func(seed uint64, check checker, t *tally) (layers, error)
}

var workloads = []benchWorkload{
	{"paper-144", constant(paperDigest), paperRep, paperTraced},
	{"fabric-4k", constant(fabricDigest), fabricRep, fabricTraced},
	{"scenario-e3", e3Golden, e3Rep, e3Traced},
}

func constant(s string) func() (string, error) {
	return func() (string, error) { return s, nil }
}

type metricDef struct{ name, unit string }

// endToEnd are the untraced run's metrics.
var endToEnd = []metricDef{
	{"run_s", "s"},
	{"flows_per_s", "1/s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's metrics. A layer a workload does not
// exercise, or cannot be timed from outside on it, reads 0 (README.md).
var perLayer = []metricDef{
	{"sched.busy_s", "s"},
	{"sched.share", "ratio"},
	{"sched.ns_per_decision", "ns"},
	{"sched.decision_p50_ns", "ns"},
	{"sched.decision_p99_ns", "ns"},
	{"sched.decision_tail_ns", "ns"},
	{"sched.decisions", "count"},
	{"sched.index_rebuilds", "count"},
	{"sched.repair_ratio", "ratio"},
	{"workload.next_s", "s"},
	{"workload.arrivals", "count"},
	{"workload.eventq_high_water", "count"},
	{"fabricsim.engine_self_s", "s"},
	{"fabricsim.allocs_per_decision", "allocs"},
	{"fabricsim.gc_cycles", "count"},
	{"flow.pool_reuses", "count"},
	{"cells.busy_s", "s"},
	{"cells.max_worker_busy_s", "s"},
	{"cells.worker_wait_s", "s"},
	{"cells.barrier_wait_fraction", "ratio"},
	{"cells.skew_ratio", "ratio"},
	{"cells.allocs_per_decision", "allocs"},
	{"cells.gc_cycles", "count"},
	{"cells.msgs_sent", "count"},
	{"cells.barriers", "count"},
	{"coord.route_s", "s"},
	{"coord.fold_s", "s"},
	{"coord.other_s", "s"},
	{"coord.serial_fraction", "ratio"},
	{"coord.amdahl_bound", "x"},
	{"coord.parallel_speedup", "x"},
	{"runner.unit_busy_s", "s"},
	{"runner.unit_p50_s", "s"},
	{"runner.unit_max_s", "s"},
	{"runner.idle_fraction", "ratio"},
	{"runner.tail_s", "s"},
	{"scenario.fold_s", "s"},
	{"trace.overhead_s", "s"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:]))
}

// run prints report lines and the result to standard output, and usage
// errors to standard error.
func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: paper-144, fabric-4k or scenario-e3")
	seed := fs.Uint64("seed", defaultSeed, "workload seed (0 selects the default seed)")
	seconds := fs.Float64("seconds", 30, "how long the untraced repetitions run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics from untraced runs; 1: per-layer metrics from a traced run")
	commit := fs.String("commit", "unknown", "commit of the measured source, for the machine record")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *benchWorkload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	switch {
	case w == nil:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintf(os.Stderr, "perfbench: --trace must be 0 or 1, have %d\n", *trace)
		return 2
	case !(*seconds > 0):
		fmt.Fprintf(os.Stderr, "perfbench: --seconds must be positive, have %g\n", *seconds)
		return 2
	}
	if *seed == 0 {
		*seed = defaultSeed
	}
	// At most two goroutines of parallel work, on any machine.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	golden, err := w.golden()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	fmt.Println(machineLine(*commit))
	fmt.Printf("workload %s seed %d trace %d\n", w.name, *seed, *trace)

	var t tally
	check := newChecker(*seed, golden)
	var values map[string]float64
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
		values, err = w.traced(*seed, check, &t)
	} else {
		values, err = measure(w, *seed, *seconds, check, &t)
	}
	if err != nil {
		fmt.Printf("run failed: %v\n", err)
	}
	for _, r := range t.reasons {
		fmt.Printf("failed: %s\n", r)
	}
	fmt.Printf("error_rate %g (%d of %d runs failed)\n", t.errorRate(), t.failed, t.attempted)

	res := result{
		Correct:   err == nil && t.failed == 0 && t.attempted > 0,
		Attempted: max(t.attempted, 1),
		Failed:    t.failed,
		Metrics:   map[string]metricValue{},
	}
	if t.attempted == 0 {
		res.Failed = 1 // the run failed before its first repetition
	}
	for _, d := range defs {
		v := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Printf("metric %s is not finite\n", d.name)
			v, res.Correct = 0, false
		}
		res.Metrics[d.name] = metricValue{v, d.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// measure repeats untraced runs until seconds have passed (and at least
// minReps have run) and reports the end-to-end metrics as medians.
func measure(w *benchWorkload, seed uint64, seconds float64, check checker, t *tally) (map[string]float64, error) {
	var setups, runs, rates, peaks []float64
	start := time.Now()
	for t.attempted < minReps || time.Since(start).Seconds() < seconds {
		debug.FreeOSMemory() // every repetition starts from the same floor
		mem := sampleMemory()
		r, err := w.rep(seed)
		peak := mem.stop()
		var checkErr error
		var output string
		if err == nil {
			output = r.output()
			checkErr = check(output)
		}
		t.record(err, checkErr)
		if err != nil || checkErr != nil {
			continue
		}
		fmt.Printf("rep %d: setup %.6fs (median of %d) run %.4fs flows %d peak %.1fMB output %s\n",
			t.attempted, median(r.setup), len(r.setup), r.run, r.flows, peak, short(output))
		setups = append(setups, r.setup...)
		runs = append(runs, r.run)
		rates = append(rates, float64(r.flows)/r.run)
		peaks = append(peaks, peak)
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("no repetition succeeded")
	}
	describe("run_s", runs)
	describe("setup_s", setups)
	return map[string]float64{
		"run_s":       median(runs),
		"flows_per_s": median(rates),
		"setup_s":     median(setups),
		"peak_rss_mb": median(peaks),
	}, nil
}

// tracedRounds is how many rounds of untraced and traced runs a traced
// invocation makes; each per-layer metric is the median over them.
const tracedRounds = 3

// overRounds runs n rounds, each from a cold heap, and returns each
// metric's median over them.
func overRounds(n int, round func() (layers, error)) (layers, error) {
	var all []layers
	for i := 0; i < n; i++ {
		debug.FreeOSMemory()
		l, err := round()
		if err != nil {
			return nil, err
		}
		all = append(all, l)
	}
	return medianLayers(all), nil
}

// coldTimed returns how long f takes from a cold heap: memory freed and
// returned to the OS first, so every timed set-up pays the same page
// faults whatever ran before it.
func coldTimed(f func()) float64 {
	debug.FreeOSMemory()
	start := time.Now()
	f()
	return time.Since(start).Seconds()
}

// describe prints a timing's median, its highest percentile with at
// least ten samples beyond it, and the sample count.
func describe(name string, xs []float64) {
	tail := "no percentile has 10 samples beyond it"
	if q, label, ok := tailPercentile(int64(len(xs))); ok {
		tail = fmt.Sprintf("%s %.6g", label, quantile(xs, q))
	}
	fmt.Printf("%s: median %.6g, %s, n=%d\n", name, median(xs), tail, len(xs))
}

func newChecker(seed uint64, golden string) checker {
	var first string
	return func(fp string) error {
		if seed == defaultSeed {
			if fp != golden {
				return fmt.Errorf("output %s, recorded %s", short(fp), short(golden))
			}
			return nil
		}
		if first == "" {
			first = fp
		} else if fp != first {
			return fmt.Errorf("output %s, the first run's %s", short(fp), short(first))
		}
		return nil
	}
}

// short renders a fingerprint for a report line: digests as they are,
// longer outputs (findings documents) by their fnv64a hash.
func short(fp string) string {
	if len(fp) <= 16 && !strings.ContainsAny(fp, "\n{") {
		return fp
	}
	h := fnv.New64a()
	h.Write([]byte(fp))
	return fmt.Sprintf("fnv64a:%016x", h.Sum64())
}
