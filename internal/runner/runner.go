package runner

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
)

// Sample is the named metric values one run of one task produced.
type Sample map[string]float64

// Task is one independently repeatable unit of an experiment — typically a
// single simulation (one scheduler at one operating point). Run receives a
// derived seed and must build everything it needs from scratch: tasks
// execute concurrently and the simulators are not goroutine-safe.
type Task struct {
	// Name prefixes the task's metric names in the aggregate ("" for a
	// single-task experiment). Names must be unique within one Run call.
	Name string
	// Run executes the task at the given seed and returns its metrics.
	Run func(seed uint64) (Sample, error)
	// Resume, when non-nil, is the degraded-mode second attempt: it is
	// called after Run fails (error or panic) with the failing seed and
	// the cause, typically to restart the simulation from the task's last
	// checkpoint. A successful Resume replaces the failure; a failed or
	// panicking Resume keeps the unit failed with both causes reported.
	Resume func(seed uint64, cause error) (Sample, error)
	// CheckpointPath, when non-empty, names where this task persists its
	// checkpoints. It is quoted in per-seed failure messages so a crashed
	// sweep's survivors point straight at their resume artifacts.
	CheckpointPath string
}

// Phase identifies where in its lifecycle a (replicate, task) unit is
// when an OnProgress callback fires.
type Phase string

// The unit lifecycle: every unit emits PhaseStart when a worker picks it
// up and exactly one terminal phase (PhaseDone or PhaseFailed) when it
// finishes; PhaseResume fires in between only when a failed first
// attempt has a Resume hook to try.
const (
	PhaseStart  Phase = "start"
	PhaseResume Phase = "resume"
	PhaseDone   Phase = "done"
	PhaseFailed Phase = "failed"
)

// Terminal reports whether the phase marks a finished unit. Done counts
// include the reporting unit only on terminal phases, and Sample is only
// populated there.
func (p Phase) Terminal() bool { return p == PhaseDone || p == PhaseFailed }

// Progress is the structured progress value handed to OnProgress: which
// (replicate, task) unit fired, where it is in its lifecycle, and how
// far the whole sweep has come. Done counts units finished so far —
// including the reporting unit on terminal phases, excluding it on
// start/resume phases.
type Progress struct {
	Phase  Phase
	Done   int
	Total  int
	Task   string
	Seed   uint64
	Sample Sample // terminal phases only; nil on failure
	Err    error  // the unit's (or first attempt's, on PhaseResume) error
}

// Config parameterizes a multi-seed run.
type Config struct {
	// Seeds is the number of independent replicates (>= 1).
	Seeds int
	// Parallel is the worker count; 0 selects GOMAXPROCS. 1 runs serially
	// on the calling goroutine's clock but through the same code path, so
	// serial and parallel runs aggregate identically.
	Parallel int
	// RootSeed is the root of the per-replicate seed derivation (0
	// selects 1). Replicate i runs at DeriveSeed(RootSeed, i).
	RootSeed uint64
	// OnProgress, when non-nil, is called at every unit lifecycle phase
	// (start, optional resume, one terminal done/failed), from the worker
	// driving the unit, serialized by an internal mutex so
	// implementations need no locking of their own. Units progress in
	// pool order, so the callback sequence is NOT deterministic across
	// runs — it exists for live observability (per-seed progress lines,
	// ops endpoints), never for results; the aggregate stays
	// byte-identical at any worker count regardless of what the callback
	// observes. Consumers that only want completion lines should filter
	// on Progress.Phase.Terminal().
	OnProgress func(Progress)
}

func (c Config) withDefaults() Config {
	if c.RootSeed == 0 {
		c.RootSeed = 1
	}
	if c.Parallel <= 0 {
		c.Parallel = runtime.GOMAXPROCS(0)
	}
	return c
}

// DeriveSeed maps (root, stream) to a replicate seed via one splitmix64
// step — a pure function, so replicate seeds do not depend on worker
// scheduling. Streams of the same root never collide for stream counts
// that matter here (splitmix64 is a bijection on the shifted input).
func DeriveSeed(root uint64, stream int) uint64 {
	z := root + 0x9e3779b97f4a7c15*uint64(stream+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1 // seed 0 means "default" to most constructors; avoid it
	}
	return z
}

// unit is one (replicate, task) execution slot.
type unit struct {
	sample Sample
	err    error
}

// Run executes every task at every derived seed across the worker pool and
// aggregates the metrics. Individual task failures — including panics,
// which are recovered per unit and converted to errors — do not stop
// other units; all failures are joined into the returned error (with the
// offending seed, task, and checkpoint path named). When some units
// succeed, their partial aggregate is returned ALONGSIDE the error, so a
// poisoned seed costs one replicate, not the whole sweep. A nil
// *Aggregate is returned only when validation fails before any unit ran
// or no unit succeeded.
func Run(cfg Config, tasks []Task) (*Aggregate, error) {
	if cfg.Seeds < 1 {
		return nil, fmt.Errorf("runner: seeds %d < 1", cfg.Seeds)
	}
	if len(tasks) == 0 {
		return nil, errors.New("runner: no tasks")
	}
	names := make(map[string]bool, len(tasks))
	for _, t := range tasks {
		if t.Run == nil {
			return nil, fmt.Errorf("runner: task %q has nil Run", t.Name)
		}
		if names[t.Name] {
			return nil, fmt.Errorf("runner: duplicate task name %q", t.Name)
		}
		names[t.Name] = true
	}
	cfg = cfg.withDefaults()

	seeds := make([]uint64, cfg.Seeds)
	for i := range seeds {
		seeds[i] = DeriveSeed(cfg.RootSeed, i)
	}

	// One slot per (replicate, task): workers pull unit indices from a
	// channel and write only their own slot, so no synchronization beyond
	// the WaitGroup is needed and completion order cannot leak into the
	// results.
	nUnits := cfg.Seeds * len(tasks)
	units := make([]unit, nUnits)
	workers := cfg.Parallel
	if workers > nUnits {
		workers = nUnits
	}

	idx := make(chan int)
	var wg sync.WaitGroup
	var progressMu sync.Mutex
	var done int
	// notify serializes every lifecycle callback under one mutex and owns
	// the done counter, so Progress.Done is consistent with the phase
	// ordering each consumer observes.
	notify := func(phase Phase, taskName string, seed uint64, sample Sample, err error) {
		if cfg.OnProgress == nil {
			return
		}
		progressMu.Lock()
		if phase.Terminal() {
			done++
		}
		cfg.OnProgress(Progress{
			Phase: phase, Done: done, Total: nUnits,
			Task: taskName, Seed: seed,
			Sample: sample, Err: err,
		})
		progressMu.Unlock()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for u := range idx {
				task := tasks[u%len(tasks)]
				seed := seeds[u/len(tasks)]
				notify(PhaseStart, task.Name, seed, nil, nil)
				sample, err := runUnit(task.Run, seed)
				if err != nil && task.Resume != nil {
					notify(PhaseResume, task.Name, seed, nil, err)
					if resumed, rerr := runUnit(func(s uint64) (Sample, error) {
						return task.Resume(s, err)
					}, seed); rerr == nil {
						sample, err = resumed, nil
					} else {
						err = fmt.Errorf("%w; resume also failed: %v", err, rerr)
					}
				}
				if err != nil {
					note := ""
					if task.CheckpointPath != "" {
						note = fmt.Sprintf(" (checkpoint at %s)", task.CheckpointPath)
					}
					err = fmt.Errorf("runner: task %q seed %d%s: %w", task.Name, seed, note, err)
					sample = nil
				}
				units[u] = unit{sample: sample, err: err}
				phase := PhaseDone
				if err != nil {
					phase = PhaseFailed
				}
				notify(phase, task.Name, seed, sample, err)
			}
		}()
	}
	for u := 0; u < nUnits; u++ {
		idx <- u
	}
	close(idx)
	wg.Wait()

	var errs []error
	for _, u := range units {
		if u.err != nil {
			errs = append(errs, u.err)
		}
	}
	if len(errs) == nUnits {
		return nil, errors.Join(errs...)
	}

	agg := &Aggregate{RootSeed: cfg.RootSeed, Seeds: seeds}
	// Aggregate in (task, metric-name, replicate) order: deterministic
	// regardless of how the pool interleaved, including the float64
	// summation order inside each metric.
	for ti, task := range tasks {
		for _, name := range metricNames(units, ti, len(tasks), cfg.Seeds) {
			full := name
			if task.Name != "" {
				full = task.Name + "/" + name
			}
			m := MetricAggregate{Name: full}
			for si := 0; si < cfg.Seeds; si++ {
				if v, ok := units[si*len(tasks)+ti].sample[name]; ok {
					m.Samples = append(m.Samples, v)
				}
			}
			m.finalize()
			agg.Metrics = append(agg.Metrics, m)
		}
	}
	return agg, errors.Join(errs...)
}

// runUnit executes one attempt with a panic barrier: a panicking task
// poisons its own unit (with the stack preserved in the error), never the
// pool.
func runUnit(run func(uint64) (Sample, error), seed uint64) (sample Sample, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v\n%s", r, debug.Stack())
		}
	}()
	return run(seed)
}

// metricNames returns the sorted union of metric names task ti produced
// across all replicates.
func metricNames(units []unit, ti, nTasks, nSeeds int) []string {
	seen := map[string]bool{}
	var names []string
	for si := 0; si < nSeeds; si++ {
		for name := range units[si*nTasks+ti].sample {
			if !seen[name] {
				seen[name] = true
				names = append(names, name)
			}
		}
	}
	sort.Strings(names)
	return names
}
