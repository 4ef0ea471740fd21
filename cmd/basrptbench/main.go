// Command basrptbench regenerates every table and figure of the paper's
// evaluation (see DESIGN.md §3 for the experiment index):
//
//	basrptbench -exp all -scale medium
//	basrptbench -exp table1 -scale paper      # full 144-host, 500 s run
//	basrptbench -exp fig6 -v 2500
//
// Experiments: fig1, fig2, table1, fig5, fig6, fig7, fig8, theory, dtmc,
// ablation, distributed, incast, noise, faults, all — plus the opt-in
// long-horizon "stability" showcase. An id outside that set is an error.
// Pass -csvdir to also export the series/rows as CSV.
//
// Every run is a single seed (-seed). Multi-seed aggregates with 95%
// confidence intervals are scenario specs, run by basrptexp (see
// EXPERIMENTS.md for the spec behind each paper figure).
//
// Profiling: -cpuprofile/-memprofile write pprof profiles around whatever
// work the other flags select; -pprof ADDR serves net/http/pprof for live
// inspection of long runs.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"basrpt"
	"basrpt/internal/trace"
)

// experiments lists every valid -exp id, for both the flag's help text
// and the check that rejects anything else. "all" selects each of them
// except the long-horizon stability showcase.
var experiments = []string{
	"fig1", "fig2", "table1", "fig5", "fig6", "fig7", "fig8", "theory", "dtmc",
	"ablation", "distributed", "incast", "noise", "faults", "stability", "all",
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "basrptbench:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("basrptbench", flag.ContinueOnError)
	var (
		exp       = fs.String("exp", "all", "experiment id ("+strings.Join(experiments, "|")+")")
		scaleName = fs.String("scale", "medium", "experiment scale (small|medium|paper)")
		v         = fs.Float64("v", 0, "BASRPT tradeoff weight V (0 = paper default 2500)")
		seed      = fs.Uint64("seed", 1, "random seed")
		duration  = fs.Float64("duration", 0, "override simulated seconds (0 = scale default)")
		racks     = fs.Int("racks", 0, "override rack count (0 = scale default)")
		hosts     = fs.Int("hosts", 0, "override hosts per rack (0 = scale default)")
		csvDir    = fs.String("csvdir", "", "when set, also export each experiment's series/rows as CSV into this directory")
		faultSeed = fs.Uint64("faultseed", 1, "seed of the faults experiment's fault schedule")
		cpuProf   = fs.String("cpuprofile", "", "write a CPU profile of the selected work to this file")
		memProf   = fs.String("memprofile", "", "write a heap profile (after the selected work) to this file")
		pprofAddr = fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) while the work runs")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	selected := map[string]bool{}
	for _, e := range strings.Split(*exp, ",") {
		e = strings.TrimSpace(e)
		if !slices.Contains(experiments, e) {
			return fmt.Errorf("unknown experiment %q (valid: %s)", e, strings.Join(experiments, "|"))
		}
		selected[e] = true
	}
	all := selected["all"]

	if *pprofAddr != "" {
		go func() {
			// The DefaultServeMux carries the net/http/pprof handlers; the
			// server dies with the process, so errors are only reportable.
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "basrptbench: pprof server:", err)
			}
		}()
		fmt.Fprintf(w, "[pprof serving on http://%s/debug/pprof/]\n", *pprofAddr)
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "basrptbench: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows retained memory
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "basrptbench: memprofile:", err)
			}
		}()
	}

	scale, err := pickScale(*scaleName)
	if err != nil {
		return err
	}
	scale.Seed = *seed
	if *duration > 0 {
		scale.Duration = *duration
	}
	if *racks > 0 {
		scale.Racks = *racks
	}
	if *hosts > 0 {
		scale.HostsPerRack = *hosts
	}

	runExp := func(names []string, fn func() (string, error)) error {
		match := all
		for _, n := range names {
			if selected[n] {
				match = true
			}
		}
		if !match {
			return nil
		}
		start := time.Now()
		out, err := fn()
		if err != nil {
			return fmt.Errorf("%s: %w", names[0], err)
		}
		fmt.Fprintln(w, out)
		fmt.Fprintf(w, "[%s took %s]\n\n", strings.Join(names, "/"), time.Since(start).Round(time.Millisecond))
		return nil
	}

	if err := runExp([]string{"fig1"}, func() (string, error) {
		res, err := basrpt.RunFig1()
		if err != nil {
			return "", err
		}
		return res.Render(), nil
	}); err != nil {
		return err
	}

	if err := runExp([]string{"fig2"}, func() (string, error) {
		res, err := basrpt.RunFig2(scale, 0)
		if err != nil {
			return "", err
		}
		if err := exportSeries(*csvDir, map[string]*basrpt.Series{
			"fig2_srpt_queue":      &res.SRPT.MaxPortSeries,
			"fig2_threshold_queue": &res.Backlog.MaxPortSeries,
		}); err != nil {
			return "", err
		}
		return res.Render(), nil
	}); err != nil {
		return err
	}

	if selected["table1"] || selected["fig5"] || all {
		start := time.Now()
		res, err := basrpt.RunSaturation(scale, *v)
		if err != nil {
			return fmt.Errorf("saturation: %w", err)
		}
		if selected["table1"] || all {
			fmt.Fprintln(w, res.RenderTable1())
		}
		if selected["fig5"] || all {
			fmt.Fprintln(w, res.RenderFig5())
		}
		srptTput := res.SRPT.Throughput.SeriesGbps()
		fastTput := res.Fast.Throughput.SeriesGbps()
		if err := exportSeries(*csvDir, map[string]*basrpt.Series{
			"fig5_srpt_throughput_gbps": &srptTput,
			"fig5_fast_throughput_gbps": &fastTput,
			"fig5_srpt_queue_bytes":     &res.SRPT.MaxPortSeries,
			"fig5_fast_queue_bytes":     &res.Fast.MaxPortSeries,
		}); err != nil {
			return err
		}
		fmt.Fprintf(w, "[table1/fig5 took %s]\n\n", time.Since(start).Round(time.Millisecond))
	}

	if err := runExp([]string{"fig6"}, func() (string, error) {
		res, err := basrpt.RunFig6(scale, *v, nil)
		if err != nil {
			return "", err
		}
		if *csvDir != "" {
			cols := [][]float64{nil, nil, nil, nil, nil, nil, nil}
			for _, row := range res.Rows {
				cols[0] = append(cols[0], row.Load)
				cols[1] = append(cols[1], row.SRPTQueryAvgMs)
				cols[2] = append(cols[2], row.FastQueryAvgMs)
				cols[3] = append(cols[3], row.SRPTQueryP99Ms)
				cols[4] = append(cols[4], row.FastQueryP99Ms)
				cols[5] = append(cols[5], row.SRPTGbps)
				cols[6] = append(cols[6], row.FastGbps)
			}
			headers := []string{"load", "srpt_query_avg_ms", "fast_query_avg_ms",
				"srpt_query_p99_ms", "fast_query_p99_ms", "srpt_gbps", "fast_gbps"}
			if err := exportColumns(*csvDir, "fig6_loads", headers, cols); err != nil {
				return "", err
			}
		}
		return res.Render(), nil
	}); err != nil {
		return err
	}

	if selected["fig7"] || selected["fig8"] || all {
		start := time.Now()
		res, err := basrpt.RunVSweep(scale, nil)
		if err != nil {
			return fmt.Errorf("vsweep: %w", err)
		}
		if selected["fig7"] || all {
			fmt.Fprintln(w, res.RenderFig7())
		}
		if selected["fig8"] || all {
			fmt.Fprintln(w, res.RenderFig8())
		}
		if *csvDir != "" {
			cols := [][]float64{nil, nil, nil, nil, nil, nil, nil}
			for _, row := range res.Rows {
				cols[0] = append(cols[0], row.V)
				cols[1] = append(cols[1], row.Gbps)
				cols[2] = append(cols[2], row.StableQueueByte)
				cols[3] = append(cols[3], row.QueryAvgMs)
				cols[4] = append(cols[4], row.QueryP99Ms)
				cols[5] = append(cols[5], row.BgAvgMs)
				cols[6] = append(cols[6], row.BgP99Ms)
			}
			headers := []string{"v", "gbps", "stable_queue_bytes",
				"query_avg_ms", "query_p99_ms", "bg_avg_ms", "bg_p99_ms"}
			if err := exportColumns(*csvDir, "fig7_fig8_vsweep", headers, cols); err != nil {
				return err
			}
		}
		fmt.Fprintf(w, "[fig7/fig8 took %s]\n\n", time.Since(start).Round(time.Millisecond))
	}

	if err := runExp([]string{"theory"}, func() (string, error) {
		res, err := basrpt.RunTheorem1(4, 0.85, 200000, nil, basrpt.SeedRun(*seed))
		if err != nil {
			return "", err
		}
		return res.Render(), nil
	}); err != nil {
		return err
	}

	if err := runExp([]string{"dtmc"}, func() (string, error) {
		res, err := basrpt.RunDTMC(0, 0)
		if err != nil {
			return "", err
		}
		return res.Render(), nil
	}); err != nil {
		return err
	}

	if err := runExp([]string{"ablation"}, func() (string, error) {
		res, err := basrpt.RunExactVsFast(5, 200, pickV(*v), basrpt.SeedRun(*seed))
		if err != nil {
			return "", err
		}
		return res.Render(), nil
	}); err != nil {
		return err
	}

	if err := runExp([]string{"distributed"}, func() (string, error) {
		res, err := basrpt.RunDistributed(8, 200, pickV(*v), nil, basrpt.SeedRun(*seed))
		if err != nil {
			return "", err
		}
		return res.Render(), nil
	}); err != nil {
		return err
	}

	// The stability showcase needs a long horizon (minutes of wall time),
	// so it is opt-in rather than part of -exp all.
	if selected["stability"] {
		start := time.Now()
		s := scale
		if s.Duration < 40 {
			s.Duration = 40
		}
		res, err := basrpt.RunStability(s, *v)
		if err != nil {
			return fmt.Errorf("stability: %w", err)
		}
		fmt.Fprintln(w, res.RenderStability())
		if err := exportSeries(*csvDir, map[string]*basrpt.Series{
			"stability_srpt_queue_bytes": &res.SRPT.MaxPortSeries,
			"stability_fast_queue_bytes": &res.Fast.MaxPortSeries,
		}); err != nil {
			return fmt.Errorf("stability csv: %w", err)
		}
		fmt.Fprintf(w, "[stability took %s]\n\n", time.Since(start).Round(time.Millisecond))
	}

	if err := runExp([]string{"incast"}, func() (string, error) {
		res, err := basrpt.RunIncast(scale, *v, 0, 0, 0)
		if err != nil {
			return "", err
		}
		return res.Render(), nil
	}); err != nil {
		return err
	}

	if err := runExp([]string{"faults"}, func() (string, error) {
		res, err := basrpt.RunFaults(scale, *v, basrpt.Run{Seed: *seed, FaultSeed: *faultSeed})
		if err != nil {
			return "", err
		}
		if err := exportSeries(*csvDir, map[string]*basrpt.Series{
			"faults_srpt_backlog_bytes": &res.SRPT.Result.TotalBacklogSeries,
			"faults_fast_backlog_bytes": &res.Fast.Result.TotalBacklogSeries,
		}); err != nil {
			return "", err
		}
		return res.Render(), nil
	}); err != nil {
		return err
	}

	return runExp([]string{"noise"}, func() (string, error) {
		res, err := basrpt.RunNoise(scale, *v, 0.8, nil)
		if err != nil {
			return "", err
		}
		return res.Render(), nil
	})
}

// exportSeries writes each named series as <dir>/<name>.csv; a no-op when
// dir is empty.
func exportSeries(dir string, series map[string]*basrpt.Series) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("create csv dir: %w", err)
	}
	for name, s := range series {
		path := filepath.Join(dir, name+".csv")
		f, err := os.Create(path)
		if err != nil {
			return fmt.Errorf("create %s: %w", path, err)
		}
		writeErr := trace.WriteSeriesCSV(f, name, s)
		closeErr := f.Close()
		if writeErr != nil {
			return fmt.Errorf("write %s: %w", path, writeErr)
		}
		if closeErr != nil {
			return fmt.Errorf("close %s: %w", path, closeErr)
		}
	}
	return nil
}

// exportColumns writes aligned columns as <dir>/<name>.csv; a no-op when
// dir is empty.
func exportColumns(dir, name string, headers []string, cols [][]float64) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("create csv dir: %w", err)
	}
	path := filepath.Join(dir, name+".csv")
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create %s: %w", path, err)
	}
	writeErr := trace.WriteColumnsCSV(f, headers, cols)
	closeErr := f.Close()
	if writeErr != nil {
		return fmt.Errorf("write %s: %w", path, writeErr)
	}
	if closeErr != nil {
		return fmt.Errorf("close %s: %w", path, closeErr)
	}
	return nil
}

func pickScale(name string) (basrpt.Scale, error) {
	switch name {
	case "small":
		return basrpt.ScaleSmall, nil
	case "medium":
		return basrpt.ScaleMedium, nil
	case "paper":
		return basrpt.ScalePaper, nil
	default:
		return basrpt.Scale{}, fmt.Errorf("unknown scale %q (small|medium|paper)", name)
	}
}

func pickV(v float64) float64 {
	if v <= 0 {
		return basrpt.DefaultV
	}
	return v
}
