// Command basrpttrace runs one fabric simulation and exports its time
// series as CSV for external plotting — the raw data behind Figures 2 and
// 5:
//
//	basrpttrace -scheduler srpt -load 0.95 -out /tmp/srpt
//
// writes /tmp/srpt_queue.csv, /tmp/srpt_total_backlog.csv and
// /tmp/srpt_throughput.csv. With -out "" the series go to stdout.
//
// Each run is one seed: trajectories from different seeds cannot be
// averaged sample by sample. Multi-seed aggregates of the scalar headline
// metrics are scenario specs, run by basrptexp.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"basrpt"
	"basrpt/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "basrpttrace:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("basrpttrace", flag.ContinueOnError)
	var (
		schedName = fs.String("scheduler", "srpt", fmt.Sprintf("scheduling discipline %v", basrpt.SchedulerNames()))
		v         = fs.Float64("v", basrpt.DefaultV, "BASRPT tradeoff weight V")
		load      = fs.Float64("load", 0.95, "per-port offered load in (0, 1)")
		racks     = fs.Int("racks", 4, "number of racks")
		hosts     = fs.Int("hosts", 6, "hosts per rack")
		duration  = fs.Float64("duration", 4, "simulated seconds")
		seed      = fs.Uint64("seed", 1, "random seed")
		monitor   = fs.Int("port", 0, "ingress port to monitor")
		out       = fs.String("out", "", "output file prefix (empty: stdout)")
		tracePath = fs.String("trace", "", "also write the schema-versioned JSONL event trace to this file (single-seed only)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var traceFile *os.File
	var traceWriter *basrpt.TraceWriter
	var o *basrpt.Obs
	if *tracePath != "" {
		var err error
		traceFile, err = os.Create(*tracePath)
		if err != nil {
			return fmt.Errorf("create trace: %w", err)
		}
		defer traceFile.Close()
		traceWriter, err = basrpt.NewTraceWriter(traceFile, basrpt.TraceHeader{
			Seed:        int64(*seed),
			Scheduler:   *schedName,
			Hosts:       *racks * *hosts,
			Load:        *load,
			DurationSec: *duration,
		})
		if err != nil {
			return fmt.Errorf("start trace: %w", err)
		}
		o = basrpt.NewObs(basrpt.ObsOptions{Sink: traceWriter})
	}

	topo, err := basrpt.NewTopology(basrpt.ScaledTopology(*racks, *hosts))
	if err != nil {
		return err
	}
	scheduler, err := basrpt.NewScheduler(*schedName, basrpt.SchedulerOptions{V: *v, Seed: *seed})
	if err != nil {
		return err
	}
	gen, err := basrpt.NewMixedWorkload(basrpt.MixedConfig{
		Topology:          topo,
		Load:              *load,
		QueryByteFraction: basrpt.DefaultQueryByteFraction,
		Duration:          *duration,
		Seed:              *seed,
	})
	if err != nil {
		return err
	}
	sim, err := basrpt.NewFabricSim(basrpt.FabricConfig{
		Hosts:       topo.NumHosts(),
		LinkBps:     topo.HostLinkBps(),
		Scheduler:   scheduler,
		Generator:   gen,
		Duration:    *duration,
		MonitorPort: *monitor,
		Obs:         o,
	})
	if err != nil {
		return err
	}
	res, err := sim.Run()
	if err != nil {
		return err
	}
	if traceWriter != nil {
		if err := traceWriter.Flush(); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
		if err := traceFile.Close(); err != nil {
			return fmt.Errorf("close trace: %w", err)
		}
		fmt.Fprintf(stdout, "wrote %s (%d events)\n", *tracePath, traceWriter.Events())
	}

	tput := res.Throughput.SeriesGbps()
	exports := []struct {
		name   string
		header string
		series *basrpt.Series
	}{
		{"queue", "monitored_port_backlog_bytes", &res.QueueSeries},
		{"total_backlog", "total_backlog_bytes", &res.TotalBacklogSeries},
		{"throughput", "throughput_gbps", &tput},
	}
	for _, e := range exports {
		if *out == "" {
			fmt.Fprintf(stdout, "# %s\n", e.name)
			if err := trace.WriteSeriesCSV(stdout, e.header, e.series); err != nil {
				return err
			}
			continue
		}
		path := fmt.Sprintf("%s_%s.csv", *out, e.name)
		f, err := os.Create(path)
		if err != nil {
			return fmt.Errorf("create %s: %w", path, err)
		}
		writeErr := trace.WriteSeriesCSV(f, e.header, e.series)
		closeErr := f.Close()
		if writeErr != nil {
			return fmt.Errorf("write %s: %w", path, writeErr)
		}
		if closeErr != nil {
			return fmt.Errorf("close %s: %w", path, closeErr)
		}
		fmt.Fprintf(stdout, "wrote %s (%d samples)\n", path, e.series.Len())
	}
	return nil
}
