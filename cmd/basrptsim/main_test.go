package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"basrpt"
)

func TestRunTextOutput(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{
		"-scheduler", "fast-basrpt", "-racks", "2", "-hosts", "3",
		"-duration", "0.3", "-load", "0.5",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"fast-basrpt", "throughput", "query FCT", "queue trend"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunJSONOutput(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{
		"-scheduler", "srpt", "-racks", "2", "-hosts", "3",
		"-duration", "0.3", "-load", "0.5", "-json",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	var got summary
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if got.Scheduler != "srpt" || got.Hosts != 6 {
		t.Fatalf("summary = %+v", got)
	}
	if got.CompletedFlows == 0 || got.ThroughputGbps <= 0 {
		t.Fatalf("empty metrics: %+v", got)
	}
}

func TestRunRejectsBadArgs(t *testing.T) {
	small := []string{"-racks", "2", "-hosts", "3"}
	cases := []runErrorCase{
		{[]string{"-scheduler", "bogus"}, "unknown scheduler"},
		{append(small, "-load", "1.5"), "load 1.5"},
		{[]string{"-racks", "0"}, "racks 0"},
		{[]string{"-unknownflag"}, "flag provided but not defined"},
		{append(small, "-seed", "0"), "-seed must be nonzero"},
		{append(small, "-workload", "chaos"), "unknown pattern"},
		// Flags whose enabling flag is unset.
		{append(small, "-checkpointevery", "0.05"), "-checkpointevery requires -checkpoint"},
		{append(small, "-halt-after-checkpoint"), "-halt-after-checkpoint requires -checkpoint"},
		{append(small, "-tracewall"), "-tracewall requires -trace"},
		{append(small, "-faultseed", "7"), "-faultseed requires -faults"},
		{append(small, "-fanout", "3"), "-fanout requires -workload incast"},
		{append(small, "-jobs", "200"), "-jobs requires -workload incast"},
		{append(small, "-workload", "incast", "-queryfrac", "0.2"), "-queryfrac requires -workload mixed"},
		// Engine flags the selected engine would ignore.
		{append(small, "-shards", "-3"), "-shards -3 < 1"},
		{append(small, "-shards", "0"), "-shards 0 < 1"},
		{append(small, "-workers", "3"), "-workers requires the decomposed engine"},
		{append(small, "-barrier-every", "-5"), "-barrier-every requires the decomposed engine"},
		{append(small, "-shards", "1", "-timeline", "tl.json"), "-timeline requires the decomposed engine"},
		{append(small, "-shards", "2", "-faults"), "-faults requires the centralized engine"},
		{append(small, "-shards", "2", "-window", "0.01"), "-window requires the centralized engine"},
		{append(small, "-shards", "2", "-workload", "incast"), "decomposed engine runs only the mixed pattern"},
	}
	wantRunErrors(t, cases)
}

type runErrorCase struct {
	args []string
	want string
}

// wantRunErrors runs each case for 0.1 s and requires an error whose text
// contains the case's want.
func wantRunErrors(t *testing.T, cases []runErrorCase) {
	t.Helper()
	for _, c := range cases {
		var buf bytes.Buffer
		err := run(append(c.args, "-duration", "0.1"), &buf)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("args %v: error %v, want one containing %q", c.args, err, c.want)
		}
	}
}

func TestRunAllRegistrySchedulers(t *testing.T) {
	for _, name := range []string{"srpt", "fast-basrpt", "maxweight", "fifo", "threshold", "random"} {
		var buf bytes.Buffer
		err := run([]string{
			"-scheduler", name, "-racks", "2", "-hosts", "2",
			"-duration", "0.15", "-load", "0.4",
		}, &buf)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestRunIncastWorkload(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{
		"-workload", "incast", "-racks", "2", "-hosts", "3",
		"-duration", "0.2", "-load", "0.3", "-fanout", "3", "-jobs", "200",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "query FCT") {
		t.Fatalf("incast output missing FCTs:\n%s", buf.String())
	}
}

func TestRunRejectsUnknownWorkload(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-workload", "chaos"}, &buf); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestRunTraceExportIsDeterministic(t *testing.T) {
	dir := t.TempDir()
	runOnce := func(path string) []byte {
		var buf bytes.Buffer
		err := run([]string{
			"-scheduler", "fast-basrpt", "-racks", "2", "-hosts", "2",
			"-duration", "0.2", "-load", "0.5", "-seed", "9", "-trace", path,
		}, &buf)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(buf.String(), "trace") {
			t.Fatalf("text output missing trace summary:\n%s", buf.String())
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	a := runOnce(filepath.Join(dir, "a.jsonl"))
	b := runOnce(filepath.Join(dir, "b.jsonl"))
	if !bytes.Equal(a, b) {
		t.Fatal("fixed-seed -trace exports differ")
	}
	h, events, err := basrpt.ReadTrace(bytes.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	if h.Schema != basrpt.TraceSchema || h.Seed != 9 || h.Scheduler != "fast-basrpt" {
		t.Fatalf("trace header = %+v", h)
	}
	if len(events) == 0 {
		t.Fatal("trace has no events")
	}
}

// TestRunShardedEngine drives the -shards engine selection: every
// decomposed shard count reports one digest plus an imbalance block,
// -shards 1 is the centralized engine with all its features (fault
// injection included), decomposed traces are byte-identical across
// runs, and -timeline writes a Chrome trace.
func TestRunShardedEngine(t *testing.T) {
	dir := t.TempDir()
	base := []string{"-racks", "3", "-hosts", "3", "-duration", "0.02", "-load", "0.6", "-seed", "5"}
	runJSON := func(extra ...string) summary {
		t.Helper()
		var buf bytes.Buffer
		if err := run(append(append(append([]string{}, base...), "-json"), extra...), &buf); err != nil {
			t.Fatalf("%v: %v", extra, err)
		}
		var s summary
		if err := json.Unmarshal(buf.Bytes(), &s); err != nil {
			t.Fatalf("%v: invalid JSON: %v\n%s", extra, err, buf.String())
		}
		return s
	}

	two, three := runJSON("-shards", "2"), runJSON("-shards", "3")
	if two.CompletedFlows == 0 {
		t.Fatal("decomposed run completed no flows; the digest check is vacuous")
	}
	if two.Digest != three.Digest {
		t.Fatalf("decomposed digests diverged: 2 shards %s, 3 shards %s", two.Digest, three.Digest)
	}
	for _, s := range []summary{two, three} {
		if s.Imbalance == nil || s.Imbalance.Cells != 3 {
			t.Fatalf("decomposed run lacks a 3-cell imbalance block: %+v", s.Imbalance)
		}
	}

	central, one := runJSON(), runJSON("-shards", "1")
	if one.Digest != central.Digest {
		t.Fatalf("-shards 1 digest %s != centralized digest %s", one.Digest, central.Digest)
	}
	if one.Imbalance != nil || one.Shards != 0 {
		t.Fatalf("centralized run reported decomposed fields: shards %d, imbalance %+v", one.Shards, one.Imbalance)
	}
	if faulted := runJSON("-shards", "1", "-faults"); faulted.Faults == nil {
		t.Fatal("-shards 1 -faults ran without fault injection")
	}
	if central.Digest == two.Digest {
		t.Fatal("centralized and decomposed digests identical; the engines model different physics")
	}

	traced := func(name string) []byte {
		t.Helper()
		path := filepath.Join(dir, name)
		var buf bytes.Buffer
		if err := run(append(append([]string{}, base...), "-shards", "2", "-trace", path), &buf); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	if a, b := traced("a.jsonl"), traced("b.jsonl"); len(a) == 0 || !bytes.Equal(a, b) {
		t.Fatalf("decomposed -trace exports empty or different (%d vs %d bytes)", len(a), len(b))
	}

	tl := filepath.Join(dir, "timeline.json")
	var buf bytes.Buffer
	if err := run(append(append([]string{}, base...), "-shards", "2", "-timeline", tl), &buf); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(tl); err != nil || fi.Size() == 0 {
		t.Fatalf("-timeline wrote no file: %v", err)
	}
}

// seriesRun runs basrptsim with -series prefix on a 3x3 fabric at seed 4
// and returns the queue, total-backlog and throughput CSVs, each checked
// for its time header and samples.
func seriesRun(t *testing.T, prefix string, extra ...string) [][]byte {
	t.Helper()
	var buf bytes.Buffer
	args := append([]string{"-racks", "3", "-hosts", "3", "-duration", "0.05", "-load", "0.6",
		"-seed", "4", "-series", prefix}, extra...)
	if err := run(args, &buf); err != nil {
		t.Fatalf("%v: %v", extra, err)
	}
	if !strings.Contains(buf.String(), "series") {
		t.Fatalf("text output missing the series summary:\n%s", buf.String())
	}
	var files [][]byte
	for _, suffix := range []string{"queue", "total_backlog", "throughput"} {
		data, err := os.ReadFile(prefix + "_" + suffix + ".csv")
		if err != nil {
			t.Fatalf("missing %s export: %v", suffix, err)
		}
		if !strings.HasPrefix(string(data), "time,") || strings.Count(string(data), "\n") < 3 {
			t.Fatalf("%s export has no header or samples: %q", suffix, data)
		}
		files = append(files, data)
	}
	return files
}

// TestRunSeriesToFiles drives -series: three CSV files, each headed by the
// time column, on both engines; the decomposed engine's series are
// byte-identical at every shard count (grouping invariance), with -port
// selecting a host outside rack 0.
func TestRunSeriesToFiles(t *testing.T) {
	dir := t.TempDir()
	seriesRun(t, filepath.Join(dir, "central"), "-scheduler", "fast-basrpt")
	two := seriesRun(t, filepath.Join(dir, "two"), "-shards", "2", "-port", "5")
	four := seriesRun(t, filepath.Join(dir, "four"), "-shards", "4", "-port", "5")
	for i := range two {
		if !bytes.Equal(two[i], four[i]) {
			t.Fatalf("series file %d differs between -shards 2 and -shards 4", i)
		}
	}
}

// TestRunSeriesJSONLTraceExport checks that a -trace written beside the
// -series CSVs carries the run's seed in its header and has events.
func TestRunSeriesJSONLTraceExport(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "run.jsonl")
	seriesRun(t, filepath.Join(dir, "run"), "-trace", tracePath)
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if h, events, err := basrpt.ReadTrace(bytes.NewReader(raw)); err != nil || h.Seed != 4 || len(events) == 0 {
		t.Fatalf("trace header %+v with %d events: %v", h, len(events), err)
	}
}

// TestRunSeriesRejectsBadArgs covers the series-export errors: an unknown
// scheduler, a monitored port that does not exist on either engine, and
// an unwritable -series prefix.
func TestRunSeriesRejectsBadArgs(t *testing.T) {
	small := []string{"-racks", "2", "-hosts", "3", "-load", "0.4"}
	wantRunErrors(t, []runErrorCase{
		{append(small, "-scheduler", "bogus", "-series", t.TempDir()+"/run"), "unknown scheduler"},
		{append(small, "-port", "6"), "monitor port 6"},
		{append(small, "-port", "-1"), "monitor port -1"},
		{append(small, "-shards", "2", "-port", "6"), "monitor port 6"},
		{append(small, "-shards", "2", "-port", "-1"), "monitor port -1"},
		{append(small, "-series", "/nonexistent-dir/run"), "create /nonexistent-dir/run_queue.csv"},
	})
}
