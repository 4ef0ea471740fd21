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
	cases := [][]string{
		{"-scheduler", "bogus"},
		{"-load", "1.5", "-racks", "2", "-hosts", "3"},
		{"-racks", "0"},
		{"-unknownflag"},
		// Engine flags the selected engine would ignore.
		{"-racks", "2", "-hosts", "3", "-shards", "-3"},
		{"-racks", "2", "-hosts", "3", "-shards", "0"},
		{"-racks", "2", "-hosts", "3", "-workers", "3"},
		{"-racks", "2", "-hosts", "3", "-barrier-every", "-5"},
		{"-racks", "2", "-hosts", "3", "-shards", "1", "-timeline", "tl.json"},
		{"-racks", "2", "-hosts", "3", "-shards", "2", "-faults"},
		{"-racks", "2", "-hosts", "3", "-shards", "2", "-window", "0.01"},
		{"-racks", "2", "-hosts", "3", "-shards", "2", "-workload", "incast"},
	}
	for _, args := range cases {
		var buf bytes.Buffer
		if err := run(append(args, "-duration", "0.1"), &buf); err == nil {
			t.Fatalf("args %v accepted", args)
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
