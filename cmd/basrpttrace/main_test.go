package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"basrpt"
)

func TestRunToStdout(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{
		"-scheduler", "srpt", "-racks", "2", "-hosts", "3",
		"-duration", "0.3", "-load", "0.6",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"# queue", "# total_backlog", "# throughput", "time,"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunToFiles(t *testing.T) {
	dir := t.TempDir()
	prefix := filepath.Join(dir, "run")
	var buf bytes.Buffer
	err := run([]string{
		"-scheduler", "fast-basrpt", "-racks", "2", "-hosts", "3",
		"-duration", "0.3", "-load", "0.6", "-out", prefix,
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, suffix := range []string{"queue", "total_backlog", "throughput"} {
		path := prefix + "_" + suffix + ".csv"
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing export %s: %v", path, err)
		}
		if !strings.HasPrefix(string(data), "time,") {
			t.Fatalf("%s has no header: %q", path, string(data[:20]))
		}
	}
	if !strings.Contains(buf.String(), "wrote") {
		t.Fatalf("stdout = %q", buf.String())
	}
}

func TestRunRejectsBadArgs(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-scheduler", "bogus"}, &buf); err == nil {
		t.Fatal("unknown scheduler accepted")
	}
	if err := run([]string{"-port", "99", "-racks", "2", "-hosts", "2", "-duration", "0.1"}, &buf); err == nil {
		t.Fatal("bad monitor port accepted")
	}
	if err := run([]string{"-out", "/nonexistent-dir/xx", "-racks", "2", "-hosts", "2", "-duration", "0.1", "-load", "0.4"}, &buf); err == nil {
		t.Fatal("unwritable output path accepted")
	}
}

func TestRunJSONLTraceExport(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.jsonl")
	var buf bytes.Buffer
	err := run([]string{
		"-scheduler", "fast-basrpt", "-racks", "2", "-hosts", "2",
		"-duration", "0.2", "-load", "0.5", "-seed", "4",
		"-out", filepath.Join(dir, "run"), "-trace", path,
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	h, events, err := basrpt.ReadTrace(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if h.Seed != 4 || len(events) == 0 {
		t.Fatalf("header %+v with %d events", h, len(events))
	}
	if !strings.Contains(buf.String(), "run.jsonl") {
		t.Fatalf("stdout missing trace report: %q", buf.String())
	}
}
