package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunFig1(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-exp", "fig1"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Figure 1") || !strings.Contains(out, "completed 3/3") {
		t.Fatalf("fig1 output wrong:\n%s", out)
	}
}

func TestRunMultipleExperiments(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-exp", "fig1,ablation", "-scale", "small"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Figure 1") || !strings.Contains(out, "Ablation") {
		t.Fatalf("combined output wrong:\n%s", out)
	}
}

func TestRunTable1SmallScale(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-exp", "table1", "-scale", "small", "-duration", "0.5"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "TABLE I") {
		t.Fatalf("table1 output wrong:\n%s", buf.String())
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-exp", "nonsense"}, &buf); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	// A typo beside a valid id must not be dropped silently, and the
	// error must name the valid ids.
	buf.Reset()
	err := run([]string{"-exp", "fig1,tabel1"}, &buf)
	if err == nil || !strings.Contains(err.Error(), `"tabel1"`) ||
		!strings.Contains(err.Error(), "fig1|fig2|table1") {
		t.Fatalf("-exp fig1,tabel1: err = %v", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("-exp fig1,tabel1 ran experiments before failing:\n%s", buf.String())
	}
	if err := run([]string{"-scale", "galactic"}, &buf); err == nil {
		t.Fatal("unknown scale accepted")
	}
	if err := run([]string{"-notaflag"}, &buf); err == nil {
		t.Fatal("unknown flag accepted")
	}
}

func TestPickScale(t *testing.T) {
	for _, name := range []string{"small", "medium", "paper"} {
		if _, err := pickScale(name); err != nil {
			t.Fatalf("pickScale(%q): %v", name, err)
		}
	}
	if _, err := pickScale("nope"); err == nil {
		t.Fatal("bad scale accepted")
	}
	if pickV(0) != 2500 || pickV(7) != 7 {
		t.Fatal("pickV defaults wrong")
	}
}

func TestCSVExport(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	err := run([]string{
		"-exp", "fig2", "-scale", "small", "-duration", "0.4",
		"-racks", "2", "-hosts", "3", "-csvdir", dir,
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fig2_srpt_queue.csv", "fig2_threshold_queue.csv"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("missing export %s: %v", name, err)
		}
		if !strings.HasPrefix(string(data), "time,") {
			t.Fatalf("%s missing header", name)
		}
	}
}

func TestScaleOverrides(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{
		"-exp", "table1", "-scale", "small", "-duration", "0.3",
		"-racks", "2", "-hosts", "2",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "4 hosts (2x2)") {
		t.Fatalf("override not applied:\n%s", buf.String())
	}
}

func TestProfileFlagsWriteFiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	var buf bytes.Buffer
	err := run([]string{
		"-exp", "fig1", "-cpuprofile", cpu, "-memprofile", mem,
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatalf("profile missing: %v", err)
		}
		if fi.Size() == 0 {
			t.Fatalf("profile %s is empty", path)
		}
	}
}
