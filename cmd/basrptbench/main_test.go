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

// stripTimingLines drops the bracketed wall-time lines so outputs can be
// compared across worker counts.
func stripTimingLines(s string) string {
	var kept []string
	for _, line := range strings.Split(s, "\n") {
		if strings.HasPrefix(line, "[") {
			continue
		}
		kept = append(kept, line)
	}
	return strings.Join(kept, "\n")
}

// TestMultiSeedDeterminism is the acceptance check: -seeds 5 -parallel 4
// must produce byte-identical aggregate output to -seeds 5 -parallel 1.
func TestMultiSeedDeterminism(t *testing.T) {
	base := []string{"-exp", "table1", "-scale", "small", "-duration", "0.4", "-seeds", "5"}
	var par, ser bytes.Buffer
	if err := run(append(base, "-parallel", "4"), &par); err != nil {
		t.Fatal(err)
	}
	if err := run(append(base, "-parallel", "1"), &ser); err != nil {
		t.Fatal(err)
	}
	p, s := stripTimingLines(par.String()), stripTimingLines(ser.String())
	if p != s {
		t.Fatalf("parallel output differs from serial:\n--- parallel ---\n%s\n--- serial ---\n%s", p, s)
	}
	if !strings.Contains(p, "±ci95") || !strings.Contains(p, "5 seeds") {
		t.Fatalf("aggregate output missing ±ci column or seed count:\n%s", p)
	}
}

// TestMultiSeedCSV checks the multi-seed aggregate CSV export.
func TestMultiSeedCSV(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	err := run([]string{
		"-exp", "table1", "-scale", "small", "-duration", "0.4",
		"-seeds", "3", "-parallel", "2", "-csvdir", dir,
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	csvData, err := os.ReadFile(filepath.Join(dir, "multi_table1.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(csvData), "metric,n,mean,ci95,") {
		t.Fatalf("aggregate csv header wrong:\n%s", csvData)
	}
}

// TestMultiSeedRejectsBadFlags pins the multi-seed flag validation.
func TestMultiSeedRejectsBadFlags(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-seeds", "0"}, &buf); err == nil {
		t.Fatal("seeds 0 accepted")
	}
	if err := run([]string{"-exp", "stability", "-seeds", "2", "-scale", "small"}, &buf); err == nil {
		t.Fatal("stability-only multi-seed run should fail (no multi-seed form)")
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
