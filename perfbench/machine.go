package main

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"
)

// machineLine records where the numbers were measured: CPU count,
// GOMAXPROCS, Go version, CPU model, commit, and a digest of the source
// tree (the benchmark may run from a checkout with no git metadata).
func machineLine(commit string) string {
	return fmt.Sprintf("machine: nproc=%d gomaxprocs=%d go=%s cpu=%q commit=%s source=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel(), commit, sourceDigest("."))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes the Go sources, module files and scenario specs
// under root, in path order, skipping build output and VCS metadata.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); path != root && (n == ".git" || n == ".bench_build") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" && !strings.HasPrefix(path, "scenarios"+string(filepath.Separator)) {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(path))
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return fmt.Sprintf("sha256:%x", h.Sum(nil)[:8])
}

// memorySampler polls the Go runtime's resident memory while a
// repetition runs and keeps the peak.
type memorySampler struct {
	stopc chan struct{}
	peak  chan float64
}

// sampleMemory starts a sampler. Resident memory is what the runtime
// has mapped less what it has returned to the OS, read from
// runtime/metrics every 2 ms; a read does not stop the world.
func sampleMemory() *memorySampler {
	m := &memorySampler{stopc: make(chan struct{}), peak: make(chan float64, 1)}
	go func() {
		samples := []metrics.Sample{
			{Name: "/memory/classes/total:bytes"},
			{Name: "/memory/classes/heap/released:bytes"},
		}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		var peak uint64
		for {
			metrics.Read(samples)
			peak = max(peak, samples[0].Value.Uint64()-samples[1].Value.Uint64())
			select {
			case <-m.stopc:
				m.peak <- float64(peak) / (1 << 20)
				return
			case <-tick.C:
			}
		}
	}()
	return m
}

// stop ends the sampling and returns the peak in MiB, once the sampling
// goroutine has exited.
func (m *memorySampler) stop() float64 {
	close(m.stopc)
	return <-m.peak
}
