package sched

import (
	"testing"

	"basrpt/internal/flow"
	"basrpt/internal/stats"
)

// benchDriver replays a steady-state event loop at paper scale: each
// iteration serves the previous decision (draining a few VOQs, completing
// some flows) and admits replacement arrivals, so the per-decision dirty
// set stays small and realistic — the regime the incremental index is
// built for. Both benchmark arms replay the identical trajectory because
// the decisions are bit-identical.
type benchDriver struct {
	r    *stats.RNG
	tab  *flow.Table
	next flow.ID
}

func newBenchDriver(n, population int) *benchDriver {
	d := &benchDriver{r: stats.NewRNG(1719), tab: flow.NewTable(n), next: 1}
	for i := 0; i < population; i++ {
		d.arrive()
	}
	return d
}

func (d *benchDriver) arrive() {
	n := d.tab.N()
	size := 1 + float64(d.r.Intn(1_000_000)) + float64(d.next)*1e-3
	f := flow.NewFlow(d.next, d.r.Intn(n), d.r.Intn(n), flow.ClassOther, size, float64(d.next))
	d.next++
	d.tab.Add(f)
}

func (d *benchDriver) step(served []*flow.Flow) {
	for _, f := range served {
		if d.r.Float64() < 0.05 {
			d.tab.Drain(f, f.Remaining)
			d.tab.Remove(f)
			d.arrive() // keep the population (and load) steady
		} else {
			d.tab.Drain(f, 1+d.r.Float64()*f.Remaining*0.1)
		}
	}
	d.arrive()
}

// benchSchedule measures decisions/sec for one scheduler over the
// steady-state loop. population ≈ 0.8 load at 144 hosts in the fabric
// simulations (thousands of concurrent flows).
func benchSchedule(b *testing.B, s Scheduler, n, population int) {
	b.Helper()
	d := newBenchDriver(n, population)
	var served []*flow.Flow
	// Warm up: reach steady state (and build the index) before timing.
	for i := 0; i < 50; i++ {
		d.step(served)
		served = s.Schedule(d.tab)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.step(served)
		served = s.Schedule(d.tab)
	}
}

// Old-vs-new scheduling-core pairs: every routed discipline at
// N=144 and a high-load flow population, incremental index versus the
// from-scratch gather-and-sort it replaced.
const (
	benchPorts      = 144
	benchPopulation = 8000
)

func BenchmarkScheduleFastBASRPT(b *testing.B) {
	b.Run("incremental", func(b *testing.B) {
		benchSchedule(b, NewFastBASRPT(2500), benchPorts, benchPopulation)
	})
	b.Run("fromscratch", func(b *testing.B) {
		s := NewFastBASRPT(2500)
		s.SetIncremental(false)
		benchSchedule(b, s, benchPorts, benchPopulation)
	})
}

func BenchmarkScheduleSRPT(b *testing.B) {
	b.Run("incremental", func(b *testing.B) {
		benchSchedule(b, NewSRPT(), benchPorts, benchPopulation)
	})
	b.Run("fromscratch", func(b *testing.B) {
		s := NewSRPT()
		s.SetIncremental(false)
		benchSchedule(b, s, benchPorts, benchPopulation)
	})
}

func BenchmarkScheduleMaxWeight(b *testing.B) {
	b.Run("incremental", func(b *testing.B) {
		benchSchedule(b, NewMaxWeight(), benchPorts, benchPopulation)
	})
	b.Run("fromscratch", func(b *testing.B) {
		s := NewMaxWeight()
		s.SetIncremental(false)
		benchSchedule(b, s, benchPorts, benchPopulation)
	})
}

func BenchmarkScheduleThreshold(b *testing.B) {
	b.Run("incremental", func(b *testing.B) {
		benchSchedule(b, NewThresholdBacklog(1e6), benchPorts, benchPopulation)
	})
	b.Run("fromscratch", func(b *testing.B) {
		s := NewThresholdBacklog(1e6)
		s.SetIncremental(false)
		benchSchedule(b, s, benchPorts, benchPopulation)
	})
}
