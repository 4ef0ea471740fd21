package basrpt

// One benchmark per paper table/figure (DESIGN.md §3). Each benchmark runs
// the corresponding experiment at a reduced scale and reports the headline
// quantities through b.ReportMetric, so `go test -bench . -benchmem`
// regenerates every row/series shape the paper reports. cmd/basrptbench
// prints the full tables; EXPERIMENTS.md records paper-vs-measured.

import (
	"testing"
)

// benchScale keeps the per-iteration cost of the fabric experiments around
// a second while preserving the load structure.
func benchScale() Scale {
	s := ScaleSmall
	s.Duration = 1.5
	return s
}

// BenchmarkFig1SRPTInstabilityExample regenerates Figure 1: SRPT strands
// one packet; backlog-aware completes all three flows.
func BenchmarkFig1SRPTInstabilityExample(b *testing.B) {
	var leftoverSRPT, leftoverBA float64
	for i := 0; i < b.N; i++ {
		res, err := RunFig1()
		if err != nil {
			b.Fatal(err)
		}
		leftoverSRPT = res.SRPT.LeftoverPackets
		leftoverBA = res.BacklogAware.LeftoverPackets
	}
	b.ReportMetric(leftoverSRPT, "srpt-leftover-pkts")
	b.ReportMetric(leftoverBA, "basrpt-leftover-pkts")
}

// BenchmarkFig2QueueLengthSRPTvsThreshold regenerates Figure 2: queue
// growth at ~92% load under SRPT vs the threshold backlog-aware strategy.
func BenchmarkFig2QueueLengthSRPTvsThreshold(b *testing.B) {
	var srptQueue, backQueue float64
	for i := 0; i < b.N; i++ {
		res, err := RunFig2(benchScale(), 0)
		if err != nil {
			b.Fatal(err)
		}
		srptQueue = res.SRPT.MaxPortSeries.TailMean(0.3)
		backQueue = res.Backlog.MaxPortSeries.TailMean(0.3)
	}
	b.ReportMetric(srptQueue/1e6, "srpt-queue-MB")
	b.ReportMetric(backQueue/1e6, "threshold-queue-MB")
}

// BenchmarkTable1FCT regenerates Table I: per-class mean/99th FCT under
// SRPT and fast BASRPT at 95% load.
func BenchmarkTable1FCT(b *testing.B) {
	var sq, fq, sq99, fq99 float64
	for i := 0; i < b.N; i++ {
		res, err := RunSaturation(benchScale(), 0)
		if err != nil {
			b.Fatal(err)
		}
		s := res.SRPT.FCT.Stats(ClassQuery)
		f := res.Fast.FCT.Stats(ClassQuery)
		sq, fq, sq99, fq99 = s.MeanMs, f.MeanMs, s.P99Ms, f.P99Ms
	}
	b.ReportMetric(sq, "srpt-query-avg-ms")
	b.ReportMetric(fq, "basrpt-query-avg-ms")
	b.ReportMetric(sq99, "srpt-query-p99-ms")
	b.ReportMetric(fq99, "basrpt-query-p99-ms")
}

// BenchmarkFig5ThroughputAndQueue regenerates Figure 5: cumulative volume
// and queue stability at saturation.
func BenchmarkFig5ThroughputAndQueue(b *testing.B) {
	var srptGbps, fastGbps, deltaBytes float64
	for i := 0; i < b.N; i++ {
		res, err := RunSaturation(benchScale(), 0)
		if err != nil {
			b.Fatal(err)
		}
		srptGbps = res.SRPT.AverageGbps()
		fastGbps = res.Fast.AverageGbps()
		deltaBytes = res.Fast.DepartedBytes - res.SRPT.DepartedBytes
	}
	b.ReportMetric(srptGbps, "srpt-Gbps")
	b.ReportMetric(fastGbps, "basrpt-Gbps")
	b.ReportMetric(deltaBytes/1e6, "basrpt-extra-MB")
}

// BenchmarkFig6VaryingLoads regenerates Figure 6 at a reduced load grid.
func BenchmarkFig6VaryingLoads(b *testing.B) {
	var avgRatio, p99Ratio float64
	for i := 0; i < b.N; i++ {
		res, err := RunFig6(benchScale(), 0, []float64{0.2, 0.5, 0.8})
		if err != nil {
			b.Fatal(err)
		}
		last := res.Rows[len(res.Rows)-1]
		avgRatio = last.FastQueryAvgMs / last.SRPTQueryAvgMs
		p99Ratio = last.FastQueryP99Ms / last.SRPTQueryP99Ms
	}
	b.ReportMetric(avgRatio, "query-avg-ratio-at-80pct")
	b.ReportMetric(p99Ratio, "query-p99-ratio-at-80pct")
}

// BenchmarkFig7VSweepThroughputQueue regenerates Figure 7.
func BenchmarkFig7VSweepThroughputQueue(b *testing.B) {
	var lowVGbps, highVGbps, lowVQueue, highVQueue float64
	for i := 0; i < b.N; i++ {
		res, err := RunVSweep(benchScale(), []float64{1000, 10000})
		if err != nil {
			b.Fatal(err)
		}
		lowVGbps, highVGbps = res.Rows[0].Gbps, res.Rows[1].Gbps
		lowVQueue, highVQueue = res.Rows[0].StableQueueByte, res.Rows[1].StableQueueByte
	}
	b.ReportMetric(lowVGbps, "V1000-Gbps")
	b.ReportMetric(highVGbps, "V10000-Gbps")
	b.ReportMetric(lowVQueue/1e6, "V1000-queue-MB")
	b.ReportMetric(highVQueue/1e6, "V10000-queue-MB")
}

// BenchmarkFig8VSweepFCT regenerates Figure 8.
func BenchmarkFig8VSweepFCT(b *testing.B) {
	var lowVQuery, highVQuery, lowVBg, highVBg float64
	for i := 0; i < b.N; i++ {
		res, err := RunVSweep(benchScale(), []float64{1000, 10000})
		if err != nil {
			b.Fatal(err)
		}
		lowVQuery, highVQuery = res.Rows[0].QueryAvgMs, res.Rows[1].QueryAvgMs
		lowVBg, highVBg = res.Rows[0].BgAvgMs, res.Rows[1].BgAvgMs
	}
	b.ReportMetric(lowVQuery, "V1000-query-avg-ms")
	b.ReportMetric(highVQuery, "V10000-query-avg-ms")
	b.ReportMetric(lowVBg, "V1000-bg-avg-ms")
	b.ReportMetric(highVBg, "V10000-bg-avg-ms")
}

// BenchmarkTheoremBacklogScalesWithV regenerates the Theorem 1 validation
// (experiment E9): measured backlog under its O(V) bound, penalty gap
// shrinking with V.
func BenchmarkTheoremBacklogScalesWithV(b *testing.B) {
	var lowVBacklog, highVBacklog, lowVPenalty, highVPenalty float64
	for i := 0; i < b.N; i++ {
		res, err := RunTheorem1(4, 0.85, 50000, []float64{1, 256}, SeedRun(1))
		if err != nil {
			b.Fatal(err)
		}
		lowVBacklog, highVBacklog = res.Rows[0].MeanBacklog, res.Rows[1].MeanBacklog
		lowVPenalty, highVPenalty = res.Rows[0].MeanPenalty, res.Rows[1].MeanPenalty
	}
	b.ReportMetric(lowVBacklog, "V1-backlog-pkts")
	b.ReportMetric(highVBacklog, "V256-backlog-pkts")
	b.ReportMetric(lowVPenalty, "V1-penalty")
	b.ReportMetric(highVPenalty, "V256-penalty")
}

// BenchmarkDTMCRecurrence regenerates the tiny-switch stationary analysis
// (experiment E10).
func BenchmarkDTMCRecurrence(b *testing.B) {
	var srptCapMass, baCapMass float64
	for i := 0; i < b.N; i++ {
		res, err := RunDTMC(8, 0)
		if err != nil {
			b.Fatal(err)
		}
		srptCapMass = res.Shortest.CapMass
		baCapMass = res.Backlog.CapMass
	}
	b.ReportMetric(srptCapMass, "srpt-cap-mass")
	b.ReportMetric(baCapMass, "basrpt-cap-mass")
}

// BenchmarkAblationExactVsFast regenerates experiment E8: the greedy
// approximation's objective gap and speedup over the exhaustive search.
func BenchmarkAblationExactVsFast(b *testing.B) {
	var meanGap, speedup float64
	for i := 0; i < b.N; i++ {
		res, err := RunExactVsFast(5, 100, DefaultV, SeedRun(1))
		if err != nil {
			b.Fatal(err)
		}
		meanGap = res.MeanGap
		if res.FastMeanTime > 0 {
			speedup = float64(res.ExactMeanTime) / float64(res.FastMeanTime)
		}
	}
	b.ReportMetric(meanGap, "mean-objective-gap")
	b.ReportMetric(speedup, "exact/fast-time-ratio")
}

// BenchmarkSchedulerDecision measures the raw per-decision cost of the two
// main disciplines on a loaded 24-port fabric — the quantity that bounds
// simulator event throughput.
func BenchmarkSchedulerDecision(b *testing.B) {
	for _, tc := range []struct {
		name  string
		sched Scheduler
	}{
		{"srpt", NewSRPT()},
		{"fast-basrpt", NewFastBASRPT(DefaultV)},
		{"maxweight", NewMaxWeight()},
	} {
		b.Run(tc.name, func(b *testing.B) {
			tab := buildBenchTable(24, 200)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if d := tc.sched.Schedule(tab); len(d) == 0 {
					b.Fatal("empty decision")
				}
			}
		})
	}
}

// BenchmarkDistributedEmulation regenerates experiment E11: agreement of
// the request/grant distributed emulation with centralized fast BASRPT.
func BenchmarkDistributedEmulation(b *testing.B) {
	var convergedAgree, oneRoundAgree float64
	for i := 0; i < b.N; i++ {
		res, err := RunDistributed(8, 100, DefaultV, []int{0, 1}, SeedRun(1))
		if err != nil {
			b.Fatal(err)
		}
		convergedAgree = res.Rows[0].Agreement
		oneRoundAgree = res.Rows[1].Agreement
	}
	b.ReportMetric(convergedAgree, "converged-agreement")
	b.ReportMetric(oneRoundAgree, "one-round-agreement")
}

// BenchmarkNoiseRobustness regenerates experiment E12: fast BASRPT under
// flow-size estimation error.
func BenchmarkNoiseRobustness(b *testing.B) {
	var exactGbps, noisyGbps float64
	for i := 0; i < b.N; i++ {
		res, err := RunNoise(benchScale(), 0, 0.8, []float64{0, 1})
		if err != nil {
			b.Fatal(err)
		}
		exactGbps = res.Rows[0].Gbps
		noisyGbps = res.Rows[1].Gbps
	}
	b.ReportMetric(exactGbps, "exact-sizes-Gbps")
	b.ReportMetric(noisyGbps, "noisy-sizes-Gbps")
}

// BenchmarkIncast regenerates experiment E14: the partition/aggregate
// pattern under both schedulers.
func BenchmarkIncast(b *testing.B) {
	var srptP99, fastP99 float64
	for i := 0; i < b.N; i++ {
		res, err := RunIncast(benchScale(), 0, 0, 0, 0)
		if err != nil {
			b.Fatal(err)
		}
		srptP99 = res.SRPT.FCT.Stats(ClassQuery).P99Ms
		fastP99 = res.Fast.FCT.Stats(ClassQuery).P99Ms
	}
	b.ReportMetric(srptP99, "srpt-response-p99-ms")
	b.ReportMetric(fastP99, "basrpt-response-p99-ms")
}
