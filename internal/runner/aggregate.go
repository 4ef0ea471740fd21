package runner

import "basrpt/internal/stats"

// MetricAggregate summarizes one metric across the replicates that
// reported it.
type MetricAggregate struct {
	// Name is the metric name, prefixed by its task name ("task/metric").
	Name string
	// Samples holds the per-replicate values in replicate order.
	Samples []float64
	// N is len(Samples).
	N int
	// Mean, StdDev, Min, Max summarize the samples; CI95 is the half-width
	// of the two-sided 95% confidence interval of the mean (Student-t).
	Mean, StdDev, CI95, Min, Max float64
}

func (m *MetricAggregate) finalize() {
	var s stats.Summary
	for _, v := range m.Samples {
		s.Add(v)
	}
	m.N = int(s.Count())
	m.Mean = s.Mean()
	m.StdDev = s.StdDev()
	m.CI95 = s.CI95()
	m.Min = s.Min()
	m.Max = s.Max()
}

// Aggregate is the result of one multi-seed Run: per-metric dispersion
// statistics and the seed derivation that produced them.
type Aggregate struct {
	// RootSeed and Seeds record the derivation so any replicate can be
	// replayed single-seed.
	RootSeed uint64
	Seeds    []uint64
	// Metrics is ordered by (task position, metric name) — deterministic
	// across worker counts.
	Metrics []MetricAggregate
}

// Metric returns the aggregate for the fully qualified name, or nil.
func (a *Aggregate) Metric(name string) *MetricAggregate {
	for i := range a.Metrics {
		if a.Metrics[i].Name == name {
			return &a.Metrics[i]
		}
	}
	return nil
}
