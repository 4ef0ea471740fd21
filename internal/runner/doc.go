// Package runner fans independent (seed, task) simulation runs across a
// bounded worker pool and aggregates their metrics into per-metric mean,
// standard deviation, and 95% confidence intervals.
//
// Every number in a single-seed experiment is one draw from the run
// distribution; the tail percentiles the paper compares (query 99th FCT,
// stable queue level) are exactly where one draw is noisiest. The runner
// is the pool behind internal/scenario, the repository's one way to run a
// multi-seed experiment: Run derives one deterministic seed per replicate
// from a root seed (DeriveSeed), executes the replicates on up to
// GOMAXPROCS workers, and folds the named metrics each task returns into
// an Aggregate.
//
// Concurrency contract: the simulators and schedulers in this repository
// are deliberately not goroutine-safe (see internal/sched); the pool
// therefore shares nothing between runs. Each Task.Run invocation must
// construct its own scheduler, generator, and simulator from the seed it
// is handed. Results are written to a per-unit slot and aggregated in
// (seed, task) order after the pool drains, so the Aggregate is
// byte-identical no matter how many workers ran or how they interleaved.
package runner
