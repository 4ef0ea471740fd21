package main

import (
	"fmt"
	"time"

	"basrpt/internal/flow"
	"basrpt/internal/sched"
	"basrpt/internal/stats"
	"basrpt/internal/workload"
)

// timedScheduler times every Schedule call of the scheduler it wraps.
// It forwards each optional interface the simulator probes for, so a
// traced run takes the same code paths as an untraced one: hiding
// DirtyConsumer would keep the digest but silently move the scheduler
// to from-scratch index rebuilds.
type timedScheduler struct {
	inner sched.Scheduler
	busy  time.Duration
	hist  latencyHist // one sample per call
}

func (s *timedScheduler) Name() string { return s.inner.Name() }

func (s *timedScheduler) Schedule(t *flow.Table) []*flow.Flow {
	start := time.Now()
	d := s.inner.Schedule(t)
	el := time.Since(start)
	s.busy += el
	s.hist.record(int64(el))
	return d
}

// ConsumesDirty, CheckIndex and IndexStats answer exactly as the inner
// scheduler does, including when it lacks the interface: the sched
// helpers return the same not-a-consumer, nil and zero answers the
// simulator would have derived without the wrapper.
func (s *timedScheduler) ConsumesDirty() bool            { return sched.IsDirtyConsumer(s.inner) }
func (s *timedScheduler) CheckIndex(t *flow.Table) error { return sched.CheckIndex(s.inner, t) }
func (s *timedScheduler) IndexStats() sched.IndexStats   { return sched.IndexStatsOf(s.inner) }

// timedRNGScheduler adds RNGScheduler for inner schedulers that carry a
// private stream. It is a separate type because a checkpoint records an
// RNG position for every scheduler that claims one.
type timedRNGScheduler struct {
	*timedScheduler
	rng sched.RNGScheduler
}

func (s timedRNGScheduler) RNGState() stats.RNGState { return s.rng.RNGState() }
func (s timedRNGScheduler) RestoreRNGState(st stats.RNGState) error {
	return s.rng.RestoreRNGState(st)
}

// wrapScheduler returns the scheduler to hand the simulator and the
// timer to read afterwards.
func wrapScheduler(inner sched.Scheduler) (sched.Scheduler, *timedScheduler) {
	t := &timedScheduler{inner: inner}
	if rng, ok := inner.(sched.RNGScheduler); ok {
		return timedRNGScheduler{t, rng}, t
	}
	return t, t
}

// sourceGenerator is what the timed generator needs from the generator
// it wraps: every built-in generator is checkpointable and reports its
// event-calendar high water.
type sourceGenerator interface {
	workload.Checkpointable
	QueueHighWater() int
}

// timedGenerator times every Next call of the arrival generator it
// wraps and forwards Checkpointable and QueueHighWater, which the
// simulator probes for (the high water enters the run's digest).
type timedGenerator struct {
	inner    sourceGenerator
	busy     time.Duration
	arrivals int64
}

func wrapGenerator(inner workload.Generator) (*timedGenerator, error) {
	src, ok := inner.(sourceGenerator)
	if !ok {
		return nil, fmt.Errorf("perfbench: generator %T is not checkpointable with a queue high water", inner)
	}
	return &timedGenerator{inner: src}, nil
}

func (g *timedGenerator) Next() (workload.Arrival, bool) {
	start := time.Now()
	a, ok := g.inner.Next()
	g.busy += time.Since(start)
	if ok {
		g.arrivals++
	}
	return a, ok
}

func (g *timedGenerator) CheckpointState() (*workload.GeneratorState, error) {
	return g.inner.CheckpointState()
}

func (g *timedGenerator) RestoreCheckpoint(st *workload.GeneratorState) error {
	return g.inner.RestoreCheckpoint(st)
}

func (g *timedGenerator) QueueHighWater() int { return g.inner.QueueHighWater() }
