// Package core assembles the substrates into the paper's experiments: one
// runner per table/figure (the per-experiment index lives in DESIGN.md §3),
// each returning a structured result that renders the same rows/series the
// paper reports. Every fabric run is assembled by one recipe, Cell, which
// the runners, internal/scenario and cmd/basrptsim share. cmd/basrptbench
// and the examples drive the runners; make experiments-check pins their
// small-scale output byte for byte.
package core

import (
	"errors"
	"fmt"

	"basrpt/internal/topology"
)

// Scale selects experiment fidelity. The paper runs 144 hosts for 500
// simulated seconds; reduced scales preserve the load structure (rack
// locality, query fan-out, per-port utilization) while shrinking host count
// and horizon. EXPERIMENTS.md records which scale produced each number.
type Scale struct {
	// Racks and HostsPerRack shape the topology (paper: 12 x 12).
	Racks        int
	HostsPerRack int
	// Duration is the simulated horizon in seconds (paper: 500).
	Duration float64
	// WarmupFraction of the horizon is excluded from trend classification
	// (arrival transients). Defaults to 0.2.
	WarmupFraction float64
	// Seed drives every random stream derived from this scale.
	Seed uint64
}

// Predefined scales. ScaleSmall keeps unit tests fast; ScaleMedium is the
// default for the benchmark harness; ScalePaper is the full evaluation
// configuration (minutes of wall time per experiment).
var (
	ScaleSmall  = Scale{Racks: 2, HostsPerRack: 4, Duration: 1.5, Seed: 1}
	ScaleMedium = Scale{Racks: 4, HostsPerRack: 6, Duration: 4, Seed: 1}
	ScalePaper  = Scale{Racks: 12, HostsPerRack: 12, Duration: 500, Seed: 1}
)

// ErrScale reports a Scale with negative or otherwise unusable dimensions.
// Validate wraps it so callers can detect bad sizing with errors.Is.
var ErrScale = errors.New("core: invalid scale")

// Validate rejects scales whose dimensions cannot describe a fabric:
// negative racks or hosts-per-rack, negative duration, or a warmup fraction
// outside [0,1). Zero counts are also rejected — callers that want the
// ScaleMedium defaults must go through the runners (RunCell etc.), which
// apply withDefaults explicitly; entry points taking user-supplied sizes
// (the shard bench, CLI flags) call Validate first so a typo like
// "-racks -4" fails with a typed error instead of silently defaulting.
func (s Scale) Validate() error {
	if s.Racks <= 0 {
		return fmt.Errorf("%w: racks %d (want > 0)", ErrScale, s.Racks)
	}
	if s.HostsPerRack <= 0 {
		return fmt.Errorf("%w: hosts per rack %d (want > 0)", ErrScale, s.HostsPerRack)
	}
	if s.Duration <= 0 {
		return fmt.Errorf("%w: duration %g (want > 0)", ErrScale, s.Duration)
	}
	if s.WarmupFraction < 0 || s.WarmupFraction >= 1 {
		return fmt.Errorf("%w: warmup fraction %g (want [0,1))", ErrScale, s.WarmupFraction)
	}
	return nil
}

// Hosts returns the total host count of the scale after defaulting, i.e.
// the host count the runners will actually simulate. The bench flags use it
// to size topologies and report headers without re-deriving the defaulting
// rules.
func (s Scale) Hosts() int {
	s = s.withDefaults()
	return s.Racks * s.HostsPerRack
}

// Topology builds the scale's fabric and validates the big-switch
// abstraction. Negative dimensions fail with ErrScale before reaching the
// topology layer (which would reject them with topology.ErrDimension).
func (s Scale) Topology() (*topology.Topology, error) {
	if s.Racks < 0 || s.HostsPerRack < 0 {
		return nil, fmt.Errorf("%w: negative dimensions %dx%d", ErrScale, s.Racks, s.HostsPerRack)
	}
	topo, err := topology.New(topology.Scaled(s.Racks, s.HostsPerRack))
	if err != nil {
		return nil, fmt.Errorf("build topology: %w", err)
	}
	if err := topo.ValidateNonBlocking(); err != nil {
		return nil, err
	}
	return topo, nil
}

func (s Scale) withDefaults() Scale {
	if s.Racks == 0 {
		s.Racks = ScaleMedium.Racks
	}
	if s.HostsPerRack == 0 {
		s.HostsPerRack = ScaleMedium.HostsPerRack
	}
	if s.Duration == 0 {
		s.Duration = ScaleMedium.Duration
	}
	if s.WarmupFraction <= 0 || s.WarmupFraction >= 1 {
		s.WarmupFraction = 0.2
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	return s
}

// String describes the scale for report headers.
func (s Scale) String() string {
	return fmt.Sprintf("%d hosts (%dx%d), %gs horizon, seed %d",
		s.Racks*s.HostsPerRack, s.Racks, s.HostsPerRack, s.Duration, s.Seed)
}

// DefaultV is the paper's demonstration value of the tradeoff weight
// (Section V-B: "we just choose V = 2500 for demonstration").
const DefaultV = 2500

// SaturationLoad is the near-capacity load of the stability experiments:
// the paper generates ~9.5 Gbps on each 10 Gbps port.
const SaturationLoad = 0.95

// Fig2Load is the slightly lower load of the motivation experiment: ~9.2
// Gbps per port.
const Fig2Load = 0.92

// GrowthThreshold is the growth-ratio above which a queue series counts as
// macro-scale growing (see stats.ClassifyTrend). Calibration: a queue that
// ramps linearly from empty scores ~2, one that steadily gains most of its
// average level across the window scores ~0.7, and a stationary queue
// meandering around its level scores near 0 — 0.5 separates the regimes
// with margin on both sides.
const GrowthThreshold = 0.5
