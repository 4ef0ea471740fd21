package fabricsim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"basrpt/internal/obs"
	"basrpt/internal/sched"
	"basrpt/internal/trace"
	"basrpt/internal/workload"
)

// Golden values for TestEngineGoldenDigests. They are absolute: an edit
// that moves both engines (or both construction paths) the same way
// still fails here, which the pairwise equivalence tests cannot catch.
// Recompute them only for a deliberate physics or trace-format change,
// and say so in the change log.
const (
	goldenCentralDigest = "902c0de0c31291be"
	goldenCentralTrace  = "76d48c83c1d41c1eee63a759bb3c1740b10b3a2b58eb4496dd309169e2af92d0"
	goldenCentralCkpt   = "94bedcce2624f3c03f840800c8747f9e2784218bfc673c0f6bd9acd83f6aef91"
	goldenE17Digest     = "6eebb43b10b2e803"
	goldenBatchDigest   = "bb6bbd7dfc32f58c"
	goldenBatchTrace    = "c9dfb48ed338b9d8f1920171f345cfdbd243b772782604ed4c89a084b7dcede9"
	goldenBatchCellObs  = "eab67d97c95ad5a28fa70dd21f0af4cf8eab7a2fa665b8caa794b66f99618aad"
)

// sha256Hex returns the hex SHA-256 of a JSONL trace (or any other
// byte string the test pins).
func sha256Hex(tr string) string {
	sum := sha256.Sum256([]byte(tr))
	return hex.EncodeToString(sum[:])
}

// TestEngineGoldenDigests pins the deterministic digests and JSONL trace
// hashes of both engines to fixed values: a centralized 12x12
// fast-BASRPT run built directly through New, the E17 decomposed
// configuration (344x12 hosts, load 0.5, 2 ms, seed 1, 4 shards), and the base configuration of TestRunShardBatchInvariance.
// The centralized run's first checkpoint bytes and the decomposed run's
// per-cell registry snapshots (wall-clock entries masked) are pinned
// too, so neither the checkpoint payload nor the per-cell instrument set
// can drift silently.
func TestEngineGoldenDigests(t *testing.T) {
	t.Run("centralized", func(t *testing.T) {
		topo := shardTopo(t, 12, 12)
		const (
			load = 0.8
			dur  = 0.005
			seed = 1
		)
		var buf bytes.Buffer
		ew, err := trace.NewEventWriter(&buf, trace.TraceHeader{
			Seed: seed, Scheduler: "fast-basrpt", Hosts: topo.NumHosts(),
			Load: load, DurationSec: dur,
		})
		if err != nil {
			t.Fatal(err)
		}
		scheduler, err := sched.New("fast-basrpt", sched.Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		gen, err := workload.NewMixed(workload.MixedConfig{
			Topology: topo, Load: load,
			QueryByteFraction: workload.DefaultQueryByteFraction,
			Duration:          dur, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		sim, err := New(Config{
			Hosts: topo.NumHosts(), LinkBps: topo.HostLinkBps(),
			Scheduler: scheduler, Generator: gen, Duration: dur, Seed: seed,
			ValidateDecisions: true, DeepValidateEvery: 97,
			Obs: obs.New(obs.Options{Sink: ew}),
		})
		if err != nil {
			t.Fatal(err)
		}
		direct, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		if err := ew.Flush(); err != nil {
			t.Fatal(err)
		}
		if got := direct.DeterministicDigest(); got != goldenCentralDigest {
			t.Errorf("digest %s, want %s", got, goldenCentralDigest)
		}
		if got := sha256Hex(buf.String()); got != goldenCentralTrace {
			t.Errorf("trace sha256 %s, want %s", got, goldenCentralTrace)
		}

		var ckpt []byte
		runCentral(t, ShardConfig{
			Topology: topo, Scheduler: "fast-basrpt", Load: load,
			Duration: dur, Seed: seed,
		}, func(c *Config) {
			c.CheckpointEvery = dur / 2
			c.CheckpointSink = func(data []byte, _ float64) error {
				ckpt = data
				return ErrStopAfterCheckpoint
			}
		})
		if got := sha256Hex(string(ckpt)); got != goldenCentralCkpt {
			t.Errorf("checkpoint sha256 %s, want %s", got, goldenCentralCkpt)
		}
	})

	t.Run("decomposed-e17", func(t *testing.T) {
		res, err := RunShard(ShardConfig{
			Topology: shardTopo(t, 344, 12), Scheduler: "fast-basrpt",
			Load: 0.5, Duration: 0.002, Seed: 1, Shards: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := res.DeterministicDigest(); got != goldenE17Digest {
			t.Errorf("E17 digest %s, want %s", got, goldenE17Digest)
		}
	})

	t.Run("batch-base", func(t *testing.T) {
		res, tr := runShardTraced(t, ShardConfig{
			Topology: shardTopo(t, 8, 3), Scheduler: "fast-basrpt",
			Load: 0.7, Duration: 0.003, Seed: 13, Shards: 2,
		})
		if got := res.DeterministicDigest(); got != goldenBatchDigest {
			t.Errorf("batch-base digest %s, want %s", got, goldenBatchDigest)
		}
		if got := sha256Hex(tr); got != goldenBatchTrace {
			t.Errorf("batch-base trace sha256 %s, want %s", got, goldenBatchTrace)
		}
		if got := sha256Hex(maskWall(t, res.ShardObs)); got != goldenBatchCellObs {
			t.Errorf("batch-base per-cell snapshot sha256 %s, want %s", got, goldenBatchCellObs)
		}
	})
}
