package scenario

import (
	"bytes"
	"testing"
)

// TestFindingsDeterministicAcrossParallel is the harness's core contract:
// the same spec at the same seeds renders byte-identical findings.json
// and FINDINGS.md at any worker count. The -check CI gate depends on it.
// The fault-cell input, run under -race, is the proof that per-seed fault
// schedules, injectors and watchdogs share nothing across workers.
func TestFindingsDeterministicAcrossParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the fabric simulation")
	}
	// identical renders spec at parallel 1 and 8, requires byte-identical
	// findings, and returns the findings.json bytes.
	identical := func(t *testing.T, spec *Spec) []byte {
		t.Helper()
		render := func(parallel int) (jsonBytes []byte, md string) {
			t.Helper()
			f, err := Execute(spec, Options{Parallel: parallel})
			if err != nil {
				t.Fatalf("Execute(parallel=%d): %v", parallel, err)
			}
			b, err := f.EncodeJSON()
			if err != nil {
				t.Fatal(err)
			}
			return b, f.RenderMarkdown(spec)
		}
		j1, m1 := render(1)
		j8, m8 := render(8)
		if !bytes.Equal(j1, j8) {
			t.Errorf("findings.json differs between parallel=1 and parallel=8:\n%s\nvs\n%s", j1, j8)
		}
		if m1 != m8 {
			t.Errorf("FINDINGS.md differs between parallel=1 and parallel=8")
		}
		return j1
	}
	spec := mustParse(t, validSpecJSON)
	j1 := identical(t, spec)

	t.Run("faults", func(t *testing.T) {
		// Seed omitted: every replicate draws its own fault schedule.
		data := mutate(t, func(m map[string]any) {
			m["faults"] = map[string]any{"link_faults": 1, "outages": 1}
		})
		j := identical(t, mustParse(t, string(data)))
		if !bytes.Contains(j, []byte(`"srpt/decisions_held"`)) {
			t.Fatalf("fault cells reported no resilience metrics:\n%s", j)
		}
	})

	// Round-trip: committed bytes decode and pass digest verification.
	f, err := DecodeFindings(j1)
	if err != nil {
		t.Fatalf("DecodeFindings on fresh bytes: %v", err)
	}
	if f.Scenario != spec.Name {
		t.Fatalf("decoded scenario %q, want %q", f.Scenario, spec.Name)
	}

	// A tampered VALUE must fail the integrity digest (whitespace-only
	// edits survive: the digest is computed over the re-encoded canonical
	// form, not the file bytes — -check catches those byte-for-byte).
	tampered := bytes.Replace(j1, []byte(`"root_seed": 1`), []byte(`"root_seed": 7`), 1)
	if bytes.Equal(tampered, j1) {
		t.Fatal("tamper had no effect")
	}
	if _, err := DecodeFindings(tampered); err == nil {
		t.Fatal("tampered findings passed digest verification")
	}
}
