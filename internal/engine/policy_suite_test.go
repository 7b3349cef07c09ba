package engine

import (
	"errors"
	"testing"

	"deepum/internal/core"
	"deepum/internal/health"
	"deepum/internal/models"
	"deepum/internal/policy"
	"deepum/internal/sim"
)

// TestPolicySuiteCleanInvariants drives every registered prefetch policy
// through a pair of workloads (one regular-access transformer, one
// input-dependent DLRM) and requires a clean finish: StatusOK, no invariant
// violation, and the workload-defined AccessChecksum — policies may change
// scheduling, never computation.
func TestPolicySuiteCleanInvariants(t *testing.T) {
	type wl struct {
		model string
		batch int64
	}
	suite := []wl{{"bert-base", 32}, {"dlrm", 512}}
	names := policy.Names()
	if len(names) < 3 {
		t.Fatalf("want >= 3 registered policies, have %v", names)
	}
	for _, w := range suite {
		prog, err := models.Build(models.Spec{Model: w.model}, w.batch, 32)
		if err != nil {
			t.Fatal(err)
		}
		var checksum uint64
		for _, name := range names {
			opts := core.DefaultOptions()
			opts.Policy = name
			res, err := Run(Config{
				Params:        sim.DefaultParams().Scale(32),
				Program:       prog,
				Policy:        PolicyDeepUM,
				DriverOptions: opts,
				Iterations:    2,
				Warmup:        1,
				Seed:          7,
				Health:        health.Fixed(health.L0),
			})
			if err != nil {
				t.Fatalf("%s under %s: %v", w.model, name, err)
			}
			if res.Status != StatusCompleted {
				t.Errorf("%s under %s: status %v, want OK", w.model, name, res.Status)
			}
			if res.Invariant != nil {
				t.Errorf("%s under %s: invariant violation: %v", w.model, name, res.Invariant)
			}
			if got := res.Prefetcher.Name(); got != name {
				t.Errorf("%s: ran %q, want %q", w.model, got, name)
			}
			if checksum == 0 {
				checksum = res.AccessChecksum
			} else if res.AccessChecksum != checksum {
				t.Errorf("%s under %s: AccessChecksum %016x differs from suite's %016x — a policy changed computation",
					w.model, name, res.AccessChecksum, checksum)
			}
		}
	}
}

// TestUnknownPolicyRejected pins the typed rejection: an unregistered
// policy name fails construction before any run state exists.
func TestUnknownPolicyRejected(t *testing.T) {
	prog, err := models.Build(models.Spec{Model: "mobilenet"}, 64, 32)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.Policy = "no-such-policy"
	_, err = Run(Config{
		Params:        sim.DefaultParams().Scale(32),
		Program:       prog,
		Policy:        PolicyDeepUM,
		DriverOptions: opts,
		Iterations:    1,
	})
	if err == nil {
		t.Fatal("unknown policy accepted")
	}
	var ue *policy.UnknownError
	if !errors.As(err, &ue) || ue.Name != "no-such-policy" {
		t.Fatalf("want *policy.UnknownError for no-such-policy, got %v", err)
	}
}
