package deepum

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestPoliciesListing pins the discovery surface: at least the three
// shipped policies, sorted, with non-empty summaries, and PolicyKnown
// agreeing with the listing.
func TestPoliciesListing(t *testing.T) {
	infos := Policies()
	if len(infos) < 3 {
		t.Fatalf("want >= 3 registered policies, have %d", len(infos))
	}
	for i, p := range infos {
		if p.Name == "" || p.Summary == "" {
			t.Errorf("policy %d has empty name or summary: %+v", i, p)
		}
		if i > 0 && infos[i-1].Name >= p.Name {
			t.Errorf("Policies() not sorted: %q before %q", infos[i-1].Name, p.Name)
		}
		if !PolicyKnown(p.Name) {
			t.Errorf("listed policy %q not PolicyKnown", p.Name)
		}
	}
	if !PolicyKnown("") {
		t.Error("empty policy name (the default) must be known")
	}
	if PolicyKnown("no-such-policy") {
		t.Error("unregistered name reported known")
	}
}

// TestTrainUnknownPolicyTyped pins the typed rejection through the facade.
func TestTrainUnknownPolicyTyped(t *testing.T) {
	cfg := testConfig(SystemDeepUM)
	cfg.Policy = "no-such-policy"
	_, err := Train(Workload{Model: "bert-base", Batch: 32}, cfg)
	var ue *UnknownPolicyError
	if !errors.As(err, &ue) || ue.Name != "no-such-policy" {
		t.Fatalf("want *UnknownPolicyError, got %v", err)
	}
}

// TestTrainPolicyRejectedForNonDeepUM: only the DeepUM driver runs a
// prefetch policy; naming one on any other system is a typed error.
func TestTrainPolicyRejectedForNonDeepUM(t *testing.T) {
	cfg := testConfig(SystemLMS)
	cfg.Policy = "correlation"
	_, err := Train(Workload{Model: "bert-base", Batch: 32}, cfg)
	var pe *PolicyUnsupportedError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PolicyUnsupportedError, got %v", err)
	}
	if !strings.Contains(pe.Error(), "lms") || !strings.Contains(pe.Error(), "correlation") {
		t.Fatalf("error does not name system and policy: %v", pe)
	}
}

// TestTrainPolicyCheckpointCycle is the generic resume path for a
// NON-correlation policy: train under "learned", capture the warm state
// with PolicyCheckpointOf, round-trip it through Save/LoadPolicyCheckpoint
// bytes, and resume — the resumed run must identify its policy and accept
// the state. A mismatched Config.Policy must be rejected.
func TestTrainPolicyCheckpointCycle(t *testing.T) {
	w := Workload{Model: "bert-large", Batch: 16}
	cfg := testConfig(SystemDeepUM)
	cfg.Policy = "learned"
	first, err := Train(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if first.Policy != "learned" {
		t.Fatalf("Result.Policy = %q, want learned", first.Policy)
	}
	st := PolicyCheckpointOf(first)
	if st == nil || st.Policy != "learned" {
		t.Fatalf("PolicyCheckpointOf = %+v, want learned state", st)
	}

	var buf bytes.Buffer
	if err := SavePolicyCheckpoint(&buf, st); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadPolicyCheckpoint(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Policy != "learned" || !bytes.Equal(loaded.Payload, st.Payload) {
		t.Fatalf("policy checkpoint round trip drifted: %q, %d vs %d bytes",
			loaded.Policy, len(loaded.Payload), len(st.Payload))
	}

	resume := testConfig(SystemDeepUM)
	resume.Policy = "learned"
	resume.ResumeState = loaded
	resume.Warmup = 1
	resumed, err := Train(w, resume)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Status != StatusCompleted || resumed.Policy != "learned" {
		t.Fatalf("resumed run: status %v policy %q", resumed.Status, resumed.Policy)
	}

	mismatch := testConfig(SystemDeepUM)
	mismatch.Policy = "gpuvm-window"
	mismatch.ResumeState = loaded
	if _, err := Train(w, mismatch); err == nil {
		t.Fatal("ResumeState for learned accepted under Config.Policy gpuvm-window")
	}
}

// TestTrainResumeFromLegacyBlob resumes a run from the committed
// pre-policy v1 checkpoint through LoadPolicyCheckpoint and
// Config.ResumeState. Old blobs written before the envelope named its
// policy must keep working, unmodified.
func TestTrainResumeFromLegacyBlob(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("internal", "correlation", "testdata", "legacy_v1.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	w := Workload{Model: "bert-base", Batch: 32}

	st, err := LoadPolicyCheckpoint(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("LoadPolicyCheckpoint on v1 blob: %v", err)
	}
	if st.Policy != "correlation" {
		t.Fatalf("v1 blob decoded as policy %q", st.Policy)
	}
	cfg := testConfig(SystemDeepUM)
	cfg.ResumeState = st
	cfg.Warmup = 1
	res, err := Train(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusCompleted || res.Policy != "correlation" {
		t.Fatalf("legacy resume: status %v policy %q", res.Status, res.Policy)
	}
}

// TestPolicyCheckpointOfCorrelation: Train encodes nothing, so every
// PolicyCheckpointOf call serializes the correlation tables afresh; two
// calls on one Result must return equal payloads.
func TestPolicyCheckpointOfCorrelation(t *testing.T) {
	first, err := Train(Workload{Model: "bert-large", Batch: 16}, testConfig(SystemDeepUM))
	if err != nil {
		t.Fatal(err)
	}
	a, b := PolicyCheckpointOf(first), PolicyCheckpointOf(first)
	if a == nil || a.Policy != "correlation" || len(a.Payload) == 0 {
		t.Fatalf("PolicyCheckpointOf = %+v", a)
	}
	if b.Policy != a.Policy || !bytes.Equal(a.Payload, b.Payload) {
		t.Fatal("two PolicyCheckpointOf calls on one Result returned different payloads")
	}
}
