package core

// Error-path coverage for the policy registry and the designs table, and
// for how their failures surface through Config.Validate — a config
// naming an unknown design or policy or passing a bad parameter must be
// rejected with a descriptive error, not simulated under a
// silently-substituted default.

import (
	"strings"
	"testing"

	"dcasim/internal/sched"
)

type dupPolicy struct{ name string }

func (p dupPolicy) Name() string                       { return p.name }
func (dupPolicy) New(int, sched.Params) sched.Instance { return nil }

func TestRegisterPolicyRejectsDuplicates(t *testing.T) {
	// Case-insensitive clash with the built-in canonical name.
	if _, err := RegisterPolicy(sched.Registration{Policy: dupPolicy{name: "bliss"}}); err == nil || !strings.Contains(err.Error(), "already registered") {
		t.Errorf("duplicate of built-in BLISS accepted: %v", err)
	}
	// Clash with a built-in alias.
	if _, err := RegisterPolicy(sched.Registration{Policy: dupPolicy{name: "frfcfs"}}); err == nil || !strings.Contains(err.Error(), "already registered") {
		t.Errorf("duplicate of FR-FCFS alias accepted: %v", err)
	}
	if _, err := RegisterPolicy(sched.Registration{Policy: nil}); err == nil {
		t.Error("nil policy accepted")
	}
	if _, err := RegisterPolicy(sched.Registration{Policy: dupPolicy{name: ""}}); err == nil {
		t.Error("empty policy name accepted")
	}
}

func TestParseAlgorithmUnknown(t *testing.T) {
	if _, err := ParseAlgorithm("bananas"); err == nil || !strings.Contains(err.Error(), "unknown scheduling algorithm") {
		t.Errorf("unknown algorithm parsed: %v", err)
	}
	// The error lists the registry so the fix is discoverable.
	if _, err := ParseAlgorithm("bananas"); !strings.Contains(err.Error(), "BLISS") {
		t.Errorf("error does not list registered names: %v", err)
	}
	for in, want := range map[string]Algorithm{
		"bliss": AlgBLISS, "BLISS": AlgBLISS,
		"frfcfs": AlgFRFCFS, "FR-FCFS": AlgFRFCFS,
		"fcfs": AlgFCFS,
	} {
		got, err := ParseAlgorithm(in)
		if err != nil || got != want {
			t.Errorf("ParseAlgorithm(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
}

func TestValidateSurfacesRegistryErrors(t *testing.T) {
	unknownAlg := DefaultConfig(DCA)
	unknownAlg.Algorithm = "bananas"
	if err := unknownAlg.Validate(); err == nil || !strings.Contains(err.Error(), "unknown scheduling algorithm") {
		t.Errorf("unknown Algorithm passed Validate: %v", err)
	}

	unknownParam := DefaultConfig(DCA)
	unknownParam.AlgParams = map[string]float64{"Bogus": 1}
	if err := unknownParam.Validate(); err == nil || !strings.Contains(err.Error(), "no parameter") {
		t.Errorf("unknown AlgParams key passed Validate: %v", err)
	}

	outOfRange := DefaultConfig(DCA)
	outOfRange.AlgParams = map[string]float64{"Threshold": 0}
	if err := outOfRange.Validate(); err == nil || !strings.Contains(err.Error(), "outside") {
		t.Errorf("out-of-range AlgParams value passed Validate: %v", err)
	}

	unknownDesign := DefaultConfig(DCA)
	unknownDesign.Design = Design(99)
	if err := unknownDesign.Validate(); err == nil || !strings.Contains(err.Error(), "unknown design") {
		t.Errorf("unregistered Design passed Validate: %v", err)
	}
}

func TestConfigPolicyResolvesParams(t *testing.T) {
	cfg := DefaultConfig(DCA)
	cfg.AlgParams = map[string]float64{"Threshold": 2}
	reg, params, err := cfg.Policy()
	if err != nil {
		t.Fatal(err)
	}
	if reg.Policy.Name() != string(AlgBLISS) {
		t.Fatalf("resolved %q, want BLISS", reg.Policy.Name())
	}
	if got := params.Get("Threshold"); got != 2 {
		t.Errorf("override lost: Threshold = %v", got)
	}
	if got := params.Get("ClearIntervalNS"); got != 2500 {
		t.Errorf("default not filled: ClearIntervalNS = %v", got)
	}
}

func TestAlgorithmCanonical(t *testing.T) {
	if got := Algorithm("").Canonical(); got != AlgBLISS {
		t.Errorf("zero value canonicalises to %q, want BLISS", got)
	}
	if got := Algorithm("fr-fcfs").Canonical(); got != AlgFRFCFS {
		t.Errorf("alias canonicalises to %q, want FR-FCFS", got)
	}
	if got := Algorithm("bananas").Canonical(); got != "bananas" {
		t.Errorf("unknown name rewritten to %q; must pass through for the caller to reject", got)
	}
}
