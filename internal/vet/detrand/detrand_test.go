package detrand

import (
	"testing"

	"damulticast/internal/vet/analysistest"
)

func TestDetrand(t *testing.T) {
	analysistest.Run(t, Analyzer, "detrandbad", "detrandclean")
}

func TestAppliesTo(t *testing.T) {
	for _, pkg := range []string{
		"damulticast/internal/simnet",
		"damulticast/internal/sim",
		"damulticast/internal/core",
		"damulticast/internal/baseline",
		"damulticast/internal/workload",
		"damulticast/internal/scale",
		"damulticast/internal/scenario",
	} {
		if !Analyzer.AppliesTo(pkg) {
			t.Errorf("AppliesTo(%s) = false, want true", pkg)
		}
	}
	for _, pkg := range []string{
		"damulticast/internal/xrand", // seeded-randomness layer wraps math/rand on purpose
		"damulticast/internal/chaos", // wall-clock fault schedules are its job
		"damulticast",
	} {
		if Analyzer.AppliesTo(pkg) {
			t.Errorf("AppliesTo(%s) = true, want false", pkg)
		}
	}
}
