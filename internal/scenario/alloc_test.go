package scenario_test

import (
	"context"
	"testing"

	"hitl/internal/scenario"
)

// maxStudyAllocsPerRun is phishing-study's allocation count per
// scenario.Run at n=2000 before observations moved into typed columns;
// the study records none, so the columns must not raise it.
const maxStudyAllocsPerRun = 239

// TestRunAllocationsPerSubject guards the engine's allocation-free hot
// path on the loop programs that record observations: a compiled
// password or campaign run must allocate well under one object per
// subject (a map per subject cost about two). The race detector's
// sync.Pool drops pooled receivers, so only the per-subject bound holds
// under -race.
func TestRunAllocationsPerSubject(t *testing.T) {
	const n = 2000
	allocs := func(name string) float64 {
		spec := readExample(t, name)
		spec.N = n
		return testing.AllocsPerRun(5, func() {
			if _, err := scenario.Run(context.Background(), spec); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, name := range []string{"password-portfolio.json", "phishing-campaign.json"} {
		if got := allocs(name); got >= n/2 {
			t.Errorf("%s at n=%d: %.0f allocations per run, want fewer than %d", name, n, got, n/2)
		}
	}
	if raceEnabled {
		return
	}
	if got := allocs("phishing-study.json"); got > maxStudyAllocsPerRun {
		t.Errorf("phishing-study.json at n=%d: %.0f allocations per run, want at most %d", n, got, maxStudyAllocsPerRun)
	}
}
