package report

import (
	"encoding/json"
	"reflect"
	"testing"

	"hitl/internal/sim"
)

func TestFromEngineAggregates(t *testing.T) {
	runs := []sim.EngineReport{
		{
			Seed: 7, N: 100, Completed: 100, RequestedWorkers: 4, EffectiveWorkers: 2,
			Phases:        sim.PhaseTimes{SetupSeconds: 0.1, ComputeSeconds: 1, MergeSeconds: 0.2},
			StageFailures: map[string]int{"comprehension": 3, "attention-switch": 1},
		},
		{
			Seed: 8, N: 100, Completed: 60, Partial: true, TimedOut: true,
			Phases:        sim.PhaseTimes{ComputeSeconds: 0.5},
			StageFailures: map[string]int{"comprehension": 2},
			Error:         "sim: run timed out",
		},
	}
	r := FromEngine(runs)
	if r.Version != ReportVersion || r.EngineRuns != 2 || r.Subjects != 160 {
		t.Errorf("version/runs/subjects = %d/%d/%d", r.Version, r.EngineRuns, r.Subjects)
	}
	if r.Seed != 7 || r.N != 100 || r.Workers != 4 || r.EffectiveWorkers != 2 {
		t.Errorf("first-run fields = seed %d n %d workers %d/%d", r.Seed, r.N, r.Workers, r.EffectiveWorkers)
	}
	if r.Phases.ComputeSeconds != 1.5 || r.Phases.SetupSeconds != 0.1 {
		t.Errorf("phases = %+v", r.Phases)
	}
	want := map[string]int{"comprehension": 5, "attention-switch": 1}
	if !reflect.DeepEqual(r.StageFailures, want) {
		t.Errorf("stage failures = %v, want %v", r.StageFailures, want)
	}
	if !r.Partial || !r.TimedOut || r.Canceled || r.PanicRecovered {
		t.Errorf("flags = %+v", r)
	}
	if len(r.Errors) != 1 || r.Errors[0] != "sim: run timed out" {
		t.Errorf("errors = %v", r.Errors)
	}
}

// TestCanonicalZeroesSchedulingFields checks that two reports differing
// only in scheduling-dependent observations canonicalize to identical
// bytes, while the deterministic diagnostics survive.
func TestCanonicalZeroesSchedulingFields(t *testing.T) {
	base := RunReport{
		Version: ReportVersion, JobID: "abc", Seed: 7, N: 100, Subjects: 100, EngineRuns: 1,
		StageFailures: map[string]int{"comprehension": 5},
		FaultRules:    []FaultRule{{Rule: "fail p=0.1", Fired: 9}},
		Degraded:      true, DegradedClamp: 100,
	}
	a, b := base, base
	a.Workers, a.EffectiveWorkers = 1, 1
	a.Phases = sim.PhaseTimes{ComputeSeconds: 2}
	b.Workers, b.EffectiveWorkers = 8, 4
	b.Phases = sim.PhaseTimes{ComputeSeconds: 0.4}

	ca, err := a.Canonical().MarshalIndented()
	if err != nil {
		t.Fatal(err)
	}
	cb, err := b.Canonical().MarshalIndented()
	if err != nil {
		t.Fatal(err)
	}
	if string(ca) != string(cb) {
		t.Errorf("canonical bytes differ by scheduling:\n%s\nvs\n%s", ca, cb)
	}
	var round RunReport
	if err := json.Unmarshal(ca, &round); err != nil {
		t.Fatal(err)
	}
	if round.Subjects != 100 || round.EngineRuns != 1 {
		t.Errorf("canonical dropped deterministic engine fields: %d subjects, %d runs", round.Subjects, round.EngineRuns)
	}
	if round.StageFailures["comprehension"] != 5 || round.FaultRules[0].Fired != 9 || !round.Degraded {
		t.Errorf("canonical dropped diagnostics: %+v", round)
	}
	// Canonical must not mutate the original.
	if a.Workers != 1 || a.Phases.ComputeSeconds != 2 {
		t.Error("Canonical mutated its receiver")
	}
}
