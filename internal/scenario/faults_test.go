package scenario_test

// Faulted-run tests: fault rules act on whole subjects, before a subject
// runs or on the outcome it returns, so a faulted run is one program on
// every engine path — same points, same sampled traces, same fired
// counts — and auto serves it compiled.

import (
	"context"
	"os"
	"reflect"
	"runtime"
	"testing"

	"hitl/internal/faults"
	"hitl/internal/report"
	"hitl/internal/scenario"
	"hitl/internal/sim"
	"hitl/internal/telemetry"
)

// mixedFaults exercises every rule kind that lets a run finish: a failure
// pinned to a stage, a corrupted delivery and a rare latency.
const mixedFaults = "fail:stage=comprehension,p=0.2;corrupt:p=0.1;latency:p=0.001,ms=0.1"

// faultedRun is what a faulted Execute hands back that must not depend on
// the engine path.
type faultedRun struct {
	path   string
	points []scenario.Point
	traces []telemetry.SubjectTrace
	rules  []report.FaultRule
}

// executeFaulted runs spec through the seam under eng with a fresh mixed
// fault set, 8 sampled traces and a run report.
func executeFaulted(t *testing.T, spec scenario.Spec, eng scenario.Engine, workers int) faultedRun {
	t.Helper()
	spec.Workers = workers
	norm, err := scenario.Normalize(spec)
	if err != nil {
		t.Fatal(err)
	}
	digest, err := scenario.Digest(norm)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := scenario.Execute(scenario.WithEngine(context.Background(), eng), norm, digest,
		scenario.Options{Faults: faults.MustParse(mixedFaults), TraceSample: 8, Report: true})
	if err != nil {
		t.Fatalf("engine=%s workers=%d: %v", eng, workers, err)
	}
	return faultedRun{
		path:   ex.Result.EnginePath,
		points: ex.Result.Points,
		traces: ex.Recorder.Traces(),
		rules:  ex.Report.FaultRules,
	}
}

// TestFaultedRunOnePathEverywhere runs every example spec under the mixed
// fault spec forced interpreted, forced compiled and under auto, at
// several worker counts, and requires identical points (raw aggregates
// included), 8-trace samples and fault-rule counts. Auto must serve every
// example compiled, the mean-field one included: faults rule out the
// closed form, never the compiled path.
func TestFaultedRunOnePathEverywhere(t *testing.T) {
	entries, err := os.ReadDir(examplesDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Run(e.Name(), func(t *testing.T) {
			spec := readExample(t, e.Name())
			want := executeFaulted(t, spec, scenario.EngineInterpreted, 1)
			if want.path != sim.EngineInterpreted {
				t.Fatalf("forced interpreted ran %q", want.path)
			}
			fired := int64(0)
			for _, r := range want.rules {
				fired += r.Fired
			}
			if fired == 0 || len(want.traces) == 0 {
				t.Fatalf("faulted run fired %d rules and sampled %d traces; the comparison would be vacuous", fired, len(want.traces))
			}
			for _, eng := range []scenario.Engine{scenario.EngineInterpreted, scenario.EngineCompiled, scenario.EngineAuto} {
				for _, workers := range []int{1, 3, runtime.NumCPU()} {
					got := executeFaulted(t, spec, eng, workers)
					if eng != scenario.EngineInterpreted && got.path != sim.EngineCompiled {
						t.Fatalf("engine=%s workers=%d: faulted run took %q, want compiled", eng, workers, got.path)
					}
					if !reflect.DeepEqual(got.points, want.points) {
						t.Fatalf("engine=%s workers=%d: faulted points diverge from interpreted\ngot:  %+v\nwant: %+v", eng, workers, got.points, want.points)
					}
					if !reflect.DeepEqual(got.traces, want.traces) {
						t.Fatalf("engine=%s workers=%d: faulted traces diverge from interpreted\ngot:  %+v\nwant: %+v", eng, workers, got.traces, want.traces)
					}
					if !reflect.DeepEqual(got.rules, want.rules) {
						t.Fatalf("engine=%s workers=%d: fault_rules %+v, interpreted %+v", eng, workers, got.rules, want.rules)
					}
				}
			}
		})
	}
}
