package scenario_test

// Trace-sampling tests: a trace recorder must not choose the engine path.
// Compiled and analytic runs sample their traces by replaying the
// reservoir's winners on the interpreter, so every path yields the traces
// and offer counts an interpreted run does, and a traced run does the same
// engine work as an untraced one.

import (
	"context"
	"os"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"hitl/internal/scenario"
	"hitl/internal/sim"
	"hitl/internal/telemetry"
)

// tracedRun runs spec under ctx with a k-trace recorder salted by the spec
// seed, as scenario.Attach salts it, and returns the result, the sampled
// traces and the offer count.
func tracedRun(t *testing.T, ctx context.Context, spec scenario.Spec, k int) (*scenario.Result, []telemetry.SubjectTrace, int64) {
	t.Helper()
	rec := telemetry.NewRecorder(k, spec.Seed)
	res, err := scenario.Run(telemetry.WithRecorder(ctx, rec), spec)
	if err != nil {
		t.Fatal(err)
	}
	return res, rec.Traces(), rec.Offered()
}

// TestTracesIndependentOfEnginePath samples every example spec at several
// reservoir sizes on the compiled and auto paths, at several worker
// counts, and requires exactly the traces and offer counts of the forced
// interpreted run. Traced runs must not run interpreted at all.
func TestTracesIndependentOfEnginePath(t *testing.T) {
	entries, err := os.ReadDir(examplesDir)
	if err != nil {
		t.Fatal(err)
	}
	interpCtx := scenario.WithEngine(context.Background(), scenario.EngineInterpreted)
	for _, e := range entries {
		t.Run(e.Name(), func(t *testing.T) {
			spec := readExample(t, e.Name())
			for _, k := range []int{1, 8, 64} {
				spec.Workers = 1
				_, want, wantOffered := tracedRun(t, interpCtx, spec, k)
				if int64(len(want)) != min(int64(k), wantOffered) {
					t.Fatalf("k=%d: interpreted run kept %d of %d offered traces", k, len(want), wantOffered)
				}
				for _, eng := range []scenario.Engine{scenario.EngineAuto, scenario.EngineCompiled} {
					for _, workers := range []int{1, 3, runtime.NumCPU()} {
						spec.Workers = workers
						res, got, offered := tracedRun(t, scenario.WithEngine(context.Background(), eng), spec, k)
						if res.EnginePath == sim.EngineInterpreted {
							t.Fatalf("k=%d engine=%s workers=%d: traced run ran interpreted", k, eng, workers)
						}
						if offered != wantOffered || !reflect.DeepEqual(got, want) {
							t.Fatalf("k=%d engine=%s workers=%d: %d traces of %d offered differ from the interpreted %d of %d\ngot:  %+v\nwant: %+v",
								k, eng, workers, len(got), offered, len(want), wantOffered, got, want)
						}
					}
				}
			}
		})
	}

	// A shard run samples by global subject index, on every path.
	t.Run("subject-offset", func(t *testing.T) {
		spec := readExample(t, "phishing-study.json")
		spec.N = 300
		ctx := sim.WithSubjectOffset(context.Background(), 1700)
		_, want, wantOffered := tracedRun(t, scenario.WithEngine(ctx, scenario.EngineInterpreted), spec, 8)
		res, got, offered := tracedRun(t, ctx, spec, 8)
		if res.EnginePath != sim.EngineCompiled {
			t.Fatalf("auto ran %q, want compiled", res.EnginePath)
		}
		if offered != wantOffered || !reflect.DeepEqual(got, want) {
			t.Fatalf("offset traces differ from the interpreted ones\ngot:  %+v\nwant: %+v", got, want)
		}
		for _, tr := range got {
			if tr.Subject < 1700 || tr.Subject >= 2000 {
				t.Errorf("sampled subject %d outside the shard's range [1700, 2000)", tr.Subject)
			}
		}
	})

	// A replay is not a run: a traced auto run reports the same engine runs
	// and ticks the same engine counters as an untraced one.
	t.Run("same-engine-work", func(t *testing.T) {
		for _, e := range entries {
			spec := readExample(t, e.Name())
			untraced, untracedDelta := engineWork(t, spec, 0)
			traced, tracedDelta := engineWork(t, spec, 8)
			if !reflect.DeepEqual(traced, untraced) {
				t.Errorf("%s: traced run reports differ from untraced\ntraced:   %+v\nuntraced: %+v", e.Name(), traced, untraced)
			}
			if !reflect.DeepEqual(tracedDelta, untracedDelta) {
				t.Errorf("%s: traced run ticked %+v, untraced %+v", e.Name(), tracedDelta, untracedDelta)
			}
		}
	})
}

// engineWork runs spec under auto, with a k-trace recorder when k > 0,
// and returns its collector's reports with wall times zeroed, plus the
// deltas of the engine counters that are exact functions of the work done.
func engineWork(t *testing.T, spec scenario.Spec, k int) ([]sim.EngineReport, telemetry.MetricsSnapshot) {
	t.Helper()
	col := sim.NewReportCollector()
	ctx := sim.WithReportCollector(context.Background(), col)
	if k > 0 {
		ctx = telemetry.WithRecorder(ctx, telemetry.NewRecorder(k, spec.Seed))
	}
	before := telemetry.Snapshot()
	if _, err := scenario.Run(ctx, spec); err != nil {
		t.Fatal(err)
	}
	d := telemetry.Snapshot().Delta(before)
	reports := col.Reports()
	for i := range reports {
		reports[i].Phases = sim.PhaseTimes{}
	}
	return reports, telemetry.MetricsSnapshot{
		Subjects:        d.Subjects,
		Runs:            d.Runs,
		StageFailures:   d.StageFailures,
		PanicsRecovered: d.PanicsRecovered,
	}
}

// runAllocBytes returns the median bytes one scenario.Run of spec
// allocates under ctx, over a few runs, each with a fresh k-trace recorder
// when k > 0.
func runAllocBytes(t *testing.T, ctx context.Context, spec scenario.Spec, k int) int64 {
	t.Helper()
	const runs = 3
	var ms runtime.MemStats
	bytes := make([]int64, runs)
	for i := range bytes {
		runCtx := ctx
		if k > 0 {
			runCtx = telemetry.WithRecorder(ctx, telemetry.NewRecorder(k, spec.Seed))
		}
		runtime.ReadMemStats(&ms)
		start := ms.TotalAlloc
		if _, err := scenario.Run(runCtx, spec); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		bytes[i] = int64(ms.TotalAlloc - start)
	}
	sort.Slice(bytes, func(i, j int) bool { return bytes[i] < bytes[j] })
	return bytes[runs/2]
}

// TestTracedCompiledRunAllocationFlat guards the replay's cost: a traced
// compiled phishing-study run may allocate more than the untraced run only
// by an amount that does not grow with N, because the recorder replays at
// most its capacity in subjects per unit however many the run has. An
// interpreted fallback, or a trace built for every provisional winner,
// grows with N.
func TestTracedCompiledRunAllocationFlat(t *testing.T) {
	extra := func(n int) int64 {
		spec := readExample(t, "phishing-study.json")
		spec.N = n
		spec.Workers = 1
		ctx := scenario.WithEngine(context.Background(), scenario.EngineCompiled)
		return runAllocBytes(t, ctx, spec, 8) - runAllocBytes(t, ctx, spec, 0)
	}
	small, large := extra(200), extra(20000)
	t.Logf("traced minus untraced allocation: %d B at N=200, %d B at N=20000", small, large)
	if large > small+16<<10 {
		t.Errorf("tracing a compiled run costs %d B at N=20000 but %d B at N=200; the extra must not grow with N", large, small)
	}
}
