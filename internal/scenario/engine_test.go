package scenario_test

// Engine-selection tests: the compiled path must be invisible in results
// (bit-identical points to the interpreter for every example spec, at any
// worker count), refusals must fall back silently, and the analytic path
// must answer eligible specs with zero Monte Carlo work.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"testing"

	"hitl/internal/agent"
	"hitl/internal/faults"
	"hitl/internal/scenario"
	_ "hitl/internal/scenario/all"
	"hitl/internal/sim"
)

// runEngineSpec runs a spec under a forced engine path and returns the
// result with Workers canonicalized for comparison.
func runEngineSpec(t *testing.T, spec scenario.Spec, eng scenario.Engine, workers int) *scenario.Result {
	t.Helper()
	spec.Workers = workers
	ctx := scenario.WithEngine(context.Background(), eng)
	res, err := scenario.Run(ctx, spec)
	if err != nil {
		t.Fatalf("engine=%s workers=%d: %v", eng, workers, err)
	}
	res.Spec.Workers = 0
	return res
}

// analyticExamples names the example specs auto answers in closed form;
// every other example is a Monte Carlo spec auto must run compiled.
var analyticExamples = map[string]bool{"phishing-study-mean.json": true}

// TestExamplesEngineBitIdentity forces every example spec down the
// interpreted and the compiled path, across seeds and worker counts, and
// requires identical points. Every example must actually take the
// compiled path, forced and (unless answered analytically) under auto: a
// silent fallback to the interpreter would make the comparison vacuous.
func TestExamplesEngineBitIdentity(t *testing.T) {
	entries, err := os.ReadDir(examplesDir)
	if err != nil {
		t.Fatal(err)
	}
	workerCounts := []int{1, 4, runtime.NumCPU()}
	for _, e := range entries {
		t.Run(e.Name(), func(t *testing.T) {
			base := readExample(t, e.Name())
			for _, seed := range []int64{base.Seed, base.Seed + 101} {
				spec := base
				spec.Seed = seed
				interp := runEngineSpec(t, spec, scenario.EngineInterpreted, 1)
				if interp.EnginePath != sim.EngineInterpreted {
					t.Fatalf("forced interpreted ran %q", interp.EnginePath)
				}
				for _, workers := range workerCounts {
					comp := runEngineSpec(t, spec, scenario.EngineCompiled, workers)
					if !reflect.DeepEqual(interp.Points, comp.Points) {
						t.Fatalf("seed=%d workers=%d: compiled points diverge from interpreted\ninterpreted: %+v\ncompiled:    %+v",
							seed, workers, interp.Points, comp.Points)
					}
					if comp.EnginePath != sim.EngineCompiled {
						t.Fatalf("seed=%d workers=%d: forced compiled ran %q", seed, workers, comp.EnginePath)
					}
				}
				if analyticExamples[e.Name()] {
					continue
				}
				auto := runEngineSpec(t, spec, scenario.EngineAuto, 1)
				if auto.EnginePath != sim.EngineCompiled {
					t.Fatalf("seed=%d: auto ran %q, want compiled", seed, auto.EnginePath)
				}
				if !reflect.DeepEqual(interp.Points, auto.Points) {
					t.Fatalf("seed=%d: auto points diverge from interpreted", seed)
				}
			}
		})
	}
}

// TestAnalyticEngineZeroMonteCarlo pins the analytic fast path's core
// promise: an eligible spec is answered in closed form — no engine runs
// at all — and the answer matches the compiled Monte Carlo within
// binomial tolerance.
func TestAnalyticEngineZeroMonteCarlo(t *testing.T) {
	const n = 20000
	spec := readExample(t, "phishing-study-mean.json")
	spec.N = n

	col := sim.NewReportCollector()
	ctx := sim.WithReportCollector(context.Background(), col)
	res, err := scenario.Run(ctx, spec) // EngineAuto picks analytic
	if err != nil {
		t.Fatal(err)
	}
	if res.EnginePath != sim.EngineAnalytic {
		t.Fatalf("auto on a mean-field spec ran %q, want analytic", res.EnginePath)
	}
	if got := len(col.Reports()); got != 0 {
		t.Fatalf("analytic run executed %d Monte Carlo engine runs, want 0", got)
	}
	if len(res.Points) == 0 {
		t.Fatal("no points")
	}
	for _, p := range res.Points {
		if p.Run != nil {
			t.Fatalf("analytic point %s carries a simulation result", p.Label)
		}
		if _, ok := p.Values["heed_rate"]; !ok {
			t.Fatalf("analytic point %s has no heed_rate", p.Label)
		}
	}

	// Forced analytic agrees with auto; compiled Monte Carlo agrees with
	// the closed form within 4-sigma binomial tolerance per condition.
	forced := runEngineSpec(t, spec, scenario.EngineAnalytic, 1)
	if !reflect.DeepEqual(res.Points, forced.Points) {
		t.Fatal("forced analytic differs from auto analytic")
	}
	mc := runEngineSpec(t, spec, scenario.EngineCompiled, 1)
	if mc.EnginePath != sim.EngineCompiled {
		t.Fatalf("forced compiled on mean-field spec ran %q", mc.EnginePath)
	}
	for i, p := range res.Points {
		exact := p.Values["heed_rate"]
		got := mc.Points[i].Values["heed_rate"]
		tol := math.Max(4*math.Sqrt(exact*(1-exact)/n), 20.0/n)
		if math.Abs(got-exact) > tol {
			t.Errorf("%s: Monte Carlo heed %v vs analytic %v (tol %v)", p.Label, got, exact, tol)
		}
	}
}

// TestEngineStrictAndFallbackRules pins the selection semantics around
// refusals: forced analytic is strict, forced compiled falls back
// silently, and neither a trace recorder nor fault injection moves auto
// off the compiled path.
func TestEngineStrictAndFallbackRules(t *testing.T) {
	diverse := scenario.Spec{Scenario: "phishing-study", N: 200, Seed: 3}
	ctx := scenario.WithEngine(context.Background(), scenario.EngineAnalytic)
	if _, err := scenario.Run(ctx, diverse); err == nil {
		t.Error("forced analytic on a diverse population: want error, got nil")
	}

	refusing := scenario.Spec{Scenario: refusingScenario{}.Name(), N: 100, Seed: 3}
	if _, err := scenario.Run(ctx, refusing); err == nil {
		t.Error("forced analytic on a non-compilable scenario: want error, got nil")
	}
	res := runEngineSpec(t, refusing, scenario.EngineCompiled, 1)
	if res.EnginePath != sim.EngineInterpreted {
		t.Errorf("forced compiled on a non-compilable scenario ran %q, want silent interpreted fallback", res.EnginePath)
	}
	if !reflect.DeepEqual(res.Points, runEngineSpec(t, refusing, scenario.EngineInterpreted, 1).Points) {
		t.Error("fallback run differs from the interpreted run")
	}

	// A trace recorder does not choose the path: auto runs compiled and
	// replays the sampled subjects, which yields the interpreted traces.
	study := readExample(t, "phishing-study.json")
	traced, traces, _ := tracedRun(t, context.Background(), study, 4)
	if traced.EnginePath != sim.EngineCompiled {
		t.Errorf("auto with a recorder ran %q, want compiled", traced.EnginePath)
	}
	_, want, _ := tracedRun(t, scenario.WithEngine(context.Background(), scenario.EngineInterpreted), study, 4)
	if len(traces) == 0 || !reflect.DeepEqual(traces, want) {
		t.Errorf("auto traces differ from forced-interpreted traces\nauto:        %+v\ninterpreted: %+v", traces, want)
	}
	// The interpreter still answers what only it can: a refusing compiler.
	if res, _, _ := tracedRun(t, context.Background(), refusing, 4); res.EnginePath != sim.EngineInterpreted {
		t.Errorf("auto with a recorder on a non-compilable scenario ran %q, want interpreted", res.EnginePath)
	}
	// Faults act per subject on either path: a faulted traced run stays
	// compiled and samples the forced-interpreted faulted run's traces.
	fctx := sim.WithInjector(context.Background(), faults.MustParse("fail:stage=comprehension,p=0.2"))
	fres, ftraces, _ := tracedRun(t, fctx, study, 4)
	if fres.EnginePath != sim.EngineCompiled {
		t.Errorf("auto with a recorder and faults ran %q, want compiled", fres.EnginePath)
	}
	_, fwant, _ := tracedRun(t, scenario.WithEngine(fctx, scenario.EngineInterpreted), study, 4)
	if len(ftraces) == 0 || !reflect.DeepEqual(ftraces, fwant) {
		t.Errorf("faulted auto traces differ from forced-interpreted faulted traces\nauto:        %+v\ninterpreted: %+v", ftraces, fwant)
	}

	if _, err := scenario.ParseEngine("warp"); err == nil {
		t.Error("ParseEngine accepted an unknown engine")
	}
	if eng, err := scenario.ParseEngine(""); err != nil || eng != scenario.EngineAuto {
		t.Errorf("ParseEngine(\"\") = %v, %v; want auto", eng, err)
	}
}

// refusingScenario's Compile refuses every instance, the way a scenario
// refuses shapes only its interpreter reproduces.
type refusingScenario struct{}

func init() { scenario.Register(refusingScenario{}) }

func (refusingScenario) Name() string { return "engine-test-refusing" }
func (refusingScenario) Doc() string  { return "engine test scenario whose compiler refuses" }
func (refusingScenario) Defaults() scenario.Defaults {
	return scenario.Defaults{Population: "general-public-mean", N: 100}
}
func (refusingScenario) Params() []scenario.Param { return nil }

func (refusingScenario) Run(ctx context.Context, inst scenario.Instance) ([]scenario.Point, error) {
	res, err := sim.Runner{Seed: inst.Seed, N: inst.N, Workers: inst.Workers}.Run(ctx,
		func(rng *rand.Rand, _ int) (sim.Outcome, error) {
			return sim.Outcome{Heeded: rng.Float64() < 0.5, FailedStage: agent.StageNone}, nil
		})
	if err != nil {
		return nil, err
	}
	return []scenario.Point{{Label: "only", Run: res, Values: map[string]float64{"heed_rate": res.HeedRate()}}}, nil
}

func (refusingScenario) Compile(scenario.Instance) ([]scenario.ProgramUnit, error) {
	return nil, fmt.Errorf("%w: refused for the test", sim.ErrNotCompilable)
}

// TestLoopProgramNeverAnalytic runs a campaign on a mean-field population,
// whose every subject samples the same profile: the single-encounter
// closed form must not answer it, because a campaign subject meets many
// encounters. Auto runs it compiled and matches the interpreter; forced
// analytic refuses.
func TestLoopProgramNeverAnalytic(t *testing.T) {
	spec := scenario.Spec{Scenario: "phishing-campaign", Population: "general-public-mean", N: 300, Seed: 5,
		Params: map[string]any{"days": 10, "warning": "ie-passive", "fpr": 0.3}}
	interp := runEngineSpec(t, spec, scenario.EngineInterpreted, 1)
	auto := runEngineSpec(t, spec, scenario.EngineAuto, 2)
	if auto.EnginePath != sim.EngineCompiled {
		t.Fatalf("auto ran %q, want compiled", auto.EnginePath)
	}
	if !reflect.DeepEqual(interp.Points, auto.Points) {
		t.Fatalf("compiled points diverge from interpreted\ninterpreted: %+v\ncompiled:    %+v", interp.Points, auto.Points)
	}
	ctx := scenario.WithEngine(context.Background(), scenario.EngineAnalytic)
	if _, err := scenario.Run(ctx, spec); err == nil {
		t.Error("forced analytic on a campaign: want error, got nil")
	}
}
