package sim

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"hitl/internal/agent"
	"hitl/internal/comms"
	"hitl/internal/gems"
	"hitl/internal/population"
	"hitl/internal/stimuli"
	"hitl/internal/telemetry"
)

// studyEncounter is the phishing-study encounter shape: one warning, busy
// environment, hazard present, the leave-suspicious-site task.
func studyEncounter(w comms.Communication) agent.Encounter {
	return agent.Encounter{
		Comm:          w,
		Env:           stimuli.Busy(),
		HazardPresent: true,
		Task:          gems.LeaveSuspiciousSite(),
	}
}

// interpretedSubject mirrors the interpreted scenario walk for the same
// (population, encounter, training) triple a Program compiles.
func interpretedSubject(pop population.Spec, e agent.Encounter, trained bool, skill agent.Skill) SubjectFunc {
	return func(rng *rand.Rand, _ int) (Outcome, error) {
		r := agent.NewReceiver(pop.Sample(rng))
		if trained {
			r.Train(e.Comm.Topic, skill)
		}
		ar, err := r.Process(rng, e)
		if err != nil {
			return Outcome{}, err
		}
		return FromAgentResult(ar), nil
	}
}

// TestRunProgramBitIdentity is the compiled engine's contract: for every
// warning preset, trained and untrained, across seeds and worker counts,
// RunProgram returns a Result deeply equal to Run with the equivalent
// interpreted subject function.
func TestRunProgramBitIdentity(t *testing.T) {
	pop := population.GeneralPublic()
	skill := agent.Skill{Level: 0.85, Interactivity: 0.85, AcquiredDay: 0}
	warnings := []comms.Communication{
		comms.FirefoxActiveWarning(),
		comms.IEActiveWarning(),
		comms.IEPassiveWarning(),
		comms.ToolbarPassiveIndicator(),
	}
	workerCounts := []int{1, 4, runtime.NumCPU()}
	for _, w := range warnings {
		for _, trained := range []bool{false, true} {
			e := studyEncounter(w)
			prog, err := NewProgram(pop, nil, e, trained, skill)
			if err != nil {
				t.Fatalf("%s trained=%v: NewProgram: %v", w.ID, trained, err)
			}
			for _, seed := range []int64{1, 42, 20080124} {
				var want *Result
				for _, workers := range workerCounts {
					ru := Runner{Seed: seed, N: 400, Workers: workers}
					interp, err := ru.Run(context.Background(), interpretedSubject(pop, e, trained, skill))
					if err != nil {
						t.Fatal(err)
					}
					comp, err := ru.RunProgram(context.Background(), prog)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(interp, comp) {
						t.Fatalf("%s trained=%v seed=%d workers=%d: compiled diverged\ninterpreted: %+v\ncompiled:    %+v",
							w.ID, trained, seed, workers, interp, comp)
					}
					if want == nil {
						want = comp
					} else if !reflect.DeepEqual(want, comp) {
						t.Fatalf("%s trained=%v seed=%d workers=%d: compiled result depends on worker count", w.ID, trained, seed, workers)
					}
				}
			}
		}
	}
}

// TestNewProgramRefusals pins the shapes compilation must hand back to the
// interpreter.
func TestNewProgramRefusals(t *testing.T) {
	pop := population.GeneralPublic()

	training := studyEncounter(comms.FirefoxActiveWarning())
	training.Comm = comms.AntiPhishingTraining()
	if _, err := NewProgram(pop, nil, training, false, agent.Skill{}); !errors.Is(err, ErrNotCompilable) {
		t.Errorf("training communication: want ErrNotCompilable, got %v", err)
	}

	old := pop
	old.AgeMax = 200
	if _, err := NewProgram(old, nil, studyEncounter(comms.FirefoxActiveWarning()), false, agent.Skill{}); !errors.Is(err, ErrNotCompilable) {
		t.Errorf("out-of-range ages: want ErrNotCompilable, got %v", err)
	}
	loop := func(*rand.Rand, int) (Outcome, error) { return Outcome{}, nil }
	if _, err := NewLoopProgram(old, nil, loop); !errors.Is(err, ErrNotCompilable) {
		t.Errorf("loop program, out-of-range ages: want ErrNotCompilable, got %v", err)
	}

	// A loop program has no closed form, even over a mean-field population.
	prog, err := NewLoopProgram(pop.MeanField(), nil, loop)
	if err != nil {
		t.Fatal(err)
	}
	if prog.AnalyticEligible() {
		t.Error("loop program reported analytic-eligible")
	}
	if _, err := prog.Exact(); !errors.Is(err, ErrNotCompilable) {
		t.Errorf("loop program Exact: want ErrNotCompilable, got %v", err)
	}
}

// TestAnalyticMatchesMonteCarlo is the pinned statistical cross-check: the
// closed-form distribution of a mean-field program must match its own
// Monte Carlo aggregation within binomial sampling tolerance, on every
// reported mass.
func TestAnalyticMatchesMonteCarlo(t *testing.T) {
	const n = 40000
	skill := agent.Skill{Level: 0.85, Interactivity: 0.85, AcquiredDay: 0}
	pop := population.GeneralPublic().MeanField()
	for _, w := range []comms.Communication{
		comms.FirefoxActiveWarning(), // blocking: exercises the heuristic pool
		comms.IEPassiveWarning(),     // dismissal race
		comms.ToolbarPassiveIndicator(),
	} {
		for _, trained := range []bool{false, true} {
			prog, err := NewProgram(pop, nil, studyEncounter(w), trained, skill)
			if err != nil {
				t.Fatalf("%s: NewProgram: %v", w.ID, err)
			}
			if !prog.AnalyticEligible() {
				t.Fatalf("%s: mean-field program should be analytic-eligible", w.ID)
			}
			d, err := prog.Exact()
			if err != nil {
				t.Fatalf("%s: Exact: %v", w.ID, err)
			}

			// Conservation: heed + stage-failure masses account for
			// everyone, and the class distribution is a distribution.
			totalFail := 0.0
			for _, m := range d.StageFailures {
				totalFail += m
			}
			if got := d.Heed + totalFail; math.Abs(got-1) > 1e-9 {
				t.Errorf("%s trained=%v: heed+failures = %v, want 1", w.ID, trained, got)
			}
			totalClass := 0.0
			for _, m := range d.ErrorClasses {
				totalClass += m
			}
			if math.Abs(totalClass-1) > 1e-9 {
				t.Errorf("%s trained=%v: error-class masses sum to %v, want 1", w.ID, trained, totalClass)
			}

			mc, err := Runner{Seed: 77, N: n}.RunProgram(context.Background(), prog)
			if err != nil {
				t.Fatal(err)
			}
			// 4-sigma binomial tolerance with a floor for near-degenerate
			// masses: ~1 in 16k per comparison by chance.
			tol := func(p float64) float64 {
				return math.Max(4*math.Sqrt(p*(1-p)/n), 20.0/n)
			}
			check := func(name string, mass float64, count int) {
				if got := float64(count) / n; math.Abs(got-mass) > tol(mass) {
					t.Errorf("%s trained=%v: %s rate %v vs analytic %v (tol %v)",
						w.ID, trained, name, got, mass, tol(mass))
				}
			}
			check("heed", d.Heed, mc.Heed.Successes)
			check("heuristic", d.Heuristic, mc.Heuristic)
			check("spoofed", d.Spoofed, mc.Spoofed)
			for _, s := range agent.Stages() {
				check("stage "+s.String(), d.StageFailures[s], mc.StageFailures[s])
			}
			for _, c := range []gems.ErrorClass{gems.NoError, gems.Mistake, gems.ExecutionGulf, gems.Lapse, gems.Slip, gems.EvaluationGulf} {
				check("class "+c.String(), d.ErrorClasses[c], mc.ErrorClasses[c])
			}
		}
	}
}

// TestAnalyticRefusesDiversePopulations: a population with real spread has
// no shared threshold vector; Exact must refuse rather than approximate.
func TestAnalyticRefusesDiversePopulations(t *testing.T) {
	prog, err := NewProgram(population.GeneralPublic(), nil, studyEncounter(comms.FirefoxActiveWarning()), false, agent.Skill{})
	if err != nil {
		t.Fatal(err)
	}
	if prog.AnalyticEligible() {
		t.Fatal("general-public program must not be analytic-eligible")
	}
	if _, err := prog.Exact(); !errors.Is(err, ErrNotCompilable) {
		t.Fatalf("Exact on diverse population: want ErrNotCompilable, got %v", err)
	}
}

// maxCompiledAllocsPerRun bounds the compiled path's per-run allocation
// overhead (shards, worker goroutines, spans, pprof label sets). With 5000
// subjects per run, the ceiling keeps the steady-state per-subject cost at
// zero: a single allocation on the subject path would cost at least 5000.
const maxCompiledAllocsPerRun = 2000

// BenchmarkRunProgram is the compiled-path counterpart of BenchmarkRun's
// trace-off case; BENCH_sim.json derives its compiled subjects/s and
// allocs-per-subject figures from the same program shape.
func BenchmarkRunProgram(b *testing.B) {
	const n = 5000
	prog, err := NewProgram(population.GeneralPublic(), nil, studyEncounter(comms.FirefoxActiveWarning()), false, agent.Skill{})
	if err != nil {
		b.Fatal(err)
	}
	runner := Runner{Seed: 1, N: n, Workers: 8}
	ctx := context.Background()
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runner.RunProgram(ctx, prog); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(n*b.N)/b.Elapsed().Seconds(), "subjects/s")
	perRun := float64(after.Mallocs-before.Mallocs) / float64(b.N)
	b.ReportMetric(perRun/n, "allocs/subject")
	if perRun > maxCompiledAllocsPerRun {
		b.Fatalf("compiled run allocated %.0f objects/op, ceiling is %d; a per-subject allocation crept into the compiled path",
			perRun, maxCompiledAllocsPerRun)
	}
}

// TestSampleTracesReplayFailure pins how a replay fails: without a
// recorder SampleTraces does nothing, a program without an interpreted
// subject cannot be sampled, and a replayed subject's panic or error
// fails the call the way it would fail a run.
func TestSampleTracesReplayFailure(t *testing.T) {
	prog, err := NewProgram(population.GeneralPublic(), nil, studyEncounter(comms.FirefoxActiveWarning()), false, agent.Skill{})
	if err != nil {
		t.Fatal(err)
	}
	ru := Runner{Seed: 1, N: 100}
	traced := func() context.Context {
		return telemetry.WithRecorder(context.Background(), telemetry.NewRecorder(4, 1))
	}
	if err := ru.SampleTraces(context.Background(), prog); err != nil {
		t.Errorf("untraced SampleTraces: %v", err)
	}
	if err := ru.SampleTraces(traced(), prog); err == nil {
		t.Error("sampling a program without an interpreted subject: want error, got nil")
	}

	prog.Interpreted = func(*rand.Rand, int) (Outcome, error) { panic("replay boom") }
	var pe *PanicError
	if err := ru.SampleTraces(traced(), prog); !errors.As(err, &pe) {
		t.Errorf("panicking replay: got %v, want a *PanicError", err)
	}
	bad := errors.New("bad subject")
	prog.Interpreted = func(*rand.Rand, int) (Outcome, error) { return Outcome{}, bad }
	if err := ru.SampleTraces(traced(), prog); !errors.Is(err, bad) {
		t.Errorf("failing replay: got %v, want the subject error", err)
	}
}
