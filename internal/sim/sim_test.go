package sim

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"hitl/internal/agent"
	"hitl/internal/comms"
	"hitl/internal/gems"
	"hitl/internal/population"
	"hitl/internal/stimuli"
)

// coinFlip is a trivial scenario: heed with probability p, else fail at
// attention switch.
func coinFlip(p float64) SubjectFunc {
	return func(rng *rand.Rand, _ int) (Outcome, error) {
		if rng.Float64() < p {
			return Outcome{Heeded: true, FailedStage: agent.StageNone}, nil
		}
		return Outcome{FailedStage: agent.StageAttentionSwitch}, nil
	}
}

func TestRunBasics(t *testing.T) {
	res, err := Runner{Seed: 1, N: 10000}.Run(context.Background(), coinFlip(0.3))
	if err != nil {
		t.Fatal(err)
	}
	if res.N != 10000 || res.Heed.Trials != 10000 {
		t.Fatalf("N bookkeeping wrong: %+v", res.Heed)
	}
	r := res.HeedRate()
	if r < 0.27 || r > 0.33 {
		t.Errorf("heed rate %v far from 0.3", r)
	}
	if res.StageFailures[agent.StageAttentionSwitch] != res.N-res.Heed.Successes {
		t.Error("failure histogram inconsistent with heed count")
	}
	if share := res.FailureShare(agent.StageAttentionSwitch); share != 1 {
		t.Errorf("all failures at attention switch: share = %v, want 1", share)
	}
	stage, n, ok := res.TopFailureStage()
	if !ok || stage != agent.StageAttentionSwitch || n == 0 {
		t.Errorf("TopFailureStage = %v, %d, %v", stage, n, ok)
	}
}

func TestRunDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) *Result {
		res, err := Runner{Seed: 42, N: 2000, Workers: workers}.Run(context.Background(), coinFlip(0.5))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(1)
	parallel := run(8)
	if serial.Heed != parallel.Heed {
		t.Errorf("results differ across worker counts: %+v vs %+v", serial.Heed, parallel.Heed)
	}
	if !reflect.DeepEqual(serial.StageFailures, parallel.StageFailures) {
		t.Error("stage failure histograms differ across worker counts")
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := (Runner{Seed: 1, N: 0}).Run(context.Background(), coinFlip(0.5)); err == nil {
		t.Error("N=0: want error")
	}
	if _, err := (Runner{Seed: 1, N: 5}).Run(context.Background(), nil); err == nil {
		t.Error("nil func: want error")
	}
	boom := errors.New("boom")
	_, err := Runner{Seed: 1, N: 5}.Run(context.Background(), func(*rand.Rand, int) (Outcome, error) {
		return Outcome{}, boom
	})
	if !errors.Is(err, boom) {
		t.Errorf("subject error not propagated: %v", err)
	}
}

func TestValuesAggregation(t *testing.T) {
	res, err := Runner{Seed: 3, N: 100, Keys: []string{"x"}}.Run(context.Background(), func(rng *rand.Rand, i int) (Outcome, error) {
		out := Outcome{Heeded: true, FailedStage: agent.StageNone}
		out.Obs.Set(0, float64(i%2))
		return out, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	mean, half, err := res.MeanValue("x")
	if err != nil {
		t.Fatal(err)
	}
	if mean != 0.5 {
		t.Errorf("mean = %v, want 0.5", mean)
	}
	if half <= 0 {
		t.Errorf("CI half-width = %v, want > 0", half)
	}
	if _, _, err := res.MeanValue("missing"); err == nil {
		t.Error("missing metric: want error")
	}
}

func TestFromAgentResult(t *testing.T) {
	ar := agent.Result{
		Heeded:        false,
		FailedStage:   agent.StageCapabilities,
		ErrorClass:    gems.NoError,
		Spoofed:       true,
		HeuristicPath: true,
	}
	o := FromAgentResult(ar)
	if o.Heeded || o.FailedStage != agent.StageCapabilities || !o.Spoofed || !o.HeuristicPath {
		t.Errorf("conversion lost fields: %+v", o)
	}
}

func TestSweep(t *testing.T) {
	params := []float64{0.1, 0.5, 0.9}
	points, err := Runner{Seed: 7, N: 5000}.Sweep(context.Background(), params, func(p float64) SubjectFunc {
		return coinFlip(p)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("got %d points", len(points))
	}
	for i, pt := range points {
		if pt.Param != params[i] {
			t.Errorf("point %d param = %v, want %v", i, pt.Param, params[i])
		}
		r := pt.Result.HeedRate()
		if r < pt.Param-0.05 || r > pt.Param+0.05 {
			t.Errorf("point %v heed rate %v", pt.Param, r)
		}
	}
	if _, err := (Runner{Seed: 7, N: 10}).Sweep(context.Background(), nil, func(float64) SubjectFunc { return coinFlip(0.5) }); err == nil {
		t.Error("empty sweep: want error")
	}
	if _, err := (Runner{Seed: 7, N: 10}).Sweep(context.Background(), params, nil); err == nil {
		t.Error("nil builder: want error")
	}
}

func TestSweepPointsIndependentSeeds(t *testing.T) {
	points, err := Runner{Seed: 9, N: 500}.Sweep(context.Background(), []float64{0.5, 0.5}, func(p float64) SubjectFunc {
		return coinFlip(p)
	})
	if err != nil {
		t.Fatal(err)
	}
	if points[0].Result.Heed == points[1].Result.Heed {
		t.Log("identical heed counts for identical params is possible but suspicious with different seeds")
	}
	// Re-running the whole sweep reproduces it exactly.
	again, err := Runner{Seed: 9, N: 500}.Sweep(context.Background(), []float64{0.5, 0.5}, func(p float64) SubjectFunc {
		return coinFlip(p)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range points {
		if points[i].Result.Heed != again[i].Result.Heed {
			t.Errorf("sweep not reproducible at point %d", i)
		}
	}
}

func TestRunCanceledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	called := false
	_, err := Runner{Seed: 1, N: 100}.Run(ctx, func(*rand.Rand, int) (Outcome, error) {
		called = true
		return Outcome{Heeded: true}, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if called {
		t.Error("subject function ran under an already-canceled context")
	}
}

func TestRunCancelMidFlight(t *testing.T) {
	// A context-aware subject function: the first subject cancels the run,
	// then every subject blocks until cancellation is visible. Run must
	// return context.Canceled promptly instead of simulating all N.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var simulated atomic.Int64
	start := time.Now()
	_, err := Runner{Seed: 1, N: 1_000_000, Workers: 4}.Run(ctx, func(_ *rand.Rand, i int) (Outcome, error) {
		simulated.Add(1)
		cancel()
		<-ctx.Done()
		return Outcome{Heeded: true}, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Each worker finishes at most the subject it was on plus one more it
	// may have claimed before observing cancellation.
	if n := simulated.Load(); n > 8 {
		t.Errorf("simulated %d subjects after cancel, want <= 8", n)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("cancellation took %v, want prompt return", d)
	}
}

func TestSweepLabels(t *testing.T) {
	params := []float64{0.25, 0.5}
	points, err := Runner{Seed: 7, N: 50}.Sweep(context.Background(), params, func(p float64) SubjectFunc {
		return coinFlip(p)
	})
	if err != nil {
		t.Fatal(err)
	}
	if points[0].Label != "0.25" || points[1].Label != "0.5" {
		t.Errorf("default labels = %q, %q; want %%g formatting", points[0].Label, points[1].Label)
	}
	ru := Runner{Seed: 7, N: 50, SweepLabeler: func(p float64) string {
		return fmt.Sprintf("p=%.0f%%", p*100)
	}}
	points, err = ru.Sweep(context.Background(), params, func(p float64) SubjectFunc {
		return coinFlip(p)
	})
	if err != nil {
		t.Fatal(err)
	}
	if points[0].Label != "p=25%" || points[1].Label != "p=50%" {
		t.Errorf("custom labels = %q, %q", points[0].Label, points[1].Label)
	}
}

func TestSweepCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Runner{Seed: 7, N: 10}.Sweep(ctx, []float64{0.5}, func(p float64) SubjectFunc {
		return coinFlip(p)
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want wrapped context.Canceled", err)
	}
}

// Integration: run the agent pipeline under the sim engine.
func TestRunAgentScenario(t *testing.T) {
	spec := population.GeneralPublic()
	enc := agent.Encounter{
		Comm:          comms.FirefoxActiveWarning(),
		Env:           stimuli.Busy(),
		HazardPresent: true,
		Task:          gems.LeaveSuspiciousSite(),
	}
	res, err := Runner{Seed: 11, N: 3000}.Run(context.Background(), func(rng *rand.Rand, i int) (Outcome, error) {
		r := agent.NewReceiver(spec.Sample(rng))
		ar, err := r.Process(rng, enc)
		if err != nil {
			return Outcome{}, err
		}
		return FromAgentResult(ar), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rate := res.HeedRate(); rate < 0.5 {
		t.Errorf("firefox warning heed rate %v under sim engine, want >= 0.5", rate)
	}
	if len(res.SortedStages()) == 0 {
		t.Error("expected some failures across 3000 subjects")
	}
}

func TestSortedStagesOrdered(t *testing.T) {
	res, err := Runner{Seed: 13, N: 100}.Run(context.Background(), func(rng *rand.Rand, i int) (Outcome, error) {
		stages := []agent.Stage{agent.StageBehavior, agent.StageDelivery, agent.StageMotivation}
		return Outcome{FailedStage: stages[i%3]}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	got := res.SortedStages()
	want := []agent.Stage{agent.StageDelivery, agent.StageMotivation, agent.StageBehavior}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("SortedStages = %v, want %v", got, want)
	}
}

// valuesScenario emits a per-subject metric so Values ordering is
// observable: subject i records "idx" = i alongside a seeded coin flip,
// and every third subject also records "sparse" = i, so the merge
// compacts a column with gaps. It runs under valuesKeys.
func valuesScenario(rng *rand.Rand, i int) (Outcome, error) {
	var out Outcome
	out.Obs.Set(0, float64(i))
	out.Obs.Set(1, rng.Float64())
	if i%3 == 0 {
		out.Obs.Set(2, float64(i))
	}
	if rng.Float64() < 0.5 {
		out.Heeded = true
		out.FailedStage = agent.StageNone
	} else {
		out.FailedStage = agent.StageMotivation
	}
	return out, nil
}

var valuesKeys = []string{"idx", "draw", "sparse"}

// TestResultBitIdenticalAcrossWorkers locks the sharded-aggregation
// determinism contract: the full Result — including the subject order of
// every Values series — is bit-for-bit identical for any worker count.
func TestResultBitIdenticalAcrossWorkers(t *testing.T) {
	workerCounts := []int{1, 3, runtime.GOMAXPROCS(0)}
	results := make([]*Result, len(workerCounts))
	for wi, workers := range workerCounts {
		res, err := Runner{Seed: 1234, N: 600, Workers: workers, Keys: valuesKeys}.Run(context.Background(), valuesScenario)
		if err != nil {
			t.Fatal(err)
		}
		results[wi] = res
	}
	// Values must come back in subject order regardless of which worker
	// ran which subject.
	for wi, res := range results {
		idx := res.Values["idx"]
		if len(idx) != 600 {
			t.Fatalf("workers=%d: %d idx observations, want 600", workerCounts[wi], len(idx))
		}
		for i, v := range idx {
			if v != float64(i) {
				t.Fatalf("workers=%d: idx[%d] = %v, want %v (subject order broken)", workerCounts[wi], i, v, i)
			}
		}
		sparse := res.Values["sparse"]
		if len(sparse) != 200 {
			t.Fatalf("workers=%d: %d sparse observations, want 200", workerCounts[wi], len(sparse))
		}
		for i, v := range sparse {
			if v != float64(3*i) {
				t.Fatalf("workers=%d: sparse[%d] = %v, want %v (subject order broken)", workerCounts[wi], i, v, 3*i)
			}
		}
	}
	for wi := 1; wi < len(results); wi++ {
		if !reflect.DeepEqual(results[0], results[wi]) {
			t.Errorf("Result differs between workers=%d and workers=%d:\n%+v\nvs\n%+v",
				workerCounts[0], workerCounts[wi], results[0], results[wi])
		}
	}
}

// TestRunAgentBitIdenticalAcrossWorkers runs the real receiver pipeline —
// where each subject consumes a profile-dependent number of random draws —
// and requires identical Results at every worker count.
func TestRunAgentBitIdenticalAcrossWorkers(t *testing.T) {
	pop := population.GeneralPublic()
	scenario := func(rng *rand.Rand, i int) (Outcome, error) {
		r := agent.NewReceiver(pop.Sample(rng))
		ar, err := r.Process(rng, agent.Encounter{
			Comm:          comms.FirefoxActiveWarning(),
			Env:           stimuli.Busy(),
			HazardPresent: true,
			Task:          gems.LeaveSuspiciousSite(),
		})
		if err != nil {
			return Outcome{}, err
		}
		return FromAgentResult(ar), nil
	}
	var base *Result
	for _, workers := range []int{1, 3, runtime.GOMAXPROCS(0)} {
		res, err := Runner{Seed: 20080124, N: 400, Workers: workers}.Run(context.Background(), scenario)
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = res
			continue
		}
		if !reflect.DeepEqual(base, res) {
			t.Errorf("agent-pipeline Result differs at workers=%d", workers)
		}
	}
}

// TestSweepParallelMatchesSerial locks the sweep determinism contract:
// SweepWorkers > 1 must produce bit-identical points to the serial sweep,
// because every point derives its seed from the point index alone.
func TestSweepParallelMatchesSerial(t *testing.T) {
	params := []float64{0.2, 0.4, 0.6, 0.8}
	sweep := func(sweepWorkers int) []SweepPoint {
		points, err := Runner{Seed: 77, N: 800, Workers: 4, SweepWorkers: sweepWorkers, Keys: []string{"idx"}}.
			Sweep(context.Background(), params, func(p float64) SubjectFunc {
				return func(rng *rand.Rand, i int) (Outcome, error) {
					var out Outcome
					out.Obs.Set(0, float64(i))
					if rng.Float64() < p {
						out.Heeded = true
						out.FailedStage = agent.StageNone
					} else {
						out.FailedStage = agent.StageAttentionSwitch
					}
					return out, nil
				}
			})
		if err != nil {
			t.Fatal(err)
		}
		return points
	}
	serial := sweep(0)
	for _, sw := range []int{2, 4, 16} {
		parallel := sweep(sw)
		if !reflect.DeepEqual(serial, parallel) {
			t.Errorf("SweepWorkers=%d: points differ from serial sweep", sw)
		}
	}
}

// TestSweepParallelPropagatesError checks the lowest-index real error wins
// even when later points are canceled by the sweep's internal context.
func TestSweepParallelPropagatesError(t *testing.T) {
	boom := errors.New("boom")
	_, err := Runner{Seed: 5, N: 50, SweepWorkers: 3}.
		Sweep(context.Background(), []float64{0, 1, 2}, func(p float64) SubjectFunc {
			return func(rng *rand.Rand, i int) (Outcome, error) {
				if p == 1 && i == 10 {
					return Outcome{}, boom
				}
				return Outcome{Heeded: true, FailedStage: agent.StageNone}, nil
			}
		})
	if !errors.Is(err, boom) {
		t.Errorf("parallel sweep error = %v, want boom", err)
	}
}
