package sim

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"hitl/internal/telemetry"
)

// maxTraceOffAllocsPerRun is the regression ceiling for the trace-off hot
// path, guarded by BenchmarkRun. A 5000-subject run used to cost ~73k
// allocations (fresh rand.Rand + four receiver maps + default-Model copies
// + an eagerly built Trace per subject); the sharded engine with pooled
// RNGs, pooled receivers, and opt-in traces costs a few hundred — the
// ceiling leaves generous slack while still failing loudly if a per-subject
// allocation sneaks back in (each one costs at least N = 5000).
const maxTraceOffAllocsPerRun = 4000

// BenchmarkRun guards the tentpole's zero-cost-when-off promise: the
// trace-off variant runs with no tracer or recorder in the context and no
// trace collection in the subject function, so the per-subject hot path
// must stay allocation-free — the guard above fails the benchmark if
// allocs/op exceeds the ceiling. The trace-on variant attaches a span
// tracer, a 64-subject trace recorder, and a trace-collecting pipeline;
// Recorder.Consider still defers trace materialization to the few subjects
// that win reservoir slots. Re-run with:
//
//	go test -bench=BenchmarkRun -benchtime=2s -count=3 ./internal/sim
func BenchmarkRun(b *testing.B) {
	const n = 5000
	runner := Runner{Seed: 1, N: n, Workers: 8}

	b.Run("trace-off", func(b *testing.B) {
		subject := agentPipeline()
		ctx := context.Background()
		b.ReportAllocs()
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := runner.Run(ctx, subject); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		runtime.ReadMemStats(&after)
		b.ReportMetric(float64(n*b.N)/b.Elapsed().Seconds(), "subjects/s")
		if perOp := float64(after.Mallocs-before.Mallocs) / float64(b.N); perOp > maxTraceOffAllocsPerRun {
			b.Fatalf("trace-off run allocated %.0f objects/op, ceiling is %d; a per-subject allocation crept back into the hot path",
				perOp, maxTraceOffAllocsPerRun)
		}
	})

	b.Run("trace-on", func(b *testing.B) {
		subject := tracedAgentPipeline()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ctx := telemetry.WithRecorder(context.Background(), telemetry.NewRecorder(64, 1))
			ctx = telemetry.WithTracer(ctx, telemetry.NewTracer(nil))
			if _, err := runner.Run(ctx, subject); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(n*b.N)/b.Elapsed().Seconds(), "subjects/s")
	})
}

// sourceSink keeps BenchmarkSource's draws observable to the compiler.
var sourceSink float64

// BenchmarkSource times one subject stream's worth of generator work:
// Seed plus k Float64 draws, on one source reused across subjects as the
// engine's workers reuse theirs. The k values are the corpus's measured
// draws per subject: phishing-study ~20, the password specs ~35,
// phishing-adaptive-campaign ~530, phishing-campaign ~800. The stdlib row
// is the reference the engine's source must match bit for bit.
func BenchmarkSource(b *testing.B) {
	sources := []struct {
		name string
		new  func() rand.Source
	}{
		{"stdlib", func() rand.Source { return rand.NewSource(1) }},
		{"rngSource", func() rand.Source { return &rngSource{} }},
	}
	for _, k := range []int{20, 35, 530, 800} {
		for _, s := range sources {
			b.Run(fmt.Sprintf("k=%d/%s", k, s.name), func(b *testing.B) {
				src := s.new()
				rng := rand.New(src)
				var sum float64
				for i := 0; i < b.N; i++ {
					src.Seed(splitmix64(1, i))
					for j := 0; j < k; j++ {
						sum += rng.Float64()
					}
				}
				sourceSink = sum
			})
		}
	}
}
