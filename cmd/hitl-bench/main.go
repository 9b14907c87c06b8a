// Command hitl-bench measures Monte Carlo engine throughput and allocation
// cost on the full phishing agent pipeline, plus the HTTP server's
// deterministic result cache, and writes the results as JSON so CI can
// archive a comparable artifact per commit.
//
// Usage:
//
//	hitl-bench [-out BENCH_sim.json] [-n 50000] [-runs 3] [-seed 1]
//	           [-baseline OLD.json] [-diff] [-check] [-max-regress 15]
//
// It times sim.Runner.Run at 1, 4, and GOMAXPROCS workers, each with
// subject-trace sampling off and on, plus the compiled engine path
// (sim.Runner.RunProgram over the same pipeline lowered to a Program,
// trace-off only — RunProgram offers nothing to a recorder; the scenario
// layer samples compiled runs by replaying a few subjects), keeping
// the best of -runs repetitions per configuration and recording allocs/op,
// bytes/op (one op = one full N-subject run), and allocs/subject from
// runtime.MemStats deltas. Each configuration records
// both the requested worker count and the effective one after the engine's
// GOMAXPROCS clamp — on a 1-CPU box workers=4 executes as workers=1, so
// requesting more workers than processors no longer pays goroutine
// scheduling overhead for zero parallelism. A separate "multicore" section
// raises GOMAXPROCS to NumCPU and times 1 vs NumCPU workers, so CI runners
// with real cores record the parallel speedup (multicore_speedup) even
// when the primary section ran at GOMAXPROCS=1. It then times the server's
// /v1/experiments/run endpoint cold (cache miss, full Monte Carlo) and warm
// (cache hit, served from the LRU).
//
// -baseline embeds a previous report in the output's "baseline" field;
// -diff additionally prints a configuration-by-configuration comparison to
// stderr. The top-level trace_overhead_pct compares trace-on vs trace-off
// at GOMAXPROCS workers and should stay in the low single digits.
//
// -check turns the comparison into a gate: if any (engine, workers, trace)
// configuration's subjects/s fell more than -max-regress percent below the
// baseline — or its allocs/subject rose more than that (plus a 0.05
// absolute floor guarding the compiled path's near-zero counts) — the
// offending configurations are printed and the process exits nonzero —
// `make bench-check` wires this against the committed BENCH_sim.json so CI
// refuses silent engine regressions. The report is still written before
// the gate fires, so the artifact survives a failure.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"time"

	"hitl/internal/agent"
	"hitl/internal/comms"
	"hitl/internal/gems"
	"hitl/internal/population"
	"hitl/internal/scenario"
	_ "hitl/internal/scenario/all" // register the built-in scenarios
	"hitl/internal/server"
	"hitl/internal/sim"
	"hitl/internal/stimuli"
	"hitl/internal/telemetry"
)

// result is one (engine, workers, trace) configuration's best observed run.
type result struct {
	// Engine is the engine path measured: "interpreted" (the agent walk) or
	// "compiled" (the lowered Program). Reports from before the compiled
	// path existed omit it; readers treat empty as "interpreted".
	Engine  string `json:"engine,omitempty"`
	Workers int    `json:"workers"`
	// EffectiveWorkers is the worker count the engine actually used after
	// clamping to GOMAXPROCS (requesting more buys nothing but scheduler
	// overhead). Omitted in reports from before the clamp existed.
	EffectiveWorkers int     `json:"effective_workers,omitempty"`
	Trace            bool    `json:"trace"`
	Seconds          float64 `json:"seconds"`
	SubjectsPerSec   float64 `json:"subjects_per_sec"`
	// Alloc fields are omitted when absent (reports from before they were
	// recorded embed cleanly as baselines). AllocsPerSubject divides the
	// per-op count by the run's subject count — the compiled path holds it
	// near zero, and the -check gate flags regressions on it.
	AllocsPerOp      uint64  `json:"allocs_per_op,omitempty"`
	BytesPerOp       uint64  `json:"bytes_per_op,omitempty"`
	AllocsPerSubject float64 `json:"allocs_per_subject,omitempty"`
}

// serverResult is one server-endpoint timing (per request, best of -runs).
type serverResult struct {
	Name           string  `json:"name"`
	Seconds        float64 `json:"seconds"`
	RequestsPerSec float64 `json:"requests_per_sec"`
}

// multicoreResult is one scaling measurement with GOMAXPROCS raised to
// NumCPU, so parallel speedup is observable even when the process default
// is 1 (containers, CI sandboxes).
type multicoreResult struct {
	GOMAXPROCS       int     `json:"gomaxprocs"`
	Workers          int     `json:"workers"`
	EffectiveWorkers int     `json:"effective_workers"`
	Seconds          float64 `json:"seconds"`
	SubjectsPerSec   float64 `json:"subjects_per_sec"`
}

// episodeResult times the multi-round episode loop against manually
// running the identical round specs back-to-back. The two do the same
// Monte Carlo work, so overhead_pct isolates the episode machinery
// (policy evaluation, round-spec materialization, per-round summaries) —
// the -check gate keeps it under -max-episode-overhead percent.
type episodeResult struct {
	Rounds         int     `json:"rounds"`
	SubjectsPerRun int     `json:"subjects_per_run"`
	EpisodeSeconds float64 `json:"episode_seconds"`
	ManualSeconds  float64 `json:"manual_seconds"`
	OverheadPct    float64 `json:"overhead_pct"`
}

// report is the whole BENCH_sim.json document.
type report struct {
	GoVersion          string            `json:"go_version"`
	GOMAXPROCS         int               `json:"gomaxprocs"`
	NumCPU             int               `json:"num_cpu"`
	SubjectsPerRun     int               `json:"subjects_per_run"`
	RunsPerConfig      int               `json:"runs_per_config"`
	Results            []result          `json:"results"`
	Multicore          []multicoreResult `json:"multicore,omitempty"`
	MulticoreSpeedup   float64           `json:"multicore_speedup,omitempty"`
	Server             []serverResult    `json:"server,omitempty"`
	ServerCacheSpeedup float64           `json:"server_cache_speedup,omitempty"`
	Episode            *episodeResult    `json:"episode,omitempty"`
	TraceOverheadPct   float64           `json:"trace_overhead_pct"`
	// Baseline carries the previous committed report when -baseline is
	// given, so one artifact holds the before/after pair.
	Baseline *report `json:"baseline,omitempty"`
}

// pipeline is the standard full-pipeline subject: a pooled general-public
// receiver facing a blocking Firefox warning, as in the phishing case study.
func pipeline() sim.SubjectFunc {
	spec := population.GeneralPublic()
	enc := agent.Encounter{
		Comm:          comms.FirefoxActiveWarning(),
		Env:           stimuli.Busy(),
		HazardPresent: true,
		Task:          gems.LeaveSuspiciousSite(),
	}
	return func(rng *rand.Rand, _ int) (sim.Outcome, error) {
		r := agent.NewReceiver(spec.Sample(rng))
		ar, err := r.Process(rng, enc)
		if err != nil {
			return sim.Outcome{}, err
		}
		return sim.FromAgentResult(ar), nil
	}
}

// program lowers the same pipeline shape into a compiled sim.Program, so
// the interpreted and compiled measurements time identical work.
func program() (*sim.Program, error) {
	return sim.NewProgram(population.GeneralPublic(), nil, agent.Encounter{
		Comm:          comms.FirefoxActiveWarning(),
		Env:           stimuli.Busy(),
		HazardPresent: true,
		Task:          gems.LeaveSuspiciousSite(),
	}, false, agent.Skill{})
}

// bench runs one configuration repeats times and returns the best wall time
// plus that run's allocation deltas. A nil prog times the interpreted agent
// walk; otherwise the compiled Program runs (trace must be off: RunProgram
// offers nothing to a recorder).
func bench(seed int64, n, workers, repeats int, trace bool, prog *sim.Program) (best time.Duration, allocs, bytesAlloc uint64, err error) {
	var ms runtime.MemStats
	for i := 0; i < repeats; i++ {
		ctx := context.Background()
		if trace {
			ctx = telemetry.WithRecorder(ctx, telemetry.NewRecorder(64, seed))
		}
		ru := sim.Runner{Seed: seed, N: n, Workers: workers}
		runtime.ReadMemStats(&ms)
		startMallocs, startBytes := ms.Mallocs, ms.TotalAlloc
		start := time.Now()
		if prog != nil {
			_, err = ru.RunProgram(ctx, prog)
		} else {
			_, err = ru.Run(ctx, pipeline())
		}
		if err != nil {
			return 0, 0, 0, err
		}
		d := time.Since(start)
		runtime.ReadMemStats(&ms)
		if best == 0 || d < best {
			best = d
			allocs = ms.Mallocs - startMallocs
			bytesAlloc = ms.TotalAlloc - startBytes
		}
	}
	return best, allocs, bytesAlloc, nil
}

// benchServer times /v1/experiments/run cold (first request, cache miss)
// and warm (repeated identical request, cache hit).
func benchServer(seed int64, n, repeats int) (cold, hit time.Duration, err error) {
	srv := httptest.NewServer(server.New(server.Config{
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	}))
	defer srv.Close()
	body, _ := json.Marshal(map[string]any{"id": "E1", "seed": seed, "n": n})

	post := func() (time.Duration, error) {
		start := time.Now()
		resp, err := http.Post(srv.URL+"/v1/experiments/run", "application/json", bytes.NewReader(body))
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return 0, err
		}
		if resp.StatusCode != http.StatusOK {
			return 0, fmt.Errorf("server returned %d", resp.StatusCode)
		}
		return time.Since(start), nil
	}

	if cold, err = post(); err != nil {
		return 0, 0, err
	}
	// Warm: every subsequent identical request is a cache hit; take the
	// best of a larger sample since each is microseconds.
	for i := 0; i < repeats*20; i++ {
		d, err := post()
		if err != nil {
			return 0, 0, err
		}
		if hit == 0 || d < hit {
			hit = d
		}
	}
	return cold, hit, nil
}

// benchEpisode times an adaptive multi-round episode through scenario.Run
// against the manual equivalent: the same round specs (recorded parameters
// and derived seeds included) run back-to-back without the episode loop.
// Both sides keep the best of repeats.
func benchEpisode(seed int64, n, rounds, repeats int) (*episodeResult, error) {
	ctx := context.Background()
	spec := scenario.Spec{
		Scenario: "phishing-adaptive-campaign",
		N:        n,
		Seed:     seed,
		Rounds:   rounds,
		Adapt:    &scenario.AdaptSpec{Policy: "phish-escalation"},
		Params:   map[string]any{"days": 10},
	}
	norm, err := scenario.Normalize(spec)
	if err != nil {
		return nil, err
	}
	// Warm-up run, also recording the policy decisions the manual side
	// replays — so both sides execute the identical Monte Carlo work.
	recorded, err := scenario.Run(ctx, norm)
	if err != nil {
		return nil, err
	}
	// The overhead being measured is small relative to timer and scheduler
	// noise, so each repeat times the two sides back to back — adjacent
	// pairing cancels whole-process drift (GC cycles, a noisy neighbor) —
	// and the reported overhead is the median of the per-pair ratios; spec
	// materialization stays inside the timed loop on both sides (the
	// episode loop pays it per round too).
	if repeats < 5 {
		repeats = 5
	}
	var episodeBest, manualBest time.Duration
	overheads := make([]float64, 0, repeats)
	for i := 0; i < repeats; i++ {
		start := time.Now()
		if _, err := scenario.Run(ctx, norm); err != nil {
			return nil, err
		}
		ep := time.Since(start)
		if episodeBest == 0 || ep < episodeBest {
			episodeBest = ep
		}
		start = time.Now()
		for r, sum := range recorded.Rounds {
			rspec, err := scenario.RoundSpec(norm, r, sum.Params)
			if err != nil {
				return nil, err
			}
			if _, err := scenario.Run(ctx, rspec); err != nil {
				return nil, err
			}
		}
		man := time.Since(start)
		if manualBest == 0 || man < manualBest {
			manualBest = man
		}
		if man > 0 {
			overheads = append(overheads, (ep.Seconds()-man.Seconds())/man.Seconds()*100)
		}
	}
	sort.Float64s(overheads)
	out := &episodeResult{
		Rounds:         rounds,
		SubjectsPerRun: n,
		EpisodeSeconds: episodeBest.Seconds(),
		ManualSeconds:  manualBest.Seconds(),
	}
	if len(overheads) > 0 {
		out.OverheadPct = overheads[len(overheads)/2]
	}
	return out, nil
}

// loadBaseline reads a previous report, dropping its own nested baseline so
// the chain never grows beyond one level.
func loadBaseline(path string) (*report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	rep.Baseline = nil
	return &rep, nil
}

// engineKey normalizes a result's engine for baseline matching: reports
// from before the compiled path existed carry no engine field, and every
// measurement back then was the interpreted walk.
func engineKey(e string) string {
	if e == "" {
		return sim.EngineInterpreted
	}
	return e
}

// printDiff writes a per-configuration old-vs-new comparison to stderr.
func printDiff(old, cur *report) {
	index := func(r *report) map[[3]any]result {
		m := map[[3]any]result{}
		for _, res := range r.Results {
			m[[3]any{engineKey(res.Engine), res.Workers, res.Trace}] = res
		}
		return m
	}
	oldIdx := index(old)
	fmt.Fprintf(os.Stderr, "hitl-bench: diff vs baseline (go %s, GOMAXPROCS %d)\n",
		old.GoVersion, old.GOMAXPROCS)
	for _, res := range cur.Results {
		prev, ok := oldIdx[[3]any{engineKey(res.Engine), res.Workers, res.Trace}]
		if !ok {
			fmt.Fprintf(os.Stderr, "  engine=%s workers=%d trace=%v: no baseline entry\n",
				engineKey(res.Engine), res.Workers, res.Trace)
			continue
		}
		pct := func(nw, ol float64) float64 {
			if ol == 0 {
				return 0
			}
			return (nw - ol) / ol * 100
		}
		allocDelta := "no baseline"
		if prev.AllocsPerOp > 0 {
			allocDelta = fmt.Sprintf("%+6.1f%%", pct(float64(res.AllocsPerOp), float64(prev.AllocsPerOp)))
		}
		fmt.Fprintf(os.Stderr,
			"  engine=%-11s workers=%d trace=%-5v  subjects/s %12.0f -> %12.0f (%+6.1f%%)  allocs/op %9d -> %9d (%s)\n",
			engineKey(res.Engine), res.Workers, res.Trace,
			prev.SubjectsPerSec, res.SubjectsPerSec, pct(res.SubjectsPerSec, prev.SubjectsPerSec),
			prev.AllocsPerOp, res.AllocsPerOp, allocDelta)
	}
}

func main() {
	out := flag.String("out", "BENCH_sim.json", "output JSON file")
	n := flag.Int("n", 50_000, "subjects per run")
	runs := flag.Int("runs", 3, "repetitions per configuration (best is kept)")
	seed := flag.Int64("seed", 1, "seed")
	baselinePath := flag.String("baseline", "", "previous report to embed as the baseline")
	diff := flag.Bool("diff", false, "print a comparison against -baseline to stderr")
	check := flag.Bool("check", false, "exit nonzero when subjects/s regresses more than -max-regress percent vs -baseline")
	maxRegress := flag.Float64("max-regress", 15, "allowed subjects/s regression in percent (with -check)")
	maxEpisodeOverhead := flag.Float64("max-episode-overhead", 5, "allowed episode-loop overhead in percent vs a manual round sequence (with -check)")
	flag.Parse()

	var baseline *report
	if *baselinePath != "" {
		b, err := loadBaseline(*baselinePath)
		if err != nil {
			fatal(err)
		}
		baseline = b
	}
	if *check && baseline == nil {
		fatal(fmt.Errorf("-check requires -baseline"))
	}

	workerSet := []int{1, 4, runtime.GOMAXPROCS(0)}
	seen := map[int]bool{}
	rep := report{
		GoVersion:      runtime.Version(),
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		NumCPU:         runtime.NumCPU(),
		SubjectsPerRun: *n,
		RunsPerConfig:  *runs,
		Baseline:       baseline,
	}
	// The compiled Program is lowered once; every compiled configuration
	// reuses it (compilation is run setup, not per-subject work).
	prog, err := program()
	if err != nil {
		fatal(err)
	}
	// Each worker count measures interpreted trace-off/on plus the compiled
	// path (trace-off only: RunProgram offers nothing to a recorder).
	configs := []struct {
		engine string
		trace  bool
		prog   *sim.Program
	}{
		{sim.EngineInterpreted, false, nil},
		{sim.EngineInterpreted, true, nil},
		{sim.EngineCompiled, false, prog},
	}
	// Indexed lookup for the overhead computation below.
	secs := map[[2]bool]float64{} // key: {workers == GOMAXPROCS, trace}
	for _, w := range workerSet {
		if seen[w] {
			continue
		}
		seen[w] = true
		for _, c := range configs {
			d, allocs, bytesAlloc, err := bench(*seed, *n, w, *runs, c.trace, c.prog)
			if err != nil {
				fatal(err)
			}
			s := d.Seconds()
			rep.Results = append(rep.Results, result{
				Engine: c.engine, Workers: w, EffectiveWorkers: sim.EffectiveWorkers(w, *n), Trace: c.trace,
				Seconds:          s,
				SubjectsPerSec:   float64(*n) / s,
				AllocsPerOp:      allocs,
				BytesPerOp:       bytesAlloc,
				AllocsPerSubject: float64(allocs) / float64(*n),
			})
			fmt.Fprintf(os.Stderr, "hitl-bench: engine=%-11s workers=%d (effective %d) trace=%v  %8.3fs  %12.0f subjects/s  %9d allocs/op  %8.4f allocs/subject\n",
				c.engine, w, sim.EffectiveWorkers(w, *n), c.trace, s, float64(*n)/s, allocs, float64(allocs)/float64(*n))
			if w == runtime.GOMAXPROCS(0) && c.engine == sim.EngineInterpreted {
				secs[[2]bool{true, c.trace}] = s
			}
		}
	}
	if off, on := secs[[2]bool{true, false}], secs[[2]bool{true, true}]; off > 0 {
		rep.TraceOverheadPct = (on - off) / off * 100
	}

	// Multicore scaling: raise GOMAXPROCS to the hardware's core count so
	// the engine clamp allows real parallelism, and compare 1 worker against
	// NumCPU workers. On a single-core box this degenerates to speedup 1.0
	// (both configurations clamp to one worker); on multicore CI it records
	// the actual parallel speedup.
	prevProcs := runtime.GOMAXPROCS(runtime.NumCPU())
	var multiSecs [2]float64
	for i, w := range []int{1, runtime.NumCPU()} {
		d, _, _, err := bench(*seed, *n, w, *runs, false, nil)
		if err != nil {
			runtime.GOMAXPROCS(prevProcs)
			fatal(err)
		}
		s := d.Seconds()
		multiSecs[i] = s
		eff := sim.EffectiveWorkers(w, *n)
		rep.Multicore = append(rep.Multicore, multicoreResult{
			GOMAXPROCS: runtime.NumCPU(), Workers: w, EffectiveWorkers: eff,
			Seconds: s, SubjectsPerSec: float64(*n) / s,
		})
		fmt.Fprintf(os.Stderr, "hitl-bench: multicore GOMAXPROCS=%d workers=%d (effective %d)  %8.3fs  %12.0f subjects/s\n",
			runtime.NumCPU(), w, eff, s, float64(*n)/s)
	}
	runtime.GOMAXPROCS(prevProcs)
	if multiSecs[1] > 0 {
		rep.MulticoreSpeedup = multiSecs[0] / multiSecs[1]
	}
	fmt.Fprintf(os.Stderr, "hitl-bench: multicore speedup %.2fx on %d CPUs\n",
		rep.MulticoreSpeedup, runtime.NumCPU())

	// The server cache benchmark uses a smaller subject count: the cold
	// request establishes the full-run cost, the hits should be flat.
	cold, hit, err := benchServer(*seed, *n/10, *runs)
	if err != nil {
		fatal(err)
	}
	rep.Server = []serverResult{
		{Name: "experiments_run_cold", Seconds: cold.Seconds(), RequestsPerSec: 1 / cold.Seconds()},
		{Name: "experiments_run_cache_hit", Seconds: hit.Seconds(), RequestsPerSec: 1 / hit.Seconds()},
	}
	if hit > 0 {
		rep.ServerCacheSpeedup = cold.Seconds() / hit.Seconds()
	}
	fmt.Fprintf(os.Stderr, "hitl-bench: server cold %8.3fs, cache hit %.6fs (%.0fx)\n",
		cold.Seconds(), hit.Seconds(), rep.ServerCacheSpeedup)

	// Episode loop vs a manual round sequence: the per-round subject count
	// is reduced (rounds multiply the work), floored so tiny -n values
	// still measure something.
	epN := *n / 5
	if epN < 2000 {
		epN = 2000
	}
	episode, err := benchEpisode(*seed, epN, 4, *runs)
	if err != nil {
		fatal(err)
	}
	rep.Episode = episode
	fmt.Fprintf(os.Stderr, "hitl-bench: episode rounds=%d n=%d  %8.3fs vs manual %8.3fs (overhead %+.2f%%)\n",
		episode.Rounds, episode.SubjectsPerRun, episode.EpisodeSeconds, episode.ManualSeconds, episode.OverheadPct)

	if *diff {
		if baseline == nil {
			fatal(fmt.Errorf("-diff requires -baseline"))
		}
		printDiff(baseline, &rep)
	}

	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		f.Close()
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "hitl-bench: wrote %s (trace overhead %.2f%% at %d workers)\n",
		*out, rep.TraceOverheadPct, rep.GOMAXPROCS)

	if *check {
		// The episode gate is absolute, not baseline-relative: the round
		// loop must stay within -max-episode-overhead percent of running
		// the same rounds by hand, every commit.
		if rep.Episode != nil && rep.Episode.OverheadPct > *maxEpisodeOverhead {
			fatal(fmt.Errorf("episode loop overhead %.2f%% exceeds the %.0f%% limit vs a manual round sequence",
				rep.Episode.OverheadPct, *maxEpisodeOverhead))
		}
		if bad := regressions(baseline, &rep, *maxRegress); len(bad) > 0 {
			for _, line := range bad {
				fmt.Fprintln(os.Stderr, "hitl-bench: REGRESSION:", line)
			}
			fatal(fmt.Errorf("%d configuration(s) regressed more than %.0f%% vs baseline", len(bad), *maxRegress))
		}
		fmt.Fprintf(os.Stderr, "hitl-bench: check passed (no configuration regressed more than %.0f%%)\n", *maxRegress)
	}
}

// regressions compares each current (engine, workers, trace)
// configuration against the baseline and describes every one whose
// subjects/s fell — or whose allocs/subject rose — more than maxRegress
// percent. The alloc rule carries a +0.05 absolute floor so the compiled
// path's near-zero counts don't trip the gate on measurement noise.
// Configurations absent from the baseline are skipped: a freshly added
// configuration has nothing to regress against.
func regressions(old, cur *report, maxRegress float64) []string {
	oldIdx := map[[3]any]result{}
	for _, res := range old.Results {
		oldIdx[[3]any{engineKey(res.Engine), res.Workers, res.Trace}] = res
	}
	var bad []string
	for _, res := range cur.Results {
		prev, ok := oldIdx[[3]any{engineKey(res.Engine), res.Workers, res.Trace}]
		if !ok || prev.SubjectsPerSec <= 0 {
			continue
		}
		drop := (prev.SubjectsPerSec - res.SubjectsPerSec) / prev.SubjectsPerSec * 100
		if drop > maxRegress {
			bad = append(bad, fmt.Sprintf(
				"engine=%s workers=%d trace=%v: %0.f -> %0.f subjects/s (-%.1f%%, limit %.0f%%)",
				engineKey(res.Engine), res.Workers, res.Trace,
				prev.SubjectsPerSec, res.SubjectsPerSec, drop, maxRegress))
		}
		// Allocation gate. Baselines from before allocs_per_subject was
		// recorded derive it from allocs/op over the baseline's run size.
		prevAPS := prev.AllocsPerSubject
		if prevAPS == 0 && prev.AllocsPerOp > 0 && old.SubjectsPerRun > 0 {
			prevAPS = float64(prev.AllocsPerOp) / float64(old.SubjectsPerRun)
		}
		if prevAPS > 0 || prev.AllocsPerOp > 0 {
			if limit := prevAPS*(1+maxRegress/100) + 0.05; res.AllocsPerSubject > limit {
				bad = append(bad, fmt.Sprintf(
					"engine=%s workers=%d trace=%v: %.4f -> %.4f allocs/subject (limit %.4f)",
					engineKey(res.Engine), res.Workers, res.Trace,
					prevAPS, res.AllocsPerSubject, limit))
			}
		}
	}
	return bad
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hitl-bench:", err)
	os.Exit(1)
}
