// Package sim is the Monte Carlo engine behind every experiment: it runs N
// simulated subjects through a scenario function, each with an independent,
// deterministically-derived random stream, optionally across worker
// goroutines, and aggregates outcomes into rates, stage-failure histograms,
// and named metric summaries.
//
// Determinism: subject i's stream is seeded with splitmix64(seed, i), so
// results are bit-identical for a given seed regardless of worker count or
// scheduling. Virtual time is explicit (days as float64); nothing reads the
// wall clock.
package sim

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hitl/internal/agent"
	"hitl/internal/gems"
	"hitl/internal/stats"
	"hitl/internal/telemetry"
)

// Outcome is what one simulated subject produced.
type Outcome struct {
	// Heeded reports whether the subject performed the desired security
	// behavior (scenario-defined).
	Heeded bool
	// FailedStage is the framework stage at which the subject failed;
	// agent.StageNone for heeded subjects.
	FailedStage agent.Stage
	// ErrorClass is the GEMS class for behavior-stage events.
	ErrorClass gems.ErrorClass
	// Spoofed and HeuristicPath carry through the agent flags.
	Spoofed       bool
	HeuristicPath bool
	// Obs holds scenario-specific observations (e.g. the passwords the
	// subject reused), slot k naming Runner.Keys[k].
	Obs Obs
	// Trace is the subject's stage-by-stage pipeline trajectory, carried
	// through from agent.Result so telemetry can sample it. Copying it is a
	// slice-header copy: the checks were already allocated by the agent.
	// Scenarios that synthesize outcomes from multiple encounters may leave
	// it nil.
	Trace []agent.Check
}

// NumSlots is how many observations an Outcome carries, and so how many
// keys a Runner may name.
const NumSlots = 5

// badSlot marks an Obs asked to record a slot outside [0, NumSlots).
const badSlot = 1 << 7

// Obs is one subject's observations, in fixed slots: slot k records the
// run's Keys[k], and a slot never Set is absent, not zero. The slots are
// fields rather than an array because Go's register ABI passes no array
// longer than one element in registers; with five floats and a one-byte
// mask, an Outcome still passes between functions in registers.
type Obs struct {
	s0, s1, s2, s3, s4 float64
	// mask has bit k set for each slot recorded, and badSlot for a slot
	// outside [0, NumSlots).
	mask uint8
}

// Set records v in slot k. A slot at or past len(Runner.Keys) fails the
// run with an error.
func (o *Obs) Set(k int, v float64) {
	switch k {
	case 0:
		o.s0 = v
	case 1:
		o.s1 = v
	case 2:
		o.s2 = v
	case 3:
		o.s3 = v
	case 4:
		o.s4 = v
	default:
		o.mask |= badSlot
		return
	}
	o.mask |= 1 << k
}

// FromAgentResult converts an agent pipeline result into an Outcome.
func FromAgentResult(r agent.Result) Outcome {
	return Outcome{
		Heeded:        r.Heeded,
		FailedStage:   r.FailedStage,
		ErrorClass:    r.ErrorClass,
		Spoofed:       r.Spoofed,
		HeuristicPath: r.HeuristicPath,
		Trace:         r.Trace,
	}
}

// subjectTrace converts a completed subject's outcome into a telemetry
// trace. Only called when a recorder is attached, so untraced runs never
// pay for the conversion.
func subjectTrace(seed int64, subject int, o Outcome) telemetry.SubjectTrace {
	st := telemetry.SubjectTrace{
		Subject:       subject,
		Seed:          seed,
		Heeded:        o.Heeded,
		HeuristicPath: o.HeuristicPath,
		Spoofed:       o.Spoofed,
	}
	if !o.Heeded {
		st.FailedStage = o.FailedStage.String()
	}
	if o.ErrorClass != gems.NoError {
		st.ErrorClass = o.ErrorClass.String()
	}
	if len(o.Trace) > 0 {
		st.Checks = make([]telemetry.StageCheck, len(o.Trace))
		for i, c := range o.Trace {
			st.Checks[i] = telemetry.StageCheck{
				Stage:  c.Stage.String(),
				P:      c.P,
				Passed: c.Passed,
				Note:   c.Note,
			}
		}
	}
	return st
}

// SubjectFunc simulates one subject. The rng is private to the subject;
// subject indexes run 0..N-1.
type SubjectFunc func(rng *rand.Rand, subject int) (Outcome, error)

// Result aggregates a run.
type Result struct {
	// N is the number of subjects the run was configured for.
	N int
	// Completed is the number of subjects actually simulated and
	// aggregated. It equals N for a run that finished; it is smaller only
	// for the partial result of a canceled or timed-out run under
	// Runner.AllowPartial. Heed.Trials always equals Completed.
	Completed int
	// Heed is the heed/compliance proportion.
	Heed stats.Proportion
	// StageFailures counts failures by framework stage.
	StageFailures map[agent.Stage]int
	// ErrorClasses counts behavior-stage GEMS classes among all subjects.
	ErrorClasses map[gems.ErrorClass]int
	// Spoofed and Heuristic count subjects with those flags.
	Spoofed   int
	Heuristic int
	// Values holds every observation of each named metric, in subject
	// order.
	Values map[string][]float64
}

// HeedRate is the fraction of subjects who heeded.
func (r *Result) HeedRate() float64 { return r.Heed.Rate() }

// FailureShare returns the fraction of *failures* attributed to the stage
// (0 if there were no failures). Failures are counted over the subjects
// that completed, so partial results stay internally consistent.
func (r *Result) FailureShare(s agent.Stage) float64 {
	failures := r.Heed.Trials - r.Heed.Successes
	if failures == 0 {
		return 0
	}
	return float64(r.StageFailures[s]) / float64(failures)
}

// TopFailureStage returns the stage with the most failures and its count.
// The boolean is false when there were no failures.
func (r *Result) TopFailureStage() (agent.Stage, int, bool) {
	best := agent.StageNone
	bestN := 0
	for _, s := range agent.Stages() {
		if n := r.StageFailures[s]; n > bestN {
			best, bestN = s, n
		}
	}
	return best, bestN, bestN > 0
}

// MeanValue returns the mean and 95% CI half-width of a named metric.
// It returns an error when the metric was never recorded.
func (r *Result) MeanValue(key string) (mean, half float64, err error) {
	xs, ok := r.Values[key]
	if !ok || len(xs) == 0 {
		return 0, 0, fmt.Errorf("sim: metric %q not recorded", key)
	}
	mean, half = stats.MeanCI(xs)
	return mean, half, nil
}

// splitmix64 derives a well-mixed per-subject seed from (seed, i).
func splitmix64(seed int64, i int) int64 {
	z := uint64(seed) + uint64(i)*0x9E3779B97F4A7C15 + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// SubjectRand returns the deterministic random stream for subject i of a
// run seeded with seed. Exposed so scenarios can pre-sample population
// profiles consistently with Run. The stream is bit-identical to
// rand.New(rand.NewSource(splitmix64(seed, i))) but seeds in O(1) (see
// rngSource).
func SubjectRand(seed int64, i int) *rand.Rand {
	src := &rngSource{}
	src.Seed(splitmix64(seed, i))
	return rand.New(src)
}

// EffectiveWorkers resolves a requested worker count to the parallelism a
// run will actually use: 0 (or negative) means GOMAXPROCS, and the result
// is clamped to both GOMAXPROCS and N. The GOMAXPROCS clamp matters: the
// subjects are pure CPU work, so goroutines beyond the scheduler's
// parallelism only add shard contention and context switches —
// BENCH_sim.json showed workers=4 ~19% slower than workers=1 under
// GOMAXPROCS=1 before the clamp. Run records the clamped value in its span
// and in hitl_sim_last_run_workers, and results are bit-identical at any
// requested worker count either way.
func EffectiveWorkers(workers, n int) int {
	if max := runtime.GOMAXPROCS(0); workers <= 0 || workers > max {
		workers = max
	}
	if n >= 1 && workers > n {
		workers = n
	}
	return workers
}

// Runner configures a Monte Carlo run.
type Runner struct {
	// Seed is the master seed; subject streams derive from it.
	Seed int64
	// N is the number of subjects.
	N int
	// Keys names the observation slots: slot k of each Outcome.Obs is an
	// observation of Keys[k], and Result.Values collects it under that
	// name. At most NumSlots keys, none named twice. A subject that
	// records a slot at or past len(Keys) fails the run.
	Keys []string
	// Workers is the parallelism; 0 means GOMAXPROCS, and any request is
	// clamped to GOMAXPROCS (see EffectiveWorkers) — extra goroutines
	// cannot add parallelism, only scheduler overhead. Results are
	// deterministic regardless of Workers.
	Workers int
	// SweepWorkers is how many sweep points Sweep runs concurrently;
	// 0 or 1 means serial. Each point's subject parallelism is divided
	// down so the total number of subject goroutines stays at most the
	// resolved Workers. Points are independently seeded, so sweep results
	// are bit-identical regardless of SweepWorkers.
	SweepWorkers int
	// SweepLabeler, when non-nil, formats SweepPoint.Label during Sweep;
	// the default label is fmt.Sprintf("%g", param).
	SweepLabeler func(param float64) string
	// Timeout, when positive, bounds each Run call's wall time. An expired
	// run is canceled exactly like a caller deadline and returns an error
	// wrapping context.DeadlineExceeded (or a partial result under
	// AllowPartial). During a Sweep every point gets the full budget.
	Timeout time.Duration
	// AllowPartial opts into keeping finished work when a run is canceled
	// or times out: instead of discarding the aggregation, Run returns the
	// subjects completed so far (Result.Completed < N, Heed.Trials ==
	// Completed) alongside the cancellation error. Subject errors and
	// contained panics remain fatal regardless.
	AllowPartial bool
	// Tag, when set, is attached to the subject loop's pprof labels
	// (hitl_tag) alongside the engine path and phase, so CPU profiles can
	// attribute samples to a specific run — callers put the spec digest or
	// scenario name here. An empty Tag falls back to the tag attached to
	// the run's context (WithRunTag). It does not affect results.
	Tag string
}

type runTagKey struct{}

// WithRunTag attaches a pprof run tag to the context: every engine run
// under it labels its subject-loop CPU samples hitl_tag=tag (unless the
// Runner sets its own Tag). The scenario layer puts the canonical spec
// digest here, so profiles attribute samples to specific runs even when
// the Runner is constructed deep inside a domain package.
func WithRunTag(ctx context.Context, tag string) context.Context {
	if tag == "" {
		return ctx
	}
	return context.WithValue(ctx, runTagKey{}, tag)
}

// RunTagFromContext returns the tag attached with WithRunTag, or "".
func RunTagFromContext(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	tag, _ := ctx.Value(runTagKey{}).(string)
	return tag
}

// shard is one worker's partial aggregation. Workers fold each completed
// subject into their own shard, so the post-run reduce only merges
// len(workers) shards instead of walking an N-sized outcome slice.
type shard struct {
	completed     int
	heedSuccesses int
	spoofed       int
	heuristic     int
	stageFailures map[agent.Stage]int
	errorClasses  map[gems.ErrorClass]int

	err        error
	errSubject int
}

func (sh *shard) add(o *Outcome) {
	sh.completed++
	if o.Heeded {
		sh.heedSuccesses++
	} else {
		if sh.stageFailures == nil {
			sh.stageFailures = make(map[agent.Stage]int)
		}
		sh.stageFailures[o.FailedStage]++
	}
	if sh.errorClasses == nil {
		sh.errorClasses = make(map[gems.ErrorClass]int)
	}
	sh.errorClasses[o.ErrorClass]++
	if o.Spoofed {
		sh.spoofed++
	}
	if o.HeuristicPath {
		sh.heuristic++
	}
}

// columns are a run's observations: per key, one column of N values
// indexed by the local subject index (a shard run's subject i is global
// subject offset+i), and per subject the mask of the slots it recorded.
// Workers own disjoint subjects, so they write without a lock; the run's
// wg.Wait orders every write before the merge.
type columns struct {
	vals    [][]float64
	present []uint8
}

// newColumns allocates a run's columns for keys over n subjects, once per
// run; nothing without keys.
func newColumns(keys []string, n int) columns {
	if len(keys) == 0 {
		return columns{}
	}
	block := make([]float64, len(keys)*n)
	c := columns{vals: make([][]float64, len(keys)), present: make([]uint8, n)}
	for k := range c.vals {
		c.vals[k] = block[k*n : (k+1)*n : (k+1)*n]
	}
	return c
}

// put writes the slots o recorded into subject i's row. The run has
// checked o's mask against its keys, so no bit names a missing column.
func (c columns) put(i int, o *Obs) {
	c.present[i] = o.mask
	v := [NumSlots]float64{o.s0, o.s1, o.s2, o.s3, o.s4}
	for k, col := range c.vals {
		if o.mask&(1<<k) != 0 {
			col[i] = v[k]
		}
	}
}

// values returns each key's observations in subject order, the form of
// Result.Values. A column every subject recorded is used as it is;
// otherwise — a key some subject skipped, or a partial run — the column
// is compacted in place to the subjects that recorded it. A key no
// subject recorded stays absent.
func (c columns) values(keys []string) map[string][]float64 {
	out := make(map[string][]float64, len(keys))
	for k, key := range keys {
		col, bit, j := c.vals[k], uint8(1)<<k, 0
		for i, m := range c.present {
			if m&bit != 0 {
				col[j] = col[i]
				j++
			}
		}
		if j > 0 {
			out[key] = col[:j:j]
		}
	}
	return out
}

// runSubject executes one subject under panic containment and stores its
// outcome in *out. A panic in the scenario function — or in an injected
// fault — is recovered into a typed *PanicError carrying the subject index
// and stack, so one poisoned subject fails the run instead of crashing the
// process. The injector, if any, runs Before ahead of the scenario (it may
// panic or sleep) and Perturb on a successful outcome (it may rewrite it
// in place). The deferred containPanic is a named function with
// pre-evaluated arguments — not a closure — so the defer stays open-coded
// and allocation-free on the per-subject hot path. The outcome leaves
// through a pointer rather than a result: an Outcome is larger than the
// compiler copies inline, so every value hand-off would cost a
// runtime.duffcopy per subject.
func runSubject(out *Outcome, f SubjectFunc, inj Injector, seed int64, rng *rand.Rand, i int) (err error) {
	defer containPanic(i, &err)
	if inj != nil {
		inj.Before(seed, i)
	}
	*out, err = f(rng, i)
	if err == nil && inj != nil {
		*out = inj.Perturb(seed, i, *out)
	}
	return err
}

// containPanic converts a recovered panic into a *PanicError through the
// caller's named error result.
func containPanic(subject int, err *error) {
	if v := recover(); v != nil {
		telemetry.RecordPanicRecovered()
		telemetry.Flight.Record(telemetry.EventPanicRecovered, "subject "+strconv.Itoa(subject))
		*err = &PanicError{Subject: subject, Value: v, Stack: debug.Stack()}
	}
}

// aggregate merges the worker shards and the run's observation columns
// into a Result. completed is the total subject count folded into the
// shards; for a finished run it equals ru.N.
func (ru Runner) aggregate(shards []shard, obs columns, completed int) *Result {
	res := &Result{
		N:             ru.N,
		Completed:     completed,
		StageFailures: make(map[agent.Stage]int),
		ErrorClasses:  make(map[gems.ErrorClass]int),
		Values:        obs.values(ru.Keys),
	}
	res.Heed.Trials = completed
	for w := range shards {
		sh := &shards[w]
		res.Heed.Successes += sh.heedSuccesses
		res.Spoofed += sh.spoofed
		res.Heuristic += sh.heuristic
		for s, n := range sh.stageFailures {
			res.StageFailures[s] += n
		}
		for c, n := range sh.errorClasses {
			res.ErrorClasses[c] += n
		}
	}
	return res
}

// Run executes f for every subject and aggregates the outcomes.
//
// Run honors ctx: each worker checks for cancellation before starting the
// next subject, so an in-flight run stops within one subject per worker of
// the cancel and returns ctx.Err() (use errors.Is with context.Canceled or
// context.DeadlineExceeded to distinguish abandonment from real failures).
// Runner.Timeout adds a per-run deadline with the same semantics. The first
// subject error likewise cancels the remaining work — a fatal failure does
// not let the other workers churn through all N subjects. A panicking
// subject is contained: the run fails with a *PanicError (lowest panicking
// subject wins) instead of taking the process down. Under AllowPartial a
// canceled or timed-out run returns the partial aggregation alongside the
// error instead of discarding finished work. A nil ctx is treated as
// context.Background().
//
// Fault injection: when ctx carries an Injector (WithInjector), it runs
// around every subject, interpreted or compiled; injectors are
// deterministic in (seed, subject), so faulted runs keep the
// bit-identical-at-any-worker-count guarantee.
//
// Telemetry: when ctx carries a telemetry.Tracer, Run opens a "run" span
// with per-worker "worker-batch" children; when it carries a
// telemetry.Recorder, every completed subject's stage trajectory is offered
// to the reservoir. When it carries a *ReportCollector (WithReportCollector),
// the run appends a structured EngineReport — phase wall times, stage
// attribution, and how it ended — on every exit path. All three are read
// once per run and short-circuit to nothing when absent, and none touches
// the subject random streams: a traced or reported run returns a
// bit-identical Result to a bare one. Engine-level counters
// and histograms (subjects, stage failures, run duration, throughput) are
// always recorded; they cost a handful of atomic adds per run.
func (ru Runner) Run(ctx context.Context, f SubjectFunc) (*Result, error) {
	return ru.run(ctx, f, EngineInterpreted)
}

// run is the engine shared by the interpreted (Run) and compiled
// (RunProgram) paths. path names the engine path for pprof labels and the
// EngineReport. Subject streams, scheduling, containment, and aggregation
// are identical for both paths.
func (ru Runner) run(ctx context.Context, f SubjectFunc, path string) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if ru.N < 1 {
		return nil, fmt.Errorf("sim: need N >= 1 subjects, got %d", ru.N)
	}
	if f == nil {
		return nil, fmt.Errorf("sim: nil subject function")
	}
	if len(ru.Keys) > NumSlots {
		return nil, fmt.Errorf("sim: %d observation keys, but an outcome has %d slots", len(ru.Keys), NumSlots)
	}
	for k, key := range ru.Keys {
		if slices.Contains(ru.Keys[:k], key) {
			return nil, fmt.Errorf("sim: observation key %q named twice", key)
		}
	}
	workers := EffectiveWorkers(ru.Workers, ru.N)

	spanCtx, span := telemetry.StartSpan(ctx, "run",
		telemetry.String("n", strconv.Itoa(ru.N)),
		telemetry.String("workers", strconv.Itoa(workers)),
		telemetry.String("seed", strconv.FormatInt(ru.Seed, 10)))
	defer span.End()
	// Only interpreted subjects carry a stage trace to offer; compiled runs
	// are sampled by replay (SampleTraces).
	var rec *telemetry.Recorder
	if path == EngineInterpreted {
		rec = telemetry.RecorderFromContext(ctx)
	}
	inj := InjectorFromContext(ctx)
	col := ReportCollectorFromContext(ctx)
	// A shard run simulates global subjects [offset, offset+N): streams,
	// fault decisions, and sampling identities all use the global index, so
	// the run is exactly the restriction of the full run to that subrange
	// (see WithSubjectOffset and MergeResults).
	offset := SubjectOffsetFromContext(ctx)
	start := time.Now()

	// deadlineCtx layers the per-run deadline (Runner.Timeout) over the
	// caller's context; runCtx additionally lets the first subject error
	// cancel the remaining work without affecting either.
	deadlineCtx := spanCtx
	if ru.Timeout > 0 {
		var cancelDeadline context.CancelFunc
		deadlineCtx, cancelDeadline = context.WithTimeout(spanCtx, ru.Timeout)
		defer cancelDeadline()
	}
	runCtx, cancel := context.WithCancel(deadlineCtx)
	defer cancel()

	shards := make([]shard, workers)
	obs := newColumns(ru.Keys, ru.N)
	// keyMask has a bit per named slot; an outcome recording any other
	// slot fails the run.
	keyMask := uint8(1)<<len(ru.Keys) - 1
	var wg sync.WaitGroup
	// Workers claim subject indices from a shared atomic counter — the
	// cheapest work queue there is. Cancellation (caller's ctx or a fatal
	// subject error) is checked before every claim, so an aborted run stops
	// within one subject per worker.
	var nextSubject atomic.Int64
	// pprof labels attribute subject-loop CPU samples to this run's engine
	// path and tag. Label sets are per-goroutine state, so each worker
	// applies them once around its whole batch — per-run cost, not
	// per-subject.
	tag := ru.Tag
	if tag == "" {
		tag = RunTagFromContext(ctx)
	}
	labels := pprof.Labels("hitl_engine", path, "hitl_phase", "subjects", "hitl_tag", tag)
	setupEnd := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pprof.Do(runCtx, labels, func(context.Context) {
				telemetry.WorkerStarted()
				defer telemetry.WorkerDone()
				_, wspan := telemetry.StartSpan(runCtx, "worker-batch",
					telemetry.String("worker", strconv.Itoa(w)))
				processed := 0
				defer func() {
					wspan.SetAttr("subjects", strconv.Itoa(processed))
					wspan.End()
				}()
				sh := &shards[w]
				// One reseedable generator per worker, from a pool shared
				// across runs: Seed re-derives the exact stream SubjectRand
				// would return for the subject, whatever the generator ran
				// before, without allocating a source per subject or run.
				st := subjectStreams.Get().(*subjectStream)
				defer subjectStreams.Put(st)
				// runSubject overwrites out whole for every subject.
				var out Outcome
				for {
					if runCtx.Err() != nil {
						return
					}
					i := int(nextSubject.Add(1)) - 1
					if i >= ru.N {
						return
					}
					// g is the subject's global index; it equals i except in
					// shard runs, where the whole range shifts by the offset.
					g := offset + i
					st.src.Seed(splitmix64(ru.Seed, g))
					err := runSubject(&out, f, inj, ru.Seed, st.rng, g)
					if err == nil && out.Obs.mask&^keyMask != 0 {
						err = fmt.Errorf("recorded an observation slot outside the runner's %d keys", len(ru.Keys))
					}
					if err != nil {
						sh.err = err
						sh.errSubject = g
						cancel() // fatal: stop the other workers promptly
						return
					}
					sh.add(&out)
					if out.Obs.mask != 0 {
						// Rows are local: a shard run's columns hold its N
						// subjects from row 0, whatever its offset.
						obs.put(i, &out.Obs)
					}
					processed++
					if rec != nil {
						// Consider defers the Outcome->SubjectTrace conversion
						// to the rare subjects that win a reservoir slot.
						rec.Consider(ru.Seed, g, func() telemetry.SubjectTrace {
							return subjectTrace(ru.Seed, g, out)
						})
					}
				}
			})
		}(w)
	}
	wg.Wait()
	computeEnd := time.Now()
	// phases is only consulted when a report collector is attached; the
	// two extra time.Now reads above are per-run, not per-subject.
	phases := PhaseTimes{
		SetupSeconds:   setupEnd.Sub(start).Seconds(),
		ComputeSeconds: computeEnd.Sub(setupEnd).Seconds(),
	}
	// Report the failure with the lowest subject index, as the old
	// subject-indexed error slice did. Contained panics arrive here as
	// *PanicError and win or lose by the same subject-order rule. Subject
	// errors are always fatal — even under AllowPartial, even if the
	// deadline also expired — because they signal a scenario bug, not an
	// abandoned run.
	var subjectErr error
	errSubject := -1
	for w := range shards {
		if sh := &shards[w]; sh.err != nil && (errSubject < 0 || sh.errSubject < errSubject) {
			subjectErr, errSubject = sh.err, sh.errSubject
		}
	}
	if subjectErr != nil {
		span.SetAttr("outcome", "error")
		var pe *PanicError
		if errors.As(subjectErr, &pe) {
			// Already self-describing (subject index and panic value); keep
			// the typed error at the top so errors.As finds it directly.
			if col != nil {
				col.add(ru.engineReport(path, workers, phases, nil, subjectErr))
			}
			return nil, subjectErr
		}
		err := fmt.Errorf("sim: subject %d: %w", errSubject, subjectErr)
		if col != nil {
			col.add(ru.engineReport(path, workers, phases, nil, err))
		}
		return nil, err
	}
	// Distinguish the remaining ways the run can end early. The caller's
	// ctx is checked first (abandonment beats everything), then the per-run
	// deadline; the internal cancel() after a subject error trips neither.
	cancelErr := ctx.Err()
	if cancelErr == nil && ru.Timeout > 0 {
		cancelErr = deadlineCtx.Err()
	}
	if cancelErr != nil {
		if !ru.AllowPartial {
			span.SetAttr("outcome", "canceled")
			if col != nil {
				col.add(ru.engineReport(path, workers, phases, nil, cancelErr))
			}
			return nil, cancelErr
		}
		completed := 0
		for w := range shards {
			completed += shards[w].completed
		}
		span.SetAttr("outcome", "partial")
		span.SetAttr("completed", strconv.Itoa(completed))
		mergeStart := time.Now()
		res := ru.aggregate(shards, obs, completed)
		phases.MergeSeconds = time.Since(mergeStart).Seconds()
		recordRun(res, workers, time.Since(start))
		if col != nil {
			col.add(ru.engineReport(path, workers, phases, res, cancelErr))
		}
		return res, cancelErr
	}

	mergeStart := time.Now()
	res := ru.aggregate(shards, obs, ru.N)
	phases.MergeSeconds = time.Since(mergeStart).Seconds()
	recordRun(res, workers, time.Since(start))
	if col != nil {
		col.add(ru.engineReport(path, workers, phases, res, nil))
	}
	return res, nil
}

// engineReport builds the collector entry for one finished or failed run.
// res is nil when the run produced no aggregation (fatal subject error, or
// cancellation without AllowPartial).
func (ru Runner) engineReport(path string, workers int, phases PhaseTimes, res *Result, runErr error) EngineReport {
	er := EngineReport{
		Path:             path,
		Seed:             ru.Seed,
		N:                ru.N,
		RequestedWorkers: ru.Workers,
		EffectiveWorkers: workers,
		Phases:           phases,
	}
	if res != nil {
		er.Completed = res.Completed
		er.Partial = res.Completed < res.N
		if len(res.StageFailures) > 0 {
			er.StageFailures = stageFailureNames(res)
		}
	}
	if runErr != nil {
		er.Error = runErr.Error()
		er.TimedOut = errors.Is(runErr, context.DeadlineExceeded)
		er.Canceled = errors.Is(runErr, context.Canceled)
		var pe *PanicError
		er.PanicRecovered = errors.As(runErr, &pe)
	}
	return er
}

// recordRun folds a finished (or partial) aggregation into the
// process-wide engine metrics.
func recordRun(res *Result, workers int, elapsed time.Duration) {
	telemetry.RecordRun(res.Completed, workers, elapsed, stageFailureNames(res))
}

// stageFailureNames renders the stage-failure histogram with string keys,
// the form both the engine metrics and run reports consume.
func stageFailureNames(res *Result) map[string]int {
	stageFailures := make(map[string]int, len(res.StageFailures))
	for s, n := range res.StageFailures {
		stageFailures[s.String()] = n
	}
	return stageFailures
}

// SweepPoint is one parameter setting's aggregated result.
type SweepPoint struct {
	// Param is the swept parameter value.
	Param float64
	// Label is an optional display label for the point.
	Label string
	// Result is the aggregated run at this setting.
	Result *Result
}

// Sweep runs the runner once per parameter value, building the scenario
// via build. Each point uses a distinct derived seed so points are
// independent but the whole sweep is reproducible. Point labels come from
// the runner's SweepLabeler, defaulting to fmt.Sprintf("%g", param).
// Cancellation via ctx aborts between subjects exactly as in Run; the
// error then wraps ctx.Err().
//
// When SweepWorkers > 1, up to that many points run concurrently, each
// with its subject parallelism divided down so the total goroutine count
// stays at most the resolved Workers. Because points are independently
// seeded and Run is deterministic for any worker count, the sweep result
// is bit-identical to a serial sweep; only wall-clock changes. The first
// failing point (lowest index) determines the returned error.
func (ru Runner) Sweep(ctx context.Context, params []float64, build func(param float64) SubjectFunc) ([]SweepPoint, error) {
	if len(params) == 0 {
		return nil, fmt.Errorf("sim: empty parameter sweep")
	}
	if build == nil {
		return nil, fmt.Errorf("sim: nil scenario constructor")
	}
	if ctx == nil {
		ctx = context.Background()
	}

	points := make([]SweepPoint, len(params))
	runPoint := func(ctx context.Context, i int, workers int) error {
		p := params[i]
		sub := ru
		sub.Seed = splitmix64(ru.Seed, 1_000_003+i)
		sub.Workers = workers
		pointCtx, span := telemetry.StartSpan(ctx, "sweep-point",
			telemetry.String("param", fmt.Sprintf("%g", p)))
		res, err := sub.Run(pointCtx, build(p))
		span.End()
		if err != nil {
			return fmt.Errorf("sim: sweep point %v: %w", p, err)
		}
		label := fmt.Sprintf("%g", p)
		if ru.SweepLabeler != nil {
			label = ru.SweepLabeler(p)
		}
		points[i] = SweepPoint{Param: p, Label: label, Result: res}
		return nil
	}

	maxWorkers := EffectiveWorkers(ru.Workers, 0)
	sweepWorkers := ru.SweepWorkers
	if sweepWorkers > len(params) {
		sweepWorkers = len(params)
	}
	if sweepWorkers > maxWorkers {
		sweepWorkers = maxWorkers
	}
	if sweepWorkers <= 1 {
		for i := range params {
			if err := runPoint(ctx, i, ru.Workers); err != nil {
				return nil, err
			}
		}
		return points, nil
	}

	perPoint := maxWorkers / sweepWorkers
	sweepCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, len(params))
	sem := make(chan struct{}, sweepWorkers)
	var wg sync.WaitGroup
	for i := range params {
		select {
		case sem <- struct{}{}:
		case <-sweepCtx.Done():
		}
		if sweepCtx.Err() != nil {
			break
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			if err := runPoint(sweepCtx, i, perPoint); err != nil {
				errs[i] = err
				cancel() // a failed point stops the remaining points promptly
			}
		}(i)
	}
	wg.Wait()
	// Prefer the lowest-index point that failed for a reason other than our
	// internal cancellation, mirroring the serial error order; fall back to
	// any error (e.g. the caller's ctx was canceled).
	var firstErr error
	for _, err := range errs {
		if err != nil && !errors.Is(err, context.Canceled) {
			firstErr = err
			break
		}
	}
	if firstErr == nil {
		for _, err := range errs {
			if err != nil {
				firstErr = err
				break
			}
		}
	}
	if firstErr == nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return points, nil
}

// SortedStages returns the stages observed in the result's failure
// histogram, in pipeline order: agent.Stages() already lists the stages in
// processing order, so filtering it preserves that order without a sort.
func (r *Result) SortedStages() []agent.Stage {
	var out []agent.Stage
	for _, s := range agent.Stages() {
		if r.StageFailures[s] > 0 {
			out = append(out, s)
		}
	}
	return out
}

// subjectStream is one reseedable subject stream. Engine workers and
// SampleTraces take them from a pool: a fresh ~5 KB source per worker per
// run, or per traced unit, would cost more than a short run's subjects.
type subjectStream struct {
	src rngSource
	rng *rand.Rand
}

var subjectStreams = sync.Pool{New: func() any {
	st := &subjectStream{}
	st.rng = rand.New(&st.src)
	return st
}}

// SampleTraces samples the subject traces of the run ru describes without
// running it: it offers subjects [offset, offset+N) — offset from
// WithSubjectOffset — to the telemetry.Recorder on ctx, and re-simulates
// each subject that wins a slot on the program's interpreted subject, from
// the subject's own stream, to build its trace; the Injector on ctx, if
// any, rewrites the replayed outcome as it rewrote the run's. Sampling
// priorities hash the subject's identity, never its outcome, so a
// compiled or analytic run samples exactly the traces an interpreted run
// of the same spec does, at the cost of at most the recorder's capacity
// in interpreted subjects. A replay is not a run: it ticks no run,
// subject or fault counter and adds no span or EngineReport. A replayed
// subject's error or contained panic fails the call, as a subject error
// fails a run. Without a recorder it does nothing.
func (ru Runner) SampleTraces(ctx context.Context, p *Program) error {
	rec := telemetry.RecorderFromContext(ctx)
	if rec == nil {
		return nil
	}
	if p == nil || p.Interpreted == nil {
		return fmt.Errorf("sim: program has no interpreted subject to replay")
	}
	inj := InjectorFromContext(ctx)
	st := subjectStreams.Get().(*subjectStream)
	defer subjectStreams.Put(st)
	return rec.ConsiderRange(ru.Seed, SubjectOffsetFromContext(ctx), ru.N, func(g int) (telemetry.SubjectTrace, error) {
		st.src.Seed(splitmix64(ru.Seed, g))
		var out Outcome
		err := runSubject(&out, p.Interpreted, nil, ru.Seed, st.rng, g)
		var pe *PanicError
		switch {
		case errors.As(err, &pe):
			return telemetry.SubjectTrace{}, err
		case err != nil:
			return telemetry.SubjectTrace{}, fmt.Errorf("sim: subject %d: %w", g, err)
		}
		if inj != nil {
			out = inj.Replay(ru.Seed, g, out)
		}
		return subjectTrace(ru.Seed, g, out), nil
	})
}
