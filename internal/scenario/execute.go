package scenario

import (
	"context"

	"hitl/internal/faults"
	"hitl/internal/report"
	"hitl/internal/sim"
	"hitl/internal/telemetry"
)

// Execution is the one seam every front door runs through — the sync,
// cluster-shard and cluster-run handlers, the job manager, and both CLIs.
// A door decodes its request, normalizes and digests the spec once, and
// hands both to Execute with the attachments the request asked for;
// Execute wires them into the context, runs the spec, and builds the run
// report from the run's own collector. Doors then only encode what comes
// back.

// Options are the per-run attachments a front door can ask for. The zero
// value runs the spec bare: no faults, no traces, no spans, no report.
type Options struct {
	// Faults, when non-empty, perturbs every engine run deterministically.
	Faults *faults.Set
	// TraceSample > 0 samples that many subject traces, salted by the run
	// seed.
	TraceSample int
	// Spans records the run's span tree (and so feeds
	// hitl_span_duration_seconds).
	Spans bool
	// Report collects one EngineReport per engine run and assembles them
	// into Execution.Report.
	Report bool
	// Observe, when non-nil, receives each sweep step's or round's points
	// as they complete (see Observer).
	Observe Observer
	// Dispatch, when non-nil, runs each round-free normalized spec in place
	// of the local engine: the whole run, sweep included, or one round of
	// an episode, whose loop stays here. digest is Digest(norm). Faults and
	// TraceSample attach to the local engine and so do not reach a
	// dispatched run; Observe fires per episode round but never inside a
	// dispatched spec.
	Dispatch func(ctx context.Context, norm Spec, digest string) (*Result, error)
}

// Execution is what a run hands back to its front door.
type Execution struct {
	// Result is the run's output; nil when the run failed.
	Result *Result
	// Recorder holds the sampled subject traces; nil unless
	// Options.TraceSample > 0.
	Recorder *telemetry.Recorder
	// Tracer holds the span tree; nil unless Options.Spans.
	Tracer *telemetry.Tracer
	// Report is the full-fidelity run report; nil unless Options.Report,
	// and set by Finish (Execute calls it). A failed run still carries
	// one: its per-run errors and flags explain the failure.
	Report *report.RunReport

	faults *faults.Set
	col    *sim.ReportCollector
}

// Attach wires opts into ctx — fault injector, trace recorder salted with
// seed, span tracer, report collector, each only when asked for — and
// returns the Execution that collects them. Execute calls it for specs;
// runs that are not a spec (the experiment suite) call it directly, run,
// and then Finish.
func Attach(ctx context.Context, seed int64, opts Options) (context.Context, *Execution) {
	ex := &Execution{}
	if !opts.Faults.Empty() {
		ex.faults = opts.Faults
		ctx = sim.WithInjector(ctx, opts.Faults)
	}
	if opts.TraceSample > 0 {
		ex.Recorder = telemetry.NewRecorder(opts.TraceSample, seed)
		ctx = telemetry.WithRecorder(ctx, ex.Recorder)
	}
	if opts.Spans {
		ex.Tracer = telemetry.NewTracer(nil)
		ctx = telemetry.WithTracer(ctx, ex.Tracer)
	}
	if opts.Report {
		ex.col = sim.NewReportCollector()
		ctx = sim.WithReportCollector(ctx, ex.col)
	}
	return ctx, ex
}

// Finish builds Report from the engine runs this execution's collector
// gathered plus the fired fault-rule counts, and returns it. Every count
// in it belongs to this run alone, however many other runs share the
// process. It returns nil when no report was asked for.
func (ex *Execution) Finish() *report.RunReport {
	if ex.col == nil {
		return nil
	}
	rep := report.FromEngine(ex.col.Reports())
	if ex.faults != nil {
		rep.FaultSpec = ex.faults.String()
		for _, st := range ex.faults.Stats() {
			rep.FaultRules = append(rep.FaultRules, report.FaultRule{Rule: st.Rule, Fired: st.Fired})
		}
	}
	ex.Report = &rep
	return ex.Report
}

// Execute runs a normalized spec under opts. digest must be Digest(norm):
// the door computes it once at decode, and Execute reuses it for the
// engine's run tag and the report instead of normalizing again. The
// returned Execution is never nil; on error its Result is nil but its
// Report, when asked for, still describes the failed run.
func Execute(ctx context.Context, norm Spec, digest string, opts Options) (*Execution, error) {
	ctx, ex := Attach(ctx, norm.Seed, opts)
	res, err := run(ctx, norm, digest, opts)
	ex.Result = res
	if rep := ex.Finish(); rep != nil {
		describe(rep, norm, digest, res)
	}
	return ex, err
}

// describe fills a report's spec-level identity, which the engine
// collector cannot see: scenario, digest, seed and subject count, plus —
// for a finished run — the scenario-level engine path (analytic and
// dispatched runs execute no local engine run at all) and the episode's
// rounds.
func describe(rep *report.RunReport, norm Spec, digest string, res *Result) {
	rep.Scenario = norm.Scenario
	rep.SpecDigest = digest
	rep.Seed = norm.Seed
	rep.N = norm.N
	if res == nil {
		return
	}
	rep.EnginePath = res.EnginePath
	if len(res.Rounds) > 0 {
		rep.Rounds = make([]report.RoundReport, len(res.Rounds))
		for i, r := range res.Rounds {
			rep.Rounds[i] = report.RoundReport{
				Round:      r.Round,
				Seed:       r.Seed,
				Params:     r.Params,
				Values:     r.Values,
				EnginePath: r.EnginePath,
			}
		}
	}
}
