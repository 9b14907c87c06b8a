// Command hitl-experiments regenerates every table and figure from the
// paper's reproduction index (DESIGN.md / EXPERIMENTS.md).
//
// Usage:
//
//	hitl-experiments [-seed N] [-n subjects] [-id T1,E1,...] [-list]
//	                 [-trace out.jsonl] [-trace-sample K] [-spans out.json]
//	                 [-faults spec]
//
// With no -id it runs the full suite in order. Output is plain text,
// suitable for diffing against EXPERIMENTS.md. -trace samples per-subject
// stage traces across every Monte Carlo run into a JSONL file; -spans dumps
// the experiment/sweep-point/run/worker-batch span tree as JSON. Neither
// changes the regenerated numbers. -faults applies a deterministic fault
// spec (see internal/faults) to every run — useful for chaos drills and
// sensitivity checks; faulted output no longer matches EXPERIMENTS.md.
// -report out.json writes a run report aggregated across every Monte Carlo
// run of the suite: phase wall times, per-stage failure attribution, and
// fired fault rules. A failed run still writes its report and -spans
// before exiting 1.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"hitl/internal/experiments"
	"hitl/internal/faults"
	"hitl/internal/scenario"
)

func main() {
	seed := flag.Int64("seed", 20080124, "master seed for every stochastic experiment")
	n := flag.Int("n", 0, "subjects per experimental arm (0 = per-experiment default)")
	ids := flag.String("id", "", "comma-separated experiment IDs to run (default: all)")
	list := flag.Bool("list", false, "list available experiments and exit")
	traceOut := flag.String("trace", "", "write sampled subject traces to this JSONL file")
	traceSample := flag.Int("trace-sample", 64, "subject traces to sample (with -trace)")
	spansOut := flag.String("spans", "", "write the telemetry span tree to this JSON file")
	faultSpec := flag.String("faults", "", "deterministic fault spec applied to every run (see internal/faults)")
	reportOut := flag.String("report", "", "write a full-fidelity run report (JSON) aggregated across every run to this file")
	flag.Parse()

	if *list {
		for _, r := range experiments.Registry() {
			fmt.Printf("%-4s %s\n", r.ID, r.Name)
		}
		return
	}

	// ^C / SIGTERM cancels in-flight Monte Carlo work instead of leaving it
	// to run to completion.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	faultSet, err := faults.Parse(*faultSpec)
	if err != nil {
		fatal(err)
	}
	if !faultSet.Empty() {
		fmt.Fprintf(os.Stderr, "hitl-experiments: fault injection active: %s\n", faultSet.Describe())
	}
	opts := scenario.Options{Faults: faultSet, Spans: *spansOut != "", Report: *reportOut != ""}
	if *traceOut != "" {
		opts.TraceSample = max(*traceSample, 1)
	}
	ctx, ex := scenario.Attach(ctx, *seed, opts)

	outs, err := runExperiments(ctx, *ids, experiments.Config{Seed: *seed, N: *n})
	if err != nil {
		// A failed run still explains itself: keep its spans and report.
		writeDiagnostics(ex, *seed, *spansOut, *reportOut)
		fatal(err)
	}
	for _, o := range outs {
		if err := o.WriteText(os.Stdout); err != nil {
			fatal(err)
		}
	}

	if rec := ex.Recorder; rec != nil {
		if err := writeFile(*traceOut, rec.WriteJSONL); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "hitl-experiments: wrote %d of %d subject traces to %s\n",
			len(rec.Traces()), rec.Offered(), *traceOut)
	}
	writeDiagnostics(ex, *seed, *spansOut, *reportOut)
}

// runExperiments runs the whole suite, or the comma-separated ids in
// order.
func runExperiments(ctx context.Context, ids string, cfg experiments.Config) ([]*experiments.Output, error) {
	if ids == "" {
		return experiments.RunAll(ctx, cfg)
	}
	var outs []*experiments.Output
	for _, id := range strings.Split(ids, ",") {
		o, err := experiments.Run(ctx, strings.TrimSpace(id), cfg)
		if err != nil {
			return nil, err
		}
		outs = append(outs, o)
	}
	return outs, nil
}

// writeDiagnostics writes the span tree and the run report, each when
// asked for.
func writeDiagnostics(ex *scenario.Execution, seed int64, spansOut, reportOut string) {
	if ex.Tracer != nil {
		if err := writeFile(spansOut, ex.Tracer.WriteJSON); err != nil {
			fatal(err)
		}
	}
	if rep := ex.Finish(); rep != nil {
		rep.Seed = seed
		if err := writeFile(reportOut, rep.WriteJSON); err != nil {
			fatal(err)
		}
	}
}

// writeFile creates path and streams write into it, reporting the first
// error from create, write, or close.
func writeFile(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hitl-experiments:", err)
	os.Exit(1)
}
