// Command hitl-sim runs one of the registered Monte Carlo scenarios from
// the paper's case studies and prints its results.
//
// Usage:
//
//	hitl-sim -list
//	hitl-sim -scenario phishing-study    [-n N] [-seed S] [-population P] [-trained] [-distinct] [-explain]
//	hitl-sim -scenario phishing-campaign [-n N] [-seed S] [-days D] [-fpr F] [-tpr T] [-warning W]
//	hitl-sim -scenario password          [-n N] [-seed S] [-accounts A] [-expiry E] [-sso] [-vault] [-meter] [-rationale]
//	hitl-sim -spec examples/scenarios/password-expiry-sweep.json
//
// Scenarios come from the process-wide registry (internal/scenario); -list
// prints every registered scenario with its parameter schema. -spec runs a
// declarative JSON spec ("-" reads stdin); explicitly set flags override
// the corresponding spec fields. Unknown scenario, population, or warning
// names fail fast with the list of valid names.
//
// Telemetry: -trace out.jsonl writes a deterministic sample of per-subject
// stage traces (one JSON object per line, size set by -trace-sample), and
// -spans out.json writes the run's span tree. Neither changes the simulated
// results.
//
// Fault injection: -faults takes a deterministic fault spec (see
// internal/faults), e.g. -faults 'fail:stage=comprehension,p=0.1;latency:p=0.05,ms=2',
// and perturbs the run reproducibly — the same seed and spec give
// bit-identical results at any worker count.
//
// Engine selection: -engine forces an engine path (interpreted, compiled,
// analytic) instead of the default auto selection. Interpreted and compiled
// results are bit-identical, so stdout never changes with the flag; the
// resolved path is logged to stderr and recorded in -report output.
//
// Diagnostics: -report out.json writes a full-fidelity run report — seed,
// canonical spec digest, worker counts, per-phase wall times, per-stage
// failure attribution, and fired fault rules, all taken from this run's
// own engine runs — after the run ("-" writes it to stderr, keeping stdout
// diffable). A failed run still writes its report and -spans before
// exiting 1.
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

	"hitl/internal/faults"
	"hitl/internal/population"
	"hitl/internal/scenario"
	_ "hitl/internal/scenario/all" // register the built-in scenarios
)

func main() {
	scName := flag.String("scenario", "phishing-study", "registered scenario name (see -list)")
	specPath := flag.String("spec", "", "run a declarative JSON scenario spec from this file (- for stdin)")
	list := flag.Bool("list", false, "list registered scenarios and their parameter schemas")
	n := flag.Int("n", 2000, "subjects")
	seed := flag.Int64("seed", 1, "seed")
	workers := flag.Int("workers", 0, "worker goroutines (0 = all CPUs; does not change results)")
	pop := flag.String("population", "", "population preset (default: the scenario's preset)")

	// Scenario parameters. Only flags the user actually sets are forwarded
	// (flag.Visit), so each scenario's schema defaults apply otherwise; the
	// flag defaults shown in -help mirror those schema defaults.
	warning := flag.String("warning", "firefox-active", "warning preset (phishing)")
	trained := flag.Bool("trained", false, "pre-train subjects (phishing-study)")
	distinct := flag.Bool("distinct", false, "visually distinct warning (phishing-study)")
	explain := flag.Bool("explain", false, "explain why the site is suspicious (phishing-study)")
	days := flag.Int("days", 60, "campaign length in days")
	tpr := flag.Float64("tpr", 0.9, "detector true-positive rate")
	fpr := flag.Float64("fpr", 0.02, "detector false-positive rate")
	accounts := flag.Int("accounts", 15, "password portfolio size")
	expiry := flag.Int("expiry", 90, "password expiry days (0 = never)")
	sso := flag.Bool("sso", false, "deploy single sign-on")
	vault := flag.Bool("vault", false, "deploy a password vault")
	meter := flag.Bool("meter", false, "deploy a strength meter")
	rationale := flag.Bool("rationale", false, "deploy rationale training")

	engine := flag.String("engine", "", "engine path: auto (default), interpreted, compiled, or analytic")
	traceOut := flag.String("trace", "", "write sampled subject traces to this JSONL file")
	traceSample := flag.Int("trace-sample", 64, "subject traces to sample per run (with -trace)")
	spansOut := flag.String("spans", "", "write the telemetry span tree to this JSON file")
	faultSpec := flag.String("faults", "", "deterministic fault spec, e.g. 'fail:stage=comprehension,p=0.1' (see internal/faults)")
	reportOut := flag.String("report", "", "write a full-fidelity run report (JSON) to this file (- for stderr)")
	flag.Parse()

	if *list {
		listScenarios(os.Stdout)
		listPopulations(os.Stdout)
		listPolicies(os.Stdout)
		return
	}

	paramFlags := map[string]func() any{
		"warning":   func() any { return *warning },
		"trained":   func() any { return *trained },
		"distinct":  func() any { return *distinct },
		"explain":   func() any { return *explain },
		"days":      func() any { return *days },
		"tpr":       func() any { return *tpr },
		"fpr":       func() any { return *fpr },
		"accounts":  func() any { return *accounts },
		"expiry":    func() any { return *expiry },
		"sso":       func() any { return *sso },
		"vault":     func() any { return *vault },
		"meter":     func() any { return *meter },
		"rationale": func() any { return *rationale },
	}

	var spec scenario.Spec
	if *specPath != "" {
		var err error
		spec, err = readSpec(*specPath)
		if err != nil {
			fatal(err)
		}
	} else {
		spec = scenario.Spec{Scenario: *scName, N: *n, Seed: *seed}
	}
	spec.Workers = *workers
	// Explicitly set flags win over the spec file.
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "scenario":
			spec.Scenario = *scName
		case "population":
			spec.Population = *pop
		case "n":
			spec.N = *n
		case "seed":
			spec.Seed = *seed
		default:
			if get, ok := paramFlags[f.Name]; ok {
				if spec.Params == nil {
					spec.Params = map[string]any{}
				}
				spec.Params[f.Name] = get()
			}
		}
	})

	faultSet, err := faults.Parse(*faultSpec)
	if err != nil {
		fatal(err)
	}
	eng, err := scenario.ParseEngine(*engine)
	if err != nil {
		fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if eng != scenario.EngineAuto {
		ctx = scenario.WithEngine(ctx, eng)
	}

	if !faultSet.Empty() {
		fmt.Fprintf(os.Stderr, "hitl-sim: fault injection active: %s\n", faultSet.Describe())
	}
	opts := scenario.Options{Faults: faultSet, Spans: *spansOut != "", Report: *reportOut != ""}
	if *traceOut != "" {
		opts.TraceSample = max(*traceSample, 1)
	}
	norm, err := scenario.Normalize(spec)
	if err != nil {
		fatal(err)
	}
	digest, err := scenario.Digest(norm)
	if err != nil {
		fatal(err)
	}
	ex, err := scenario.Execute(ctx, norm, digest, opts)
	if err != nil {
		// A failed run still explains itself: keep its report and spans.
		writeDiagnostics(ex, *reportOut, *spansOut)
		fatal(err)
	}
	must(ex.Result.Table().WriteText(os.Stdout))
	// The engine path goes to stderr: stdout stays diffable across engines
	// (interpreted and compiled output is bit-identical by contract).
	fmt.Fprintf(os.Stderr, "hitl-sim: engine path: %s\n", ex.Result.EnginePath)

	writeDiagnostics(ex, *reportOut, *spansOut)
	if rec := ex.Recorder; rec != nil {
		must(writeFile(*traceOut, rec.WriteJSONL))
		fmt.Fprintf(os.Stderr, "hitl-sim: wrote %d of %d subject traces to %s\n",
			len(rec.Traces()), rec.Offered(), *traceOut)
	}
}

// writeDiagnostics writes the run report (to stderr for "-") and the span
// tree, each when asked for.
func writeDiagnostics(ex *scenario.Execution, reportOut, spansOut string) {
	if rep := ex.Report; rep != nil {
		if reportOut == "-" {
			must(rep.WriteJSON(os.Stderr))
		} else {
			must(writeFile(reportOut, rep.WriteJSON))
		}
	}
	if ex.Tracer != nil {
		must(writeFile(spansOut, ex.Tracer.WriteJSON))
	}
}

// readSpec loads a declarative spec from path ("-" reads stdin).
func readSpec(path string) (scenario.Spec, error) {
	if path == "-" {
		return scenario.ParseSpec(os.Stdin)
	}
	f, err := os.Open(path)
	if err != nil {
		return scenario.Spec{}, err
	}
	defer f.Close()
	return scenario.ParseSpec(f)
}

// listScenarios prints every registered scenario with its defaults and
// parameter schema.
func listScenarios(w io.Writer) {
	for _, sc := range scenario.All() {
		defs := sc.Defaults()
		fmt.Fprintf(w, "%s — %s\n", sc.Name(), sc.Doc())
		fmt.Fprintf(w, "  defaults: population=%s n=%d\n", defs.Population, defs.N)
		for _, p := range sc.Params() {
			var extras []string
			if p.Default != nil {
				extras = append(extras, fmt.Sprintf("default=%v", p.Default))
			}
			if p.Min != nil || p.Max != nil {
				lo, hi := "-inf", "+inf"
				if p.Min != nil {
					lo = fmt.Sprintf("%g", *p.Min)
				}
				if p.Max != nil {
					hi = fmt.Sprintf("%g", *p.Max)
				}
				extras = append(extras, fmt.Sprintf("range=[%s, %s]", lo, hi))
			}
			if len(p.Enum) > 0 {
				extras = append(extras, "one of: "+strings.Join(p.Enum, ", "))
			}
			fmt.Fprintf(w, "    -%s (%s) %s", p.Name, p.Type, p.Doc)
			if len(extras) > 0 {
				fmt.Fprintf(w, " [%s]", strings.Join(extras, "; "))
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintln(w)
	}
}

// listPopulations prints the population presets with their trait
// dimensions — every named dimension (core registry order, then any
// extension dimensions) with its mean and spread.
func listPopulations(w io.Writer) {
	fmt.Fprintln(w, "populations:")
	for _, name := range population.Names() {
		spec, err := population.ByName(name)
		if err != nil {
			continue
		}
		fmt.Fprintf(w, "  %s: age=[%d, %d] expert-fraction=%g accurate-model-base=%g\n",
			spec.Name, spec.AgeMin, spec.AgeMax, spec.ExpertFraction, spec.AccurateModelBase)
		for _, d := range population.Dimensions() {
			t := spec.CoreTrait(d.Index)
			fmt.Fprintf(w, "    %-22s mean=%.2f sd=%.2f — %s\n", d.Name, t.Mean, t.SD, d.Doc)
		}
		for _, e := range spec.ExtDims() {
			fmt.Fprintf(w, "    %-22s mean=%.2f sd=%.2f (extension)\n", e.Name, e.Trait.Mean, e.Trait.SD)
		}
	}
	fmt.Fprintln(w)
}

// listPolicies prints the registered adaptive policies usable in a spec's
// "adapt" block (with "rounds" >= 1).
func listPolicies(w io.Writer) {
	names := scenario.PolicyNames()
	if len(names) == 0 {
		return
	}
	fmt.Fprintln(w, "adaptive policies (spec \"adapt\" block, with \"rounds\"):")
	for _, name := range names {
		p, err := scenario.PolicyByName(name)
		if err != nil {
			continue
		}
		fmt.Fprintf(w, "  %s — %s\n", p.Name, p.Doc)
	}
	fmt.Fprintln(w)
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

func must(err error) {
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hitl-sim:", err)
	os.Exit(1)
}
