package scenario

// Engine selection: the seam between declarative specs and the three ways
// the repo can answer one — the interpreted agent.Receiver walk, a
// compiled sim.Program, and the closed-form analytic distribution. The
// seam is keyed off the canonical (normalized) spec: scenarios that can
// lower themselves implement Compiler, and runEngine picks the cheapest
// path that reproduces the interpreted results exactly, falling back to
// the interpreter for every shape the compiler refuses.

import (
	"context"
	"errors"
	"fmt"

	"hitl/internal/sim"
)

// Engine names a requested engine path for a scenario run.
type Engine string

// The selectable engine paths. EngineAuto (the default, and what an empty
// string means) picks analytic when the spec is eligible and unfaulted,
// compiled when the scenario lowers, and the interpreter otherwise —
// results are bit-identical between interpreted and compiled, so auto
// never changes answers, only cost. Forcing EngineCompiled still falls
// back to the interpreter silently when compilation refuses (the compiled
// path is an optimization, not a different semantics); forcing
// EngineAnalytic is strict and errors when no closed form exists, because
// the caller asked for zero Monte Carlo work specifically.
const (
	EngineAuto        Engine = "auto"
	EngineInterpreted Engine = Engine(sim.EngineInterpreted)
	EngineCompiled    Engine = Engine(sim.EngineCompiled)
	EngineAnalytic    Engine = Engine(sim.EngineAnalytic)
)

// EngineMixed marks a multi-step result whose steps ran on different
// paths (possible only under EngineAuto with a sweep that crosses an
// eligibility boundary).
const EngineMixed = "mixed"

// ParseEngine validates an engine name from a flag or API field. An empty
// string parses as EngineAuto.
func ParseEngine(s string) (Engine, error) {
	switch Engine(s) {
	case "", EngineAuto:
		return EngineAuto, nil
	case EngineInterpreted, EngineCompiled, EngineAnalytic:
		return Engine(s), nil
	}
	return "", fmt.Errorf("scenario: unknown engine %q (valid: auto, interpreted, compiled, analytic)", s)
}

type engineKey struct{}

// WithEngine returns a context requesting an engine path for every
// scenario run under it. The zero value (no WithEngine) means EngineAuto.
func WithEngine(ctx context.Context, e Engine) context.Context {
	if e == "" || e == EngineAuto {
		return ctx
	}
	return context.WithValue(ctx, engineKey{}, e)
}

// EngineFromContext returns the requested engine path, defaulting to
// EngineAuto.
func EngineFromContext(ctx context.Context) Engine {
	if ctx == nil {
		return EngineAuto
	}
	if e, ok := ctx.Value(engineKey{}).(Engine); ok {
		return e
	}
	return EngineAuto
}

// ProgramUnit is one compiled condition of a scenario instance: the label
// its Point carries, the seed its Runner uses (the same derived seed the
// interpreted path would use for that condition), and the compiled
// program itself.
type ProgramUnit struct {
	Label string
	Seed  int64
	Prog  *sim.Program
}

// Compiler is implemented by scenarios whose Run lowers to compiled
// programs. Compile must return one unit per point Run would produce, in
// the same order, with the same labels and per-condition seeds — the
// engine then guarantees RunProgram results bit-identical to Run's.
//
// The engine takes each compiled point's Values from the scenario's
// Rederiver (the generic heed_rate alone when it has none), so a scenario
// whose Run derives richer per-point values must implement Rederiver to
// implement Compiler. Analytic points carry heed_rate only, which is why
// a program with a subject loop is never analytic. Compile returns an
// error wrapping sim.ErrNotCompilable for instances only the interpreter
// reproduces; runEngine falls back silently.
type Compiler interface {
	Compile(inst Instance) ([]ProgramUnit, error)
}

// runEngine executes one scenario instance on the engine path the context
// requests, returning the points and the path that actually produced them
// (sim.EngineInterpreted, sim.EngineCompiled, or sim.EngineAnalytic).
//
// Fallback rules: shapes the compiler refuses and scenarios that don't
// implement Compiler run interpreted — silently under EngineAuto and
// EngineCompiled, as an error under the strict EngineAnalytic. Faults act
// per subject, so a faulted run skips only the analytic shortcut and runs
// compiled like a clean one; forced EngineAnalytic refuses it. A trace
// recorder does not choose the path: after a compiled or analytic run,
// each unit's sampled subjects are replayed on the interpreter
// (sim.Runner.SampleTraces), which yields the traces an interpreted run
// would have sampled.
func runEngine(ctx context.Context, sc Scenario, inst Instance) ([]Point, string, error) {
	eng := EngineFromContext(ctx)
	interpret := func() ([]Point, string, error) {
		pts, err := sc.Run(ctx, inst)
		return pts, sim.EngineInterpreted, err
	}
	if eng == EngineInterpreted {
		return interpret()
	}

	comp, ok := sc.(Compiler)
	if !ok {
		if eng == EngineAnalytic {
			return nil, "", fmt.Errorf("scenario %s has no compiled form; the analytic engine cannot run it", sc.Name())
		}
		return interpret()
	}
	faulted := sim.InjectorFromContext(ctx) != nil
	if faulted && eng == EngineAnalytic {
		return nil, "", fmt.Errorf("scenario %s: the analytic engine cannot inject faults", sc.Name())
	}

	units, err := comp.Compile(inst)
	if err != nil {
		if errors.Is(err, sim.ErrNotCompilable) {
			if eng == EngineAnalytic {
				return nil, "", fmt.Errorf("scenario %s: %w", sc.Name(), err)
			}
			return interpret()
		}
		return nil, "", fmt.Errorf("scenario %s: compiling: %w", sc.Name(), err)
	}

	if eng == EngineAnalytic || (eng == EngineAuto && !faulted) {
		pts, ok, err := runAnalytic(units, eng)
		if err != nil {
			return nil, "", err
		}
		if ok {
			if err := sampleTraces(ctx, sc, units, inst.N); err != nil {
				return nil, "", err
			}
			return pts, sim.EngineAnalytic, nil
		}
	}

	pts := make([]Point, len(units))
	for i, u := range units {
		res, err := (sim.Runner{Seed: u.Seed, N: inst.N, Workers: inst.Workers}).RunProgram(ctx, u.Prog)
		if err != nil {
			return nil, "", fmt.Errorf("scenario %s: compiled %s: %w", sc.Name(), u.Label, err)
		}
		vals, err := rederive(sc, Point{Label: u.Label}, res)
		if err != nil {
			return nil, "", fmt.Errorf("scenario %s: compiled %s: %w", sc.Name(), u.Label, err)
		}
		pts[i] = Point{Label: u.Label, Run: res, Values: vals}
	}
	if err := sampleTraces(ctx, sc, units, inst.N); err != nil {
		return nil, "", err
	}
	return pts, sim.EngineCompiled, nil
}

// sampleTraces replays each unit's sampled subjects for the trace
// recorder on ctx, if any, after the units ran compiled or analytic.
func sampleTraces(ctx context.Context, sc Scenario, units []ProgramUnit, n int) error {
	for _, u := range units {
		if err := (sim.Runner{Seed: u.Seed, N: n}).SampleTraces(ctx, u.Prog); err != nil {
			return fmt.Errorf("scenario %s: sampling %s: %w", sc.Name(), u.Label, err)
		}
	}
	return nil
}

// runAnalytic answers every unit in closed form when all are eligible.
// ok=false (under EngineAuto) means at least one unit needs sampling and
// the caller should run compiled instead; the strict EngineAnalytic turns
// that into an error. Analytic points carry no *sim.Result — there was no
// simulation — so Run is nil and the headline metric lives in Values.
func runAnalytic(units []ProgramUnit, eng Engine) ([]Point, bool, error) {
	for _, u := range units {
		if !u.Prog.AnalyticEligible() {
			if eng == EngineAnalytic {
				_, err := u.Prog.Exact() // refuses with the precise reason
				return nil, false, fmt.Errorf("condition %s: %w", u.Label, err)
			}
			return nil, false, nil
		}
	}
	pts := make([]Point, len(units))
	for i, u := range units {
		d, err := u.Prog.Exact()
		if err != nil {
			return nil, false, fmt.Errorf("condition %s: %w", u.Label, err)
		}
		pts[i] = Point{
			Label:  u.Label,
			Values: map[string]float64{"heed_rate": d.Heed},
		}
	}
	return pts, true, nil
}

// foldEnginePath accumulates per-step engine paths into the Result-level
// one: equal paths keep their name, differing steps report EngineMixed.
func foldEnginePath(acc, step string) string {
	switch {
	case acc == "" || acc == step:
		return step
	default:
		return EngineMixed
	}
}
