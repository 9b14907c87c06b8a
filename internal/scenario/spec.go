package scenario

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"hitl/internal/population"
	"hitl/internal/sim"
	"hitl/internal/telemetry"
)

// Spec is the declarative form of a scenario run. It round-trips losslessly
// through JSON, and a normalized spec (defaults applied) compiles to the
// exact runner inputs the programmatic API would build, so spec-driven and
// programmatic runs are bit-identical.
type Spec struct {
	// Scenario names a registered scenario.
	Scenario string `json:"scenario"`
	// Population names a population preset; empty uses the scenario's
	// default.
	Population string `json:"population,omitempty"`
	// N is the subject count; 0 uses the scenario's default.
	N int `json:"n,omitempty"`
	// Offset restricts the run to global subjects [Offset, Offset+N) of a
	// larger population: subject streams, fault decisions, and sampling
	// identities use the global index, so a run at Offset is exactly the
	// restriction of the Offset-0 run over Offset+N subjects to that
	// subrange. This is the shard seam the cluster coordinator slices a
	// spec along; Offset participates in the canonical digest, so each
	// shard has its own cache/store identity derived from the same parent
	// spec.
	Offset int `json:"offset,omitempty"`
	// Seed is the master seed; sweeps derive per-step seeds from it.
	Seed int64 `json:"seed,omitempty"`
	// Workers is the engine parallelism; 0 means GOMAXPROCS. Results are
	// bit-identical at any worker count, and Workers is excluded from the
	// canonical cache key.
	Workers int `json:"workers,omitempty"`
	// Params assigns scenario parameters by schema name; omitted parameters
	// take their declared defaults.
	Params map[string]any `json:"params,omitempty"`
	// Sweep optionally runs the scenario once per value of one numeric
	// parameter.
	Sweep *Axis `json:"sweep,omitempty"`
	// Rounds > 0 turns the run into a deterministic R-round episode: round
	// r runs this spec with seed sim.RoundSeed(Seed, r), and the Adapt
	// policy (if any) adjusts parameters between rounds. Both fields are
	// omitempty, so round-free specs keep their canonical digests.
	Rounds int `json:"rounds,omitempty"`
	// Adapt names and configures the adaptive policy driving an episode's
	// per-round parameter overrides; nil runs every round unadapted.
	Adapt *AdaptSpec `json:"adapt,omitempty"`
}

// Axis is a sweep over one numeric parameter.
type Axis struct {
	// Param names the swept parameter (must be numeric in the schema).
	Param string `json:"param"`
	// Values are the settings to run, in order. Step i runs with seed
	// Spec.Seed + i*stride, where stride comes from the parameter's schema.
	Values []float64 `json:"values"`
}

// ErrUnknown reports a spec naming a scenario that is not registered.
// Test for it with errors.Is.
var ErrUnknown = errors.New("unknown scenario")

// SpecError is a spec validation failure, carrying the path of the
// offending field (e.g. "params.days", "sweep.values[2]"). Servers map it
// to HTTP 400.
type SpecError struct {
	// Field is the JSON path of the invalid field.
	Field string
	// Err describes the problem.
	Err error
}

func (e *SpecError) Error() string {
	return fmt.Sprintf("scenario: spec field %q: %v", e.Field, e.Err)
}

func (e *SpecError) Unwrap() error { return e.Err }

func specErrf(field, format string, args ...any) *SpecError {
	return &SpecError{Field: field, Err: fmt.Errorf(format, args...)}
}

// Normalize validates spec against the registry and returns a copy with
// every default applied: population preset, subject count, and all omitted
// parameters. Normalization is idempotent, and two specs that normalize
// equal produce bit-identical runs. All validation errors are *SpecError.
func Normalize(spec Spec) (Spec, error) {
	sc, err := Get(spec.Scenario)
	if err != nil {
		return Spec{}, err
	}
	defs := sc.Defaults()

	out := spec
	if out.Population == "" {
		out.Population = defs.Population
	}
	if _, err := population.ByName(out.Population); err != nil {
		return Spec{}, &SpecError{Field: "population", Err: err}
	}
	if out.N < 0 {
		return Spec{}, specErrf("n", "negative subject count %d", out.N)
	}
	if out.N == 0 {
		out.N = defs.N
	}
	if out.Offset < 0 {
		return Spec{}, specErrf("offset", "negative subject offset %d", out.Offset)
	}
	if out.Workers < 0 {
		return Spec{}, specErrf("workers", "negative worker count %d", out.Workers)
	}

	schema := sc.Params()
	byName := make(map[string]Param, len(schema))
	names := make([]string, 0, len(schema))
	for _, p := range schema {
		byName[p.Name] = p
		names = append(names, p.Name)
	}

	params := make(map[string]any, len(schema))
	// Deterministic error order: walk submitted keys sorted.
	submitted := make([]string, 0, len(spec.Params))
	for k := range spec.Params {
		submitted = append(submitted, k)
	}
	sort.Strings(submitted)
	for _, k := range submitted {
		p, ok := byName[k]
		if !ok {
			return Spec{}, specErrf("params."+k, "unknown parameter (valid: %s)", strings.Join(names, ", "))
		}
		v, err := coerce(p, spec.Params[k])
		if err != nil {
			return Spec{}, &SpecError{Field: "params." + k, Err: err}
		}
		params[k] = v
	}
	for _, p := range schema {
		if _, ok := params[p.Name]; ok {
			continue
		}
		v, err := coerce(p, p.Default)
		if err != nil {
			// A bad default is a provider bug, but surface it legibly.
			return Spec{}, &SpecError{Field: "params." + p.Name, Err: fmt.Errorf("schema default: %w", err)}
		}
		params[p.Name] = v
	}
	out.Params = params

	if spec.Sweep != nil {
		ax := *spec.Sweep
		p, ok := byName[ax.Param]
		if !ok {
			return Spec{}, specErrf("sweep.param", "unknown parameter %q (valid: %s)", ax.Param, strings.Join(names, ", "))
		}
		if !p.numeric() {
			return Spec{}, specErrf("sweep.param", "parameter %q has type %s; only int and float parameters can be swept", ax.Param, p.Type)
		}
		if len(ax.Values) == 0 {
			return Spec{}, specErrf("sweep.values", "empty sweep (need at least one value)")
		}
		for i, v := range ax.Values {
			if _, err := coerce(p, v); err != nil {
				return Spec{}, &SpecError{Field: fmt.Sprintf("sweep.values[%d]", i), Err: err}
			}
		}
		ax.Values = append([]float64(nil), ax.Values...)
		out.Sweep = &ax
	}
	if err := normalizeEpisode(&out); err != nil {
		return Spec{}, err
	}
	return out, nil
}

// coerce converts a JSON-decoded (or Go-literal) value to the parameter's
// canonical type, enforcing integrality, range, and enum constraints.
func coerce(p Param, v any) (any, error) {
	switch p.Type {
	case Int:
		var f float64
		switch x := v.(type) {
		case int:
			f = float64(x)
		case int64:
			f = float64(x)
		case float64:
			f = x
		default:
			return nil, fmt.Errorf("want an integer, got %T", v)
		}
		if f != math.Trunc(f) || math.IsInf(f, 0) || math.IsNaN(f) {
			return nil, fmt.Errorf("want an integer, got %v", f)
		}
		if err := checkRange(p, f); err != nil {
			return nil, err
		}
		return int64(f), nil
	case Float:
		var f float64
		switch x := v.(type) {
		case int:
			f = float64(x)
		case int64:
			f = float64(x)
		case float64:
			f = x
		default:
			return nil, fmt.Errorf("want a number, got %T", v)
		}
		if math.IsInf(f, 0) || math.IsNaN(f) {
			return nil, fmt.Errorf("want a finite number, got %v", f)
		}
		if err := checkRange(p, f); err != nil {
			return nil, err
		}
		return f, nil
	case Bool:
		b, ok := v.(bool)
		if !ok {
			return nil, fmt.Errorf("want a boolean, got %T", v)
		}
		return b, nil
	case String:
		s, ok := v.(string)
		if !ok {
			return nil, fmt.Errorf("want a string, got %T", v)
		}
		if len(p.Enum) > 0 {
			for _, e := range p.Enum {
				if s == e {
					return s, nil
				}
			}
			return nil, fmt.Errorf("invalid value %q (valid: %s)", s, strings.Join(p.Enum, ", "))
		}
		return s, nil
	}
	return nil, fmt.Errorf("schema declares unknown type %q", p.Type)
}

func checkRange(p Param, f float64) error {
	if p.Min != nil && f < *p.Min {
		return fmt.Errorf("%v below minimum %v", f, *p.Min)
	}
	if p.Max != nil && f > *p.Max {
		return fmt.Errorf("%v above maximum %v", f, *p.Max)
	}
	return nil
}

// Canonical returns a stable hex digest of the normalized spec, suitable
// as a cache key: two specs that differ only in spelling (omitted defaults,
// key order) or in Workers — which cannot change results — share a key.
func Canonical(spec Spec) (string, error) {
	norm, err := Normalize(spec)
	if err != nil {
		return "", err
	}
	return Digest(norm)
}

// Digest is Canonical for a spec that is already normalized: it hashes
// norm as given, without normalizing it again. Normalize is idempotent, so
// Digest(Normalize(s)) equals Canonical(s); front doors normalize once at
// decode and carry this digest to Execute. Digest of a spec that was never
// normalized is not a canonical key.
func Digest(norm Spec) (string, error) {
	norm.Workers = 0
	raw, err := json.Marshal(norm) // map keys marshal sorted
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:]), nil
}

// ParseSpec decodes a JSON spec, rejecting unknown top-level fields so
// typos fail fast instead of silently running defaults.
func ParseSpec(r io.Reader) (Spec, error) {
	var spec Spec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return Spec{}, fmt.Errorf("scenario: parsing spec: %w", err)
	}
	return spec, nil
}

// strideFor resolves the sweep seed stride for a parameter.
func strideFor(sc Scenario, param string) int64 {
	for _, p := range sc.Params() {
		if p.Name == param && p.SweepStride != 0 {
			return p.SweepStride
		}
	}
	return DefaultSweepStride
}

// Observer receives sweep progress during a run (Options.Observe): after
// step `done` of `total` completes (1-based), it is called with that
// step's freshly labeled points. Steps report in order — the engine may
// parallelize within a step, but steps themselves execute sequentially —
// so an observer that appends points sees the exact final point order, at
// any worker count. Non-sweep runs report a single step (done=total=1)
// with every point. Observers run on the executing goroutine; a slow
// observer slows the run.
type Observer func(done, total int, pts []Point)

// Run normalizes and executes a spec through the registry. Without a sweep
// it runs the scenario once; with one it runs once per axis value, each
// step independently seeded with Seed + i*stride so sweeps reproduce the
// domain packages' programmatic sweep functions bit-identically.
//
// Cancellation via ctx aborts the underlying Monte Carlo work and returns
// an error wrapping ctx.Err(). When ctx carries a telemetry.Tracer the
// whole run executes under a "scenario" span. Front doors, which have
// already normalized and digested the spec, use Execute instead.
func Run(ctx context.Context, spec Spec) (*Result, error) {
	norm, err := Normalize(spec)
	if err != nil {
		return nil, err
	}
	digest, err := Digest(norm)
	if err != nil {
		return nil, err
	}
	return run(ctx, norm, digest, Options{})
}

// run executes a normalized spec whose canonical digest the caller has
// already computed. Of opts it reads only Observe and Dispatch: an
// episode runs each round through run again, and a round-free spec goes
// to opts.Dispatch when set, to the local engine otherwise.
func run(ctx context.Context, norm Spec, digest string, opts Options) (*Result, error) {
	if norm.Rounds > 0 {
		return runEpisode(ctx, norm, opts)
	}
	if opts.Dispatch != nil {
		return opts.Dispatch(ctx, norm, digest)
	}
	sc, err := Get(norm.Scenario)
	if err != nil {
		return nil, err
	}
	pop, err := population.ByName(norm.Population)
	if err != nil {
		return nil, &SpecError{Field: "population", Err: err}
	}

	spanCtx, span := telemetry.StartSpan(ctx, "scenario",
		telemetry.String("name", norm.Scenario))
	defer span.End()
	// Tag every engine run under this scenario with the canonical spec
	// digest, so CPU profiles (hitl_tag label) attribute subject-loop
	// samples to this exact run.
	spanCtx = sim.WithRunTag(spanCtx, digest)
	// A shard spec shifts every engine run under it to its global subject
	// subrange; the context is the only channel that reaches the Runner
	// wherever a domain package constructs it.
	if norm.Offset > 0 {
		spanCtx = sim.WithSubjectOffset(spanCtx, norm.Offset)
	}

	base := Instance{
		Population: pop,
		N:          norm.N,
		Seed:       norm.Seed,
		Workers:    norm.Workers,
		Params:     Values(norm.Params),
	}
	res := &Result{Scenario: norm.Scenario, Spec: norm}

	if norm.Sweep == nil {
		pts, path, err := runEngine(spanCtx, sc, base)
		if err != nil {
			span.SetAttr("error", err.Error())
			return nil, fmt.Errorf("scenario %s: %w", norm.Scenario, err)
		}
		res.Points = pts
		res.EnginePath = path
		span.SetAttr("engine", path)
		if opts.Observe != nil {
			opts.Observe(1, 1, pts)
		}
		return res, nil
	}

	stride := strideFor(sc, norm.Sweep.Param)
	param := norm.Sweep.Param
	def := mustParam(sc, param)
	for i, v := range norm.Sweep.Values {
		inst := base
		inst.Params = base.Params.clone()
		val, err := coerce(def, v)
		if err != nil { // already validated; defensive
			return nil, &SpecError{Field: fmt.Sprintf("sweep.values[%d]", i), Err: err}
		}
		inst.Params[param] = val
		inst.Seed = norm.Seed + int64(i)*stride
		pts, path, err := runEngine(spanCtx, sc, inst)
		if err != nil {
			span.SetAttr("error", err.Error())
			return nil, fmt.Errorf("scenario %s: sweep %s=%v: %w", norm.Scenario, param, v, err)
		}
		res.EnginePath = foldEnginePath(res.EnginePath, path)
		stepStart := len(res.Points)
		for _, p := range pts {
			p.Param = v
			label := fmt.Sprintf("%s=%g", param, v)
			if len(pts) > 1 && p.Label != "" {
				label += " " + p.Label
			}
			p.Label = label
			res.Points = append(res.Points, p)
		}
		if opts.Observe != nil {
			opts.Observe(i+1, len(norm.Sweep.Values), res.Points[stepStart:])
		}
	}
	return res, nil
}

// mustParam returns the schema entry for a validated parameter name.
func mustParam(sc Scenario, name string) Param {
	for _, p := range sc.Params() {
		if p.Name == name {
			return p
		}
	}
	panic(fmt.Sprintf("scenario: %s has no parameter %q", sc.Name(), name))
}
