package scenario

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"hitl/internal/sim"
	"hitl/internal/telemetry"
)

// This file is the scenario layer's episode support: specs with a
// "rounds" count (and optionally an "adapt" block naming an adaptive
// policy) run as a deterministic multi-round game between an adapting
// attacker and the simulated population. Every round is itself a
// complete, ordinary spec run: RoundSpec materializes round r as a
// standalone Spec with its own canonical digest, so a round can be
// cached, sharded across a cluster, or re-run by hand — and is
// bit-identical in every case. The only state that crosses rounds is the
// aggregates the policy sees, and rounds are sequential by construction:
// round r+1's parameters depend on round r's aggregates.

// AdaptSpec selects and configures an adaptive policy in a spec's
// "adapt" block.
type AdaptSpec struct {
	// Policy names a registered adaptive policy.
	Policy string `json:"policy"`
	// Params configures the policy (gains, targets, bounds — whatever the
	// policy documents). They are policy inputs, not scenario parameters.
	Params map[string]float64 `json:"params,omitempty"`
}

// PolicyFunc computes round r's scenario-parameter overrides from the
// policy configuration and the previous rounds' aggregates (round 0 sees
// an empty history). It must be a pure function of its arguments: no
// ambient randomness (derive any on sim.RoundSeed), no state outside the
// history — that purity is what makes an R-round episode reproducible
// from its master seed and each round reproducible standalone from its
// recorded round seed.
type PolicyFunc func(cfg map[string]float64, round int, prev []sim.RoundAggregate) sim.RoundParams

// Policy is a registered adaptive-attacker policy.
type Policy struct {
	// Name is the registry key used by specs' adapt.policy field.
	Name string
	// Doc is a one-line description for listings.
	Doc string
	// Fn computes each round's parameter overrides.
	Fn PolicyFunc
}

var (
	policyMu  sync.RWMutex
	policyReg = map[string]Policy{}
)

// RegisterPolicy adds a policy to the process-wide registry. Duplicate
// names panic: policies are registered from init functions, and a silent
// overwrite would make behavior import-order dependent.
func RegisterPolicy(p Policy) {
	if p.Name == "" || p.Fn == nil {
		panic("scenario: RegisterPolicy needs a name and a function")
	}
	policyMu.Lock()
	defer policyMu.Unlock()
	if _, dup := policyReg[p.Name]; dup {
		panic(fmt.Sprintf("scenario: duplicate policy %q", p.Name))
	}
	policyReg[p.Name] = p
}

// PolicyByName returns the named registered policy.
func PolicyByName(name string) (Policy, error) {
	policyMu.RLock()
	defer policyMu.RUnlock()
	if p, ok := policyReg[name]; ok {
		return p, nil
	}
	return Policy{}, fmt.Errorf("unknown policy %q (valid: %s)", name, strings.Join(policyNamesLocked(), ", "))
}

// PolicyNames returns the registered policy names, sorted.
func PolicyNames() []string {
	policyMu.RLock()
	defer policyMu.RUnlock()
	return policyNamesLocked()
}

func policyNamesLocked() []string {
	out := make([]string, 0, len(policyReg))
	for name := range policyReg {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// normalizeEpisode validates the episode fields of a spec during
// Normalize. It assumes the scalar fields have already been checked.
func normalizeEpisode(out *Spec) error {
	if out.Rounds < 0 {
		return specErrf("rounds", "negative round count %d", out.Rounds)
	}
	if out.Rounds == 0 {
		if out.Adapt != nil {
			return specErrf("adapt", "adapt requires rounds >= 1")
		}
		return nil
	}
	if out.Sweep != nil {
		return specErrf("sweep", "a sweep cannot be combined with rounds; sweep the round specs instead")
	}
	if out.Offset != 0 {
		return specErrf("offset", "episodes shard within rounds, not across them; set offset on a round spec (see RoundSpec)")
	}
	if out.Adapt != nil {
		a := *out.Adapt
		if _, err := PolicyByName(a.Policy); err != nil {
			return &SpecError{Field: "adapt.policy", Err: err}
		}
		for k, v := range a.Params {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return specErrf("adapt.params."+k, "want a finite number, got %v", v)
			}
		}
		if len(a.Params) > 0 {
			params := make(map[string]float64, len(a.Params))
			for k, v := range a.Params {
				params[k] = v
			}
			a.Params = params
		}
		out.Adapt = &a
	}
	return nil
}

// RoundSpec materializes round r of a normalized episodic spec as a
// standalone, round-free Spec: the base parameters with the policy's
// overrides applied, seeded with sim.RoundSeed(master, r). The result is
// normalized — overrides are coerced and validated against the scenario's
// schema — and running it alone is bit-identical to round r inside the
// episode, which is the contract the determinism tests and the cluster
// coordinator's per-round sharding both lean on.
func RoundSpec(norm Spec, round int, overrides sim.RoundParams) (Spec, error) {
	if norm.Rounds < 1 {
		return Spec{}, fmt.Errorf("scenario: RoundSpec on a non-episodic spec")
	}
	if round < 0 || round >= norm.Rounds {
		return Spec{}, fmt.Errorf("scenario: round %d out of [0, %d)", round, norm.Rounds)
	}
	rs := norm
	rs.Rounds = 0
	rs.Adapt = nil
	rs.Seed = sim.RoundSeed(norm.Seed, round)
	if len(overrides) > 0 {
		params := make(map[string]any, len(norm.Params)+len(overrides))
		for k, v := range norm.Params {
			params[k] = v
		}
		for k, v := range overrides {
			params[k] = v
		}
		rs.Params = params
	}
	out, err := Normalize(rs)
	if err != nil {
		return Spec{}, fmt.Errorf("scenario: round %d: %w", round, err)
	}
	return out, nil
}

// RoundSummary is one completed round in a Result: the engine-level
// aggregate (round index, derived seed, applied overrides, headline
// metrics) plus which engine path served it.
type RoundSummary struct {
	sim.RoundAggregate
	EnginePath string `json:"engine_path,omitempty"`
}

// LabelRound prefixes a round's point labels with the round index. It
// copies rather than mutating, so callers can keep the unlabeled points.
func LabelRound(round int, pts []Point) []Point {
	out := append([]Point(nil), pts...)
	for i := range out {
		if out[i].Label == "" {
			out[i].Label = fmt.Sprintf("round-%d", round)
		} else {
			out[i].Label = fmt.Sprintf("round-%d %s", round, out[i].Label)
		}
	}
	return out
}

// runEpisode executes a normalized episodic spec: norm.Rounds sequential
// rounds, each a complete standalone spec run — local, or handed to
// opts.Dispatch — with parameters adapted between rounds by the spec's
// policy. opts.Observe (when non-nil) fires once per completed round with
// that round's labeled points, so job streams surface per-round
// aggregates as they land.
func runEpisode(ctx context.Context, norm Spec, opts Options) (*Result, error) {
	var policy PolicyFunc
	if norm.Adapt != nil {
		p, err := PolicyByName(norm.Adapt.Policy)
		if err != nil {
			return nil, &SpecError{Field: "adapt.policy", Err: err}
		}
		policy = p.Fn
	}
	ctx, span := telemetry.StartSpan(ctx, "episode",
		telemetry.String("name", norm.Scenario))
	defer span.End()

	fail := func(err error) (*Result, error) {
		span.SetAttr("error", err.Error())
		return nil, fmt.Errorf("scenario %s: %w", norm.Scenario, err)
	}

	res := &Result{Scenario: norm.Scenario, Spec: norm}
	history := make([]sim.RoundAggregate, 0, norm.Rounds)
	for round := range norm.Rounds {
		if err := ctx.Err(); err != nil {
			return fail(err)
		}
		var params sim.RoundParams
		if policy != nil {
			params = policy(norm.Adapt.Params, round, history)
		}
		if err := runRound(ctx, norm, round, params, opts, res); err != nil {
			return fail(fmt.Errorf("sim: episode round %d: %w", round, err))
		}
		history = append(history, res.Rounds[round].RoundAggregate)
	}
	span.SetAttr("engine", res.EnginePath)
	return res, nil
}

// runRound runs round r of an episode under the policy's overrides and
// appends its summary and labeled points to res.
func runRound(ctx context.Context, norm Spec, round int, params sim.RoundParams, opts Options, res *Result) error {
	rspec, err := RoundSpec(norm, round, params)
	if err != nil {
		return err
	}
	rdigest, err := Digest(rspec)
	if err != nil {
		return err
	}
	rres, err := run(ctx, rspec, rdigest, Options{Dispatch: opts.Dispatch})
	if err != nil {
		return err
	}
	// The policy (and reports) see the round's flattened metrics.
	res.Rounds = append(res.Rounds, RoundSummary{
		RoundAggregate: sim.RoundAggregate{Round: round, Seed: rspec.Seed, Params: params, Values: rres.Metrics()},
		EnginePath:     rres.EnginePath,
	})
	res.EnginePath = foldEnginePath(res.EnginePath, rres.EnginePath)
	pts := LabelRound(round, rres.Points)
	res.Points = append(res.Points, pts...)
	if opts.Observe != nil {
		opts.Observe(round+1, norm.Rounds, pts)
	}
	return nil
}
