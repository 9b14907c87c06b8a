// Package faults is a seeded, deterministic fault injector for the
// simulation pipeline: a way to rehearse the failure modes the framework
// enumerates for the human link — and the ones the engine itself must
// survive — without changing a line of scenario code.
//
// A fault Set is parsed from a compact textual spec (the -faults flag on
// hitl-sim / hitl-experiments, or the Config-gated ?faults= query parameter
// on the server's compute doors):
//
//	rule[;rule...]        rule := kind[:key=value[,key=value...]]
//
// Kinds:
//
//	panic    p=<prob>                  panic before the subject runs
//	fail     p=<prob> stage=<stage>    force the outcome to a failure at the
//	                                   named pipeline stage
//	corrupt  p=<prob>                  corrupted communication: the outcome
//	                                   becomes a spoofed delivery failure
//	latency  p=<prob> ms=<millis>      artificial latency before the subject
//	                                   runs (capped at 1000ms per subject)
//
// Example: "fail:stage=comprehension,p=0.05;latency:p=0.01,ms=2".
//
// Determinism: whether a rule fires for a subject is a pure hash of (rule
// salt, run seed, subject index) — the same splitmix64 derivation
// discipline as trace sampling — never of arrival order, worker identity,
// or the subject's own random stream. A faulted run is therefore
// bit-identical at any worker count, and faults never perturb the random
// draws of subjects they do not touch.
//
// Faults act on whole subjects — before a subject runs, or on the outcome
// it returns — never inside the pipeline, so they apply alike to
// interpreted and compiled subjects: a faulted run takes the compiled path
// a clean run takes, with bit-identical results and fired counts. A
// failure pinned to a C-HIP stage is a fail rule; a panic has no stage.
//
// A *Set implements sim.Injector; front doors attach it through
// scenario.Options.Faults, which also reports its fired counts in the run
// report.
package faults

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"hitl/internal/agent"
	"hitl/internal/gems"
	"hitl/internal/sim"
)

// Kind classifies a fault rule.
type Kind int

// The supported fault kinds.
const (
	// KindPanic panics before the subject's scenario runs.
	KindPanic Kind = iota
	// KindFail forces the subject's outcome to a failure at a stage.
	KindFail
	// KindCorrupt turns the outcome into a spoofed delivery failure, as if
	// an attacker replaced the communication in flight.
	KindCorrupt
	// KindLatency sleeps before the subject's scenario runs.
	KindLatency
)

// String names the kind as it appears in specs.
func (k Kind) String() string {
	switch k {
	case KindPanic:
		return "panic"
	case KindFail:
		return "fail"
	case KindCorrupt:
		return "corrupt"
	case KindLatency:
		return "latency"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// maxDelay caps per-subject injected latency so a spec cannot stall a
// worker indefinitely.
const maxDelay = time.Second

// Rule is one parsed fault rule.
type Rule struct {
	// Kind is the fault kind.
	Kind Kind
	// P is the per-subject trigger probability in [0, 1].
	P float64
	// Stage is the target stage for KindFail. Valid only when HasStage.
	Stage agent.Stage
	// HasStage reports whether Stage is set.
	HasStage bool
	// Delay is the injected latency for KindLatency.
	Delay time.Duration

	salt uint64
}

// mix64 is the splitmix64 finalizer, identical to the one trace sampling
// uses to derive worker-count-independent priorities.
func mix64(z uint64) uint64 {
	z += 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// fires reports whether the rule triggers for the subject. The decision is
// a pure function of (rule salt, run seed, subject index).
func (r *Rule) fires(runSeed int64, subject int) bool {
	if r.P <= 0 {
		return false
	}
	if r.P >= 1 {
		return true
	}
	u := mix64((r.salt ^ mix64(uint64(runSeed))) + uint64(int64(subject)))
	return float64(u>>11)/(1<<53) < r.P
}

// Set is a parsed fault spec: an ordered list of rules, applied in spec
// order (later rules win when both rewrite the outcome). The zero-value or
// nil Set injects nothing. A *Set implements sim.Injector.
type Set struct {
	rules []Rule
	spec  string
	// fired counts trigger decisions per rule, parallel to rules. It lives
	// here rather than inside Rule so Rules() can keep returning value
	// copies without copying an atomic (go vet copylocks). Because each
	// decision is a pure function of (salt, seed, subject), the counts are
	// deterministic at any worker count.
	fired []atomic.Int64
}

// stagesByName maps spec stage names ("comprehension", "attention-switch",
// ...) to pipeline stages.
var stagesByName = func() map[string]agent.Stage {
	m := make(map[string]agent.Stage)
	for _, s := range agent.Stages() {
		m[s.String()] = s
	}
	return m
}()

// StageNames lists the stage names a spec may reference, in pipeline
// order.
func StageNames() []string {
	names := make([]string, 0, len(stagesByName))
	for _, s := range agent.Stages() {
		names = append(names, s.String())
	}
	return names
}

// Parse compiles a fault spec. An empty spec yields an empty (injects
// nothing) Set. Each rule is salted by its position so rules draw
// independent per-subject decisions.
func Parse(spec string) (*Set, error) {
	s := &Set{spec: strings.TrimSpace(spec)}
	if s.spec == "" {
		return s, nil
	}
	for idx, raw := range strings.Split(s.spec, ";") {
		raw = strings.TrimSpace(raw)
		if raw == "" {
			continue
		}
		rule, err := parseRule(raw)
		if err != nil {
			return nil, fmt.Errorf("faults: rule %d %q: %w", idx+1, raw, err)
		}
		// Salt by position and kind so two otherwise-identical rules fire
		// on independent subject sets.
		rule.salt = mix64(0xFA17_0001 + uint64(idx)*0x9E3779B97F4A7C15 + uint64(rule.Kind))
		s.rules = append(s.rules, rule)
	}
	s.fired = make([]atomic.Int64, len(s.rules))
	return s, nil
}

// MustParse is Parse for compile-time-constant specs in tests and
// examples; it panics on a bad spec.
func MustParse(spec string) *Set {
	s, err := Parse(spec)
	if err != nil {
		panic(err)
	}
	return s
}

func parseRule(raw string) (Rule, error) {
	kindName, argStr, _ := strings.Cut(raw, ":")
	var rule Rule
	switch strings.TrimSpace(kindName) {
	case "panic":
		rule.Kind = KindPanic
	case "fail":
		rule.Kind = KindFail
	case "corrupt":
		rule.Kind = KindCorrupt
	case "latency":
		rule.Kind = KindLatency
	default:
		return rule, fmt.Errorf("unknown fault kind %q (want panic|fail|corrupt|latency)", kindName)
	}
	sawP := false
	if argStr != "" {
		for _, arg := range strings.Split(argStr, ",") {
			key, val, ok := strings.Cut(strings.TrimSpace(arg), "=")
			if !ok {
				return rule, fmt.Errorf("malformed argument %q (want key=value)", arg)
			}
			key, val = strings.TrimSpace(key), strings.TrimSpace(val)
			switch key {
			case "p":
				p, err := strconv.ParseFloat(val, 64)
				if err != nil || p < 0 || p > 1 {
					return rule, fmt.Errorf("p=%q out of [0,1]", val)
				}
				rule.P, sawP = p, true
			case "stage":
				st, ok := stagesByName[val]
				if !ok {
					return rule, fmt.Errorf("unknown stage %q (want one of %s)", val, strings.Join(StageNames(), "|"))
				}
				rule.Stage, rule.HasStage = st, true
			case "ms":
				ms, err := strconv.ParseFloat(val, 64)
				if err != nil || ms <= 0 {
					return rule, fmt.Errorf("ms=%q must be a positive duration in milliseconds", val)
				}
				rule.Delay = time.Duration(ms * float64(time.Millisecond))
				if rule.Delay > maxDelay {
					rule.Delay = maxDelay
				}
			default:
				return rule, fmt.Errorf("unknown argument %q", key)
			}
		}
	}
	if !sawP {
		return rule, fmt.Errorf("missing required p=<probability>")
	}
	switch rule.Kind {
	case KindPanic:
		if rule.HasStage {
			return rule, fmt.Errorf("panic takes no stage argument; to fail subjects at a stage, use fail:stage=<stage>")
		}
	case KindFail:
		if !rule.HasStage {
			return rule, fmt.Errorf("fail requires stage=<stage>")
		}
	case KindLatency:
		if rule.Delay <= 0 {
			return rule, fmt.Errorf("latency requires ms=<millis>")
		}
		if rule.HasStage {
			return rule, fmt.Errorf("latency takes no stage argument")
		}
	case KindCorrupt:
		if rule.HasStage || rule.Delay != 0 {
			return rule, fmt.Errorf("corrupt takes only p=<probability>")
		}
	}
	return rule, nil
}

// Empty reports whether the set injects nothing.
func (s *Set) Empty() bool { return s == nil || len(s.rules) == 0 }

// Rules returns a copy of the parsed rules, in spec order.
func (s *Set) Rules() []Rule {
	if s == nil {
		return nil
	}
	return append([]Rule(nil), s.rules...)
}

// String returns the spec the set was parsed from, whitespace-trimmed.
func (s *Set) String() string {
	if s == nil {
		return ""
	}
	return s.spec
}

// Before implements sim.Injector: latency rules sleep and panic rules
// panic ahead of the subject's scenario function.
func (s *Set) Before(runSeed int64, subject int) {
	if s == nil {
		return
	}
	for i := range s.rules {
		r := &s.rules[i]
		switch r.Kind {
		case KindLatency:
			if r.fires(runSeed, subject) {
				s.fired[i].Add(1)
				time.Sleep(r.Delay)
			}
		case KindPanic:
			if r.fires(runSeed, subject) {
				s.fired[i].Add(1)
				panic(fmt.Sprintf("faults: injected panic (subject %d)", subject))
			}
		}
	}
}

// Perturb implements sim.Injector: fail and corrupt rules rewrite a
// completed subject's outcome, in spec order. A rewritten outcome drops
// its stage trace (the trace describes the pipeline that ran, not the
// injected failure) and clears the GEMS error class, which would otherwise
// describe a behavior-stage event that no longer happened.
func (s *Set) Perturb(runSeed int64, subject int, o sim.Outcome) sim.Outcome {
	return s.rewrite(runSeed, subject, o, true)
}

// Replay implements sim.Injector: the rewrite Perturb applies, without
// counting the rules it fires.
func (s *Set) Replay(runSeed int64, subject int, o sim.Outcome) sim.Outcome {
	return s.rewrite(runSeed, subject, o, false)
}

func (s *Set) rewrite(runSeed int64, subject int, o sim.Outcome, count bool) sim.Outcome {
	if s == nil {
		return o
	}
	for i := range s.rules {
		r := &s.rules[i]
		if (r.Kind != KindFail && r.Kind != KindCorrupt) || !r.fires(runSeed, subject) {
			continue
		}
		if count {
			s.fired[i].Add(1)
		}
		o.Heeded = false
		o.ErrorClass = gems.NoError
		o.Trace = nil
		if r.Kind == KindFail {
			o.FailedStage = r.Stage
		} else {
			o.FailedStage = agent.StageDelivery
			o.Spoofed = true
		}
	}
	return o
}

// describeRule renders one rule in the stable "kind p=… [stage=…]
// [delay=…]" form shared by Describe and Stats.
func describeRule(r *Rule) string {
	line := fmt.Sprintf("%s p=%g", r.Kind, r.P)
	if r.HasStage {
		line += " stage=" + r.Stage.String()
	}
	if r.Delay > 0 {
		line += " delay=" + r.Delay.String()
	}
	return line
}

// Describe renders a stable multi-line summary of the rules (sorted by
// kind then stage) for logs and reports.
func (s *Set) Describe() string {
	if s.Empty() {
		return "faults: none"
	}
	lines := make([]string, 0, len(s.rules))
	for i := range s.rules {
		lines = append(lines, describeRule(&s.rules[i]))
	}
	sort.Strings(lines)
	return "faults: " + strings.Join(lines, "; ")
}

// RuleStat pairs one rule's description with how many times its trigger
// decision has fired over the set's lifetime.
type RuleStat struct {
	// Rule is the describeRule rendering ("fail p=0.05 stage=comprehension").
	Rule string `json:"rule"`
	// Fired counts trigger decisions: subjects the rule chose to act on.
	// Because the decision is a pure hash of (rule salt, run seed, subject
	// index), the count is deterministic at any worker count.
	Fired int64 `json:"fired"`
}

// Stats returns per-rule fired counts in spec order. Counts accumulate
// across every run the set is attached to; run reports snapshot them after
// a run completes.
func (s *Set) Stats() []RuleStat {
	if s.Empty() {
		return nil
	}
	out := make([]RuleStat, len(s.rules))
	for i := range s.rules {
		out[i] = RuleStat{Rule: describeRule(&s.rules[i]), Fired: s.fired[i].Load()}
	}
	return out
}
