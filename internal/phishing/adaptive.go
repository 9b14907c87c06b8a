package phishing

import (
	"hitl/internal/scenario"
	"hitl/internal/sim"
)

// The adaptive campaign is the phishing family's closed-loop shape: an
// episodic spec (rounds > 0) over the campaign engine, where the attacker
// watches each round's observed fall rate and shifts look-alike
// similarity, volume (timing), and targeting for the next round. The
// scenario itself is just the classic campaign with the attacker knobs
// exposed as parameters; the adaptation lives in the "phish-escalation"
// policy, a pure function of the round history, so every round is an
// ordinary bit-identical-at-any-worker-count run.
func init() {
	scenario.Register(adaptiveCampaignScenario{})
	scenario.RegisterPolicy(scenario.Policy{
		Name: "phish-escalation",
		Doc: "attacker raises look-alike quality, volume, and targeting while the " +
			"observed per-encounter fall rate is below its target, backs off above it",
		Fn: phishEscalation,
	})
}

// adaptiveCampaignScenario is campaignScenario plus the attacker's knobs.
// It runs, compiles and rederives exactly as the static campaign does: the
// knobs change how subjects are simulated, not how aggregates summarize.
type adaptiveCampaignScenario struct{ campaignScenario }

func (adaptiveCampaignScenario) Name() string { return "phishing-adaptive-campaign" }
func (adaptiveCampaignScenario) Doc() string {
	return "campaign with an adapting attacker: look-alike similarity, volume, and targeting shift against observed fall rates (run with rounds/adapt)"
}

func (adaptiveCampaignScenario) Params() []scenario.Param {
	return append(campaignScenario{}.Params(),
		scenario.Param{Name: "lookalike", Type: scenario.Float, Default: 0.2, Min: f64(0), Max: f64(1),
			Doc: "attacker look-alike similarity: cuts detector TPR and self-detection"},
		scenario.Param{Name: "targeting", Type: scenario.Float, Default: 0.0, Min: f64(0), Max: f64(1),
			Doc: "how strongly phish volume concentrates on low-expertise subjects"},
	)
}

// cfgOr reads a policy-configuration key with a default.
func cfgOr(cfg map[string]float64, key string, def float64) float64 {
	if v, ok := cfg[key]; ok {
		return v
	}
	return def
}

func clampRange(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// phishEscalation is the attacker's adaptation rule. Configuration keys
// (all optional):
//
//	target     desired per-encounter fall rate (default 0.15)
//	gain       proportional step size on the rate error (default 1.0)
//	lookalike  round-0 look-alike similarity (default 0.2)
//	targeting  round-0 targeting strength (default 0)
//	volume     round-0 phish volume per subject-day (default 0.2)
//
// Round 0 pins the starting knobs; every later round moves look-alike,
// targeting, and volume proportionally to (target - observed fall rate)
// from the previous round's aggregate. Pure arithmetic over the history —
// no randomness — so the episode is deterministic from its master seed.
func phishEscalation(cfg map[string]float64, round int, prev []sim.RoundAggregate) sim.RoundParams {
	look := cfgOr(cfg, "lookalike", 0.2)
	targ := cfgOr(cfg, "targeting", 0)
	vol := cfgOr(cfg, "volume", 0.2)
	if round == 0 || len(prev) == 0 {
		return sim.RoundParams{"lookalike": look, "targeting": targ, "phish-per-day": vol}
	}
	last := prev[len(prev)-1]
	// Continue from wherever the previous round actually ran.
	look = cfgOr(last.Params, "lookalike", look)
	targ = cfgOr(last.Params, "targeting", targ)
	vol = cfgOr(last.Params, "phish-per-day", vol)
	gain := cfgOr(cfg, "gain", 1.0)
	err := cfgOr(cfg, "target", 0.15) - cfgOr(last.Values, "per_encounter_victim_rate", 0)
	return sim.RoundParams{
		"lookalike":     clampRange(look+gain*err, 0, 1),
		"targeting":     clampRange(targ+0.5*gain*err, 0, 1),
		"phish-per-day": clampRange(vol*(1+0.5*gain*err), 0.01, 100),
	}
}
