package phishing

import (
	"context"
	"fmt"
	"sort"

	"hitl/internal/comms"
	"hitl/internal/scenario"
	"hitl/internal/sim"
)

// The phishing case study registers its two runnable shapes with the
// scenario registry: the single-encounter lab study (per-condition heed
// rates) and the longitudinal campaign (victim rates under detector error
// and habituation). Both adapters build exactly the structs the
// programmatic API exposes, so spec-driven runs are bit-identical to
// programmatic ones.
func init() {
	scenario.Register(studyScenario{})
	scenario.Register(campaignScenario{})
}

// warningNames lists the warning-kind communication presets, sorted.
func warningNames() []string {
	var out []string
	for id, c := range comms.Presets() {
		if c.Kind == comms.Warning {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// warningByID resolves a warning preset, failing with the valid names.
func warningByID(id string) (comms.Communication, error) {
	if c, ok := comms.Presets()[id]; ok && c.Kind == comms.Warning {
		return c, nil
	}
	names := warningNames()
	return comms.Communication{}, fmt.Errorf("phishing: unknown warning %q (valid: %v)", id, names)
}

func f64(v float64) *float64 { return &v }

// studyScenario adapts Study/CompareConditions to the scenario layer.
type studyScenario struct{}

func (studyScenario) Name() string { return "phishing-study" }
func (studyScenario) Doc() string {
	return "single-encounter lab study (§3.1): per-warning heed rates, optionally with the mitigation ablations"
}
func (studyScenario) Defaults() scenario.Defaults {
	return scenario.Defaults{Population: "general-public", N: 2000}
}

func (studyScenario) Params() []scenario.Param {
	return []scenario.Param{
		{Name: "warning", Type: scenario.String, Default: "all",
			Enum: append([]string{"all"}, warningNames()...),
			Doc:  "warning condition to run, or all four standard conditions"},
		{Name: "trained", Type: scenario.Bool, Default: false,
			Doc: "pre-train every subject with interactive anti-phishing training"},
		{Name: "distinct", Type: scenario.Bool, Default: false,
			Doc: "make the warning visually distinct from routine dialogs"},
		{Name: "explain", Type: scenario.Bool, Default: false,
			Doc: "add an explanation of why the site is suspicious"},
	}
}

func (s studyScenario) Run(ctx context.Context, inst scenario.Instance) ([]scenario.Point, error) {
	conds, err := s.conditions(inst)
	if err != nil {
		return nil, err
	}
	results, err := RunConditions(ctx, inst.Population, inst.Seed, inst.N, inst.Workers, conds)
	if err != nil {
		return nil, err
	}
	pts := make([]scenario.Point, len(results))
	for i, r := range results {
		pts[i] = scenario.Point{
			Label:  r.Condition,
			Run:    r.Run,
			Values: map[string]float64{"heed_rate": r.HeedRate()},
		}
	}
	return pts, nil
}

// Rederive recomputes a study point's metric map from a raw aggregate,
// implementing scenario.Rederiver so shard merges reproduce exactly what
// Run derives per condition.
func (studyScenario) Rederive(label string, run *sim.Result) (map[string]float64, error) {
	return map[string]float64{"heed_rate": run.HeedRate()}, nil
}

// conditions resolves the instance's experimental arms — shared by Run
// and Compile so compiled units mirror interpreted points one-to-one.
// Mitigations compose in the E2 ablation order: distinct look first, then
// the explanation, then training — names stack accordingly (e.g.
// "ie-active+distinct+why+training").
func (studyScenario) conditions(inst scenario.Instance) ([]Condition, error) {
	var conds []Condition
	if w := inst.Params.Str("warning"); w == "all" {
		conds = StandardConditions()
	} else {
		found := false
		for _, c := range StandardConditions() {
			if c.Name == w {
				conds, found = []Condition{c}, true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("phishing: no study condition %q", w)
		}
	}
	for i := range conds {
		if inst.Params.Bool("distinct") {
			conds[i] = WithDistinctLook(conds[i])
		}
		if inst.Params.Bool("explain") {
			conds[i] = WithExplanation(conds[i])
		}
		if inst.Params.Bool("trained") {
			conds[i] = WithTraining(conds[i])
		}
	}
	return conds, nil
}

// Compile lowers the study instance to one compiled program per
// condition, with the same labels and derived per-condition seeds
// (inst.Seed + i*7919) Run uses, implementing scenario.Compiler.
func (s studyScenario) Compile(inst scenario.Instance) ([]scenario.ProgramUnit, error) {
	conds, err := s.conditions(inst)
	if err != nil {
		return nil, err
	}
	units := make([]scenario.ProgramUnit, len(conds))
	for i, c := range conds {
		seed := inst.Seed + int64(i)*7919
		prog, err := Study{Condition: c, Population: inst.Population, N: inst.N, Seed: seed}.Compile()
		if err != nil {
			return nil, fmt.Errorf("condition %s: %w", c.Name, err)
		}
		units[i] = scenario.ProgramUnit{Label: c.Name, Seed: seed, Prog: prog}
	}
	return units, nil
}

// campaignScenario adapts Campaign to the scenario layer.
type campaignScenario struct{}

func (campaignScenario) Name() string { return "phishing-campaign" }
func (campaignScenario) Doc() string {
	return "longitudinal campaign (§3.1): daily email stream with detector errors, habituation, and trust erosion"
}
func (campaignScenario) Defaults() scenario.Defaults {
	return scenario.Defaults{Population: "general-public", N: 2000}
}

func (campaignScenario) Params() []scenario.Param {
	return []scenario.Param{
		{Name: "warning", Type: scenario.String, Default: "firefox-active",
			Enum: warningNames(), Doc: "warning design shown when the detector fires"},
		{Name: "days", Type: scenario.Int, Default: 60, Min: f64(1), Max: f64(3650),
			Doc: "campaign length in days"},
		{Name: "tpr", Type: scenario.Float, Default: 0.9, Min: f64(0), Max: f64(1),
			Doc: "detector true-positive rate"},
		{Name: "fpr", Type: scenario.Float, Default: 0.02, Min: f64(0), Max: f64(1),
			Doc: "detector false-positive rate"},
		{Name: "phish-per-day", Type: scenario.Float, Default: 0.2, Min: f64(0), Max: f64(100),
			Doc: "expected phishing emails per subject-day"},
		{Name: "legit-per-day", Type: scenario.Float, Default: 10.0, Min: f64(0), Max: f64(1000),
			Doc: "expected legitimate emails per subject-day"},
	}
}

func (campaignScenario) Run(ctx context.Context, inst scenario.Instance) ([]scenario.Point, error) {
	c, err := campaignFor(inst)
	if err != nil {
		return nil, err
	}
	m, err := c.Run(ctx)
	if err != nil {
		return nil, err
	}
	return []scenario.Point{{Label: c.Warning.ID, Run: m.Run, Values: m.values()}}, nil
}

// Compile lowers the campaign instance to its loop program, implementing
// scenario.Compiler.
func (campaignScenario) Compile(inst scenario.Instance) ([]scenario.ProgramUnit, error) {
	c, err := campaignFor(inst)
	if err != nil {
		return nil, err
	}
	prog, err := c.Compile()
	if err != nil {
		return nil, err
	}
	return []scenario.ProgramUnit{{Label: c.Warning.ID, Seed: c.Seed, Prog: prog}}, nil
}

// campaignFor builds the Campaign an instance describes. The static
// campaign's schema has no attacker knobs, so they read as zero there:
// the classic campaign.
func campaignFor(inst scenario.Instance) (Campaign, error) {
	w, err := warningByID(inst.Params.Str("warning"))
	if err != nil {
		return Campaign{}, err
	}
	return Campaign{
		Population:  inst.Population,
		Warning:     w,
		Days:        inst.Params.Int("days"),
		PhishPerDay: inst.Params.Float("phish-per-day"),
		LegitPerDay: inst.Params.Float("legit-per-day"),
		DetectorTPR: inst.Params.Float("tpr"),
		DetectorFPR: inst.Params.Float("fpr"),
		N:           inst.N,
		Seed:        inst.Seed,
		Workers:     inst.Workers,
		Lookalike:   inst.Params.Float("lookalike"),
		Targeting:   inst.Params.Float("targeting"),
	}, nil
}

// Rederive recomputes campaign metrics from a raw aggregate via the same
// pure derivation Run uses, implementing scenario.Rederiver.
func (campaignScenario) Rederive(label string, run *sim.Result) (map[string]float64, error) {
	return CampaignMetricsFrom(run).values(), nil
}

// values is a campaign point's metric map.
func (m CampaignMetrics) values() map[string]float64 {
	return map[string]float64{
		"victim_rate":               m.VictimRate,
		"per_encounter_victim_rate": m.PerEncounterVictimRate,
		"mean_phish_encounters":     m.MeanPhishEncounters,
		"mean_false_alarms":         m.MeanFalseAlarms,
	}
}
