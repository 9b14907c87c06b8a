package password

import (
	"context"
	"fmt"

	"hitl/internal/scenario"
	"hitl/internal/sim"
)

// The password case study registers its portfolio scenario with the
// scenario registry. The adapter builds exactly the Scenario struct the
// programmatic API exposes, and its sweep strides match PortfolioSweep
// (accounts, 104729) and ExpirySweep (expiry, 130363), so spec-driven
// sweeps are bit-identical to the programmatic sweep functions.
func init() {
	scenario.Register(portfolioScenario{})
}

func f64(v float64) *float64 { return &v }

// portfolioScenario adapts Scenario (policy + portfolio simulation) to the
// scenario layer.
type portfolioScenario struct{}

func (portfolioScenario) Name() string { return "password" }
func (portfolioScenario) Doc() string {
	return "organizational password policy over an account portfolio (§3.2): compliance, reuse, write-downs, resets"
}
func (portfolioScenario) Defaults() scenario.Defaults {
	return scenario.Defaults{Population: "enterprise", N: 2000}
}

func (portfolioScenario) Params() []scenario.Param {
	return []scenario.Param{
		{Name: "policy", Type: scenario.String, Default: "strong",
			Enum: []string{"basic", "strong"},
			Doc:  "base policy preset; expiry overrides its rotation setting"},
		{Name: "accounts", Type: scenario.Int, Default: int64(15), Min: f64(1), Max: f64(500),
			SweepStride: 104729, Doc: "portfolio size each user must manage"},
		{Name: "expiry", Type: scenario.Int, Default: int64(90), Min: f64(0), Max: f64(3650),
			SweepStride: 130363, Doc: "password expiry in days (0 = never)"},
		{Name: "duration", Type: scenario.Int, Default: int64(365), Min: f64(1), Max: f64(3650),
			Doc: "simulated period in days (drives expiry rotations)"},
		{Name: "sso", Type: scenario.Bool, Default: false, Doc: "deploy single sign-on"},
		{Name: "vault", Type: scenario.Bool, Default: false, Doc: "deploy a password vault"},
		{Name: "meter", Type: scenario.Bool, Default: false, Doc: "deploy a strength meter"},
		{Name: "rationale", Type: scenario.Bool, Default: false, Doc: "deploy rationale training"},
	}
}

func (portfolioScenario) Run(ctx context.Context, inst scenario.Instance) ([]scenario.Point, error) {
	sc, label, err := scenarioFor(inst)
	if err != nil {
		return nil, err
	}
	m, err := sc.Run(ctx)
	if err != nil {
		return nil, err
	}
	return []scenario.Point{{Label: label, Run: m.Run, Values: m.values()}}, nil
}

// Compile lowers the instance to its loop program, implementing
// scenario.Compiler.
func (portfolioScenario) Compile(inst scenario.Instance) ([]scenario.ProgramUnit, error) {
	sc, label, err := scenarioFor(inst)
	if err != nil {
		return nil, err
	}
	prog, err := sc.Compile()
	if err != nil {
		return nil, err
	}
	return []scenario.ProgramUnit{{Label: label, Seed: sc.Seed, Prog: prog}}, nil
}

// scenarioFor builds the Scenario an instance describes and its point's
// label.
func scenarioFor(inst scenario.Instance) (Scenario, string, error) {
	var pol Policy
	switch p := inst.Params.Str("policy"); p {
	case "basic":
		pol = BasicPolicy()
	case "strong":
		pol = StrongPolicy()
	default:
		return Scenario{}, "", fmt.Errorf("password: unknown policy preset %q", p)
	}
	pol.ExpiryDays = inst.Params.Int("expiry")
	sc := Scenario{
		Policy:       pol,
		Accounts:     inst.Params.Int("accounts"),
		DurationDays: inst.Params.Int("duration"),
		Population:   inst.Population,
		Tools: Tools{
			SSO:               inst.Params.Bool("sso"),
			Vault:             inst.Params.Bool("vault"),
			StrengthMeter:     inst.Params.Bool("meter"),
			RationaleTraining: inst.Params.Bool("rationale"),
		},
		N:       inst.N,
		Seed:    inst.Seed,
		Workers: inst.Workers,
	}
	return sc, fmt.Sprintf("%s policy, %d accounts", pol.Name, sc.Accounts), nil
}

// Rederive recomputes portfolio metrics from a raw aggregate via the same
// pure derivation Run uses, implementing scenario.Rederiver.
func (portfolioScenario) Rederive(label string, run *sim.Result) (map[string]float64, error) {
	return MetricsFrom(run).values(), nil
}

// values is a portfolio point's metric map.
func (m Metrics) values() map[string]float64 {
	return map[string]float64{
		"compliance":    m.ComplianceRate,
		"reuse":         m.MeanReuseFraction,
		"write_down":    m.WriteDownRate,
		"share":         m.ShareRate,
		"resets":        m.MeanResetsPerYear,
		"strength_bits": m.MeanStrengthBits,
	}
}
