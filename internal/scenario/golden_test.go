package scenario_test

// The golden tests pin the scenario layer's core guarantee: a spec-driven
// run is bit-identical to the equivalent programmatic run, at any worker
// count. Every spec in examples/scenarios/ is exercised for worker
// independence, and each has a hand-written programmatic twin below.

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"hitl/internal/password"
	"hitl/internal/phishing"
	"hitl/internal/population"
	"hitl/internal/scenario"
	_ "hitl/internal/scenario/all"
	"hitl/internal/sim"
)

const examplesDir = "../../examples/scenarios"

func readExample(t *testing.T, name string) scenario.Spec {
	t.Helper()
	f, err := os.Open(filepath.Join(examplesDir, name))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	spec, err := scenario.ParseSpec(f)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func runSpec(t *testing.T, spec scenario.Spec, workers int) *scenario.Result {
	t.Helper()
	spec.Workers = workers
	res, err := scenario.Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	// Workers is the one spec field allowed to differ between identical
	// runs; canonicalize before comparison.
	res.Spec.Workers = 0
	return res
}

// TestExamplesWorkerIndependence runs every example spec at worker counts
// 1, 4, and NumCPU and requires bit-identical results.
func TestExamplesWorkerIndependence(t *testing.T) {
	entries, err := os.ReadDir(examplesDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 4 {
		t.Fatalf("example corpus shrank: %d specs, want >= 4", len(entries))
	}
	for _, e := range entries {
		t.Run(e.Name(), func(t *testing.T) {
			spec := readExample(t, e.Name())
			base := runSpec(t, spec, 1)
			for _, workers := range []int{4, runtime.NumCPU()} {
				got := runSpec(t, spec, workers)
				if !reflect.DeepEqual(base, got) {
					t.Errorf("results differ between workers=1 and workers=%d", workers)
				}
			}
		})
	}
}

// wantPoint compares one scenario point against a programmatic result.
func wantPoint(t *testing.T, p scenario.Point, label string, run any, values map[string]float64) {
	t.Helper()
	if p.Label != label {
		t.Errorf("label %q, want %q", p.Label, label)
	}
	if !reflect.DeepEqual(p.Run, run) {
		t.Errorf("point %q: raw sim result differs from programmatic run", label)
	}
	for k, want := range values {
		if got := p.Values[k]; got != want {
			t.Errorf("point %q: %s = %v, want %v (programmatic)", label, k, got, want)
		}
	}
}

func TestGoldenPhishingStudy(t *testing.T) {
	ctx := context.Background()
	res, err := scenario.Run(ctx, readExample(t, "phishing-study.json"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := phishing.RunConditions(ctx, population.GeneralPublic(), 42, 500, 0,
		phishing.StandardConditions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != len(want) {
		t.Fatalf("%d points, want %d", len(res.Points), len(want))
	}
	for i, w := range want {
		wantPoint(t, res.Points[i], w.Condition, w.Run,
			map[string]float64{"heed_rate": w.HeedRate()})
	}
}

func TestGoldenPhishingCampaign(t *testing.T) {
	ctx := context.Background()
	res, err := scenario.Run(ctx, readExample(t, "phishing-campaign.json"))
	if err != nil {
		t.Fatal(err)
	}
	c := phishing.Campaign{
		Population:  population.GeneralPublic(),
		Warning:     phishing.StandardConditions()[0].Warning,
		Days:        30,
		PhishPerDay: 0.2, LegitPerDay: 10,
		DetectorTPR: 0.9, DetectorFPR: 0.02,
		N: 600, Seed: 7,
	}
	if c.Warning.ID != "firefox-active" {
		t.Fatalf("standard condition order changed: first warning is %s", c.Warning.ID)
	}
	m, err := c.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 1 {
		t.Fatalf("%d points, want 1", len(res.Points))
	}
	wantPoint(t, res.Points[0], "firefox-active", m.Run, map[string]float64{
		"victim_rate":               m.VictimRate,
		"per_encounter_victim_rate": m.PerEncounterVictimRate,
		"mean_phish_encounters":     m.MeanPhishEncounters,
		"mean_false_alarms":         m.MeanFalseAlarms,
	})
}

// TestGoldenPhishingCampaignIEPassive pins the corpus's habituation
// example: the IE passive warning (passiveness 0.75, dismissal race)
// under a noisy detector, so both the exposure and the false-alarm
// registers of a compiled campaign change what subjects do.
func TestGoldenPhishingCampaignIEPassive(t *testing.T) {
	ctx := context.Background()
	res, err := scenario.Run(ctx, readExample(t, "phishing-campaign-ie-passive.json"))
	if err != nil {
		t.Fatal(err)
	}
	c := phishing.Campaign{
		Population:  population.GeneralPublic(),
		Warning:     phishing.StandardConditions()[2].Warning,
		Days:        30,
		PhishPerDay: 0.2, LegitPerDay: 10,
		DetectorTPR: 0.9, DetectorFPR: 0.2,
		N: 400, Seed: 19,
	}
	if c.Warning.ID != "ie-passive" {
		t.Fatalf("standard condition order changed: third warning is %s", c.Warning.ID)
	}
	m, err := c.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 1 {
		t.Fatalf("%d points, want 1", len(res.Points))
	}
	wantPoint(t, res.Points[0], "ie-passive", m.Run, map[string]float64{
		"victim_rate":               m.VictimRate,
		"per_encounter_victim_rate": m.PerEncounterVictimRate,
		"mean_phish_encounters":     m.MeanPhishEncounters,
		"mean_false_alarms":         m.MeanFalseAlarms,
	})
}

// TestGoldenPhishingAdaptiveCampaign pins the episodic example to a
// programmatic twin for its opening round: the phish-escalation policy's
// round-0 overrides are its configured starting knobs, so round 0 must be
// byte-for-byte a hand-built Campaign under the derived round seed. Later
// rounds depend on round 0's observed fall rate, which the per-round
// summaries must record.
func TestGoldenPhishingAdaptiveCampaign(t *testing.T) {
	ctx := context.Background()
	res, err := scenario.Run(ctx, readExample(t, "phishing-adaptive-campaign.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != 4 || len(res.Points) != 4 {
		t.Fatalf("%d rounds / %d points, want 4 / 4", len(res.Rounds), len(res.Points))
	}
	c := phishing.Campaign{
		Population:  population.GeneralPublic(),
		Warning:     phishing.StandardConditions()[0].Warning,
		Days:        20,
		PhishPerDay: 0.25, // the policy's configured round-0 volume
		LegitPerDay: 10,
		DetectorTPR: 0.9, DetectorFPR: 0.02,
		N: 400, Seed: sim.RoundSeed(11, 0),
		Lookalike: 0.1, Targeting: 0,
	}
	m, err := c.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	wantPoint(t, res.Points[0], "round-0 firefox-active", m.Run, map[string]float64{
		"victim_rate":               m.VictimRate,
		"per_encounter_victim_rate": m.PerEncounterVictimRate,
		"mean_phish_encounters":     m.MeanPhishEncounters,
		"mean_false_alarms":         m.MeanFalseAlarms,
	})
	if got := res.Rounds[0].Values["per_encounter_victim_rate"]; got != m.PerEncounterVictimRate {
		t.Errorf("round 0 aggregate fall rate %v, want programmatic %v", got, m.PerEncounterVictimRate)
	}
	if res.Rounds[1].Params["lookalike"] == res.Rounds[0].Params["lookalike"] {
		t.Error("attacker look-alike did not adapt after round 0")
	}
}

func TestGoldenPasswordPortfolio(t *testing.T) {
	ctx := context.Background()
	res, err := scenario.Run(ctx, readExample(t, "password-portfolio.json"))
	if err != nil {
		t.Fatal(err)
	}
	sc := password.Scenario{
		Policy:   password.StrongPolicy(),
		Accounts: 8, DurationDays: 365,
		Tools: password.Tools{Vault: true},
		N:     500, Seed: 11,
	}
	m, err := sc.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 1 {
		t.Fatalf("%d points, want 1", len(res.Points))
	}
	wantPoint(t, res.Points[0], "strong policy, 8 accounts", m.Run, map[string]float64{
		"compliance":    m.ComplianceRate,
		"reuse":         m.MeanReuseFraction,
		"write_down":    m.WriteDownRate,
		"share":         m.ShareRate,
		"resets":        m.MeanResetsPerYear,
		"strength_bits": m.MeanStrengthBits,
	})
}

func TestGoldenPasswordExpirySweep(t *testing.T) {
	ctx := context.Background()
	res, err := scenario.Run(ctx, readExample(t, "password-expiry-sweep.json"))
	if err != nil {
		t.Fatal(err)
	}
	base := password.Scenario{
		Policy:   password.StrongPolicy(),
		Accounts: 15, DurationDays: 365,
		N: 400, Seed: 13,
	}
	expiries := []int{0, 90, 30}
	want, err := password.ExpirySweep(ctx, base, expiries)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != len(want) {
		t.Fatalf("%d points, want %d", len(res.Points), len(want))
	}
	for i, m := range want {
		p := res.Points[i]
		if p.Param != float64(expiries[i]) {
			t.Errorf("point %d: param %v, want %d", i, p.Param, expiries[i])
		}
		if !reflect.DeepEqual(p.Run, m.Run) {
			t.Errorf("expiry=%d: raw sim result differs from ExpirySweep", expiries[i])
		}
		if p.Values["compliance"] != m.ComplianceRate || p.Values["resets"] != m.MeanResetsPerYear {
			t.Errorf("expiry=%d: metrics differ from ExpirySweep", expiries[i])
		}
	}
}
