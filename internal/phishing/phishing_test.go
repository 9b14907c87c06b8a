package phishing

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"hitl/internal/agent"
	"hitl/internal/comms"
	"hitl/internal/population"
	"hitl/internal/sim"
	"hitl/internal/stimuli"
)

func TestStandardConditionsValid(t *testing.T) {
	conds := StandardConditions()
	if len(conds) != 4 {
		t.Fatalf("got %d conditions, want 4", len(conds))
	}
	for _, c := range conds {
		if err := c.Warning.Validate(); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
	}
}

func TestStudyReproducesEgelmanShape(t *testing.T) {
	results, err := CompareConditions(context.Background(), 1234, 3000, StandardConditions())
	if err != nil {
		t.Fatal(err)
	}
	rates := map[string]float64{}
	for _, r := range results {
		rates[r.Condition] = r.HeedRate()
		t.Logf("%-16s heed %.3f  %s", r.Condition, r.HeedRate(), r.Run.Heed)
	}
	if !(rates["firefox-active"] > rates["ie-active"]) {
		t.Error("Firefox active must beat IE active (comprehension: distinct look)")
	}
	if !(rates["ie-active"] > 2*rates["ie-passive"]) {
		t.Error("active warnings must beat the passive IE warning by a wide margin")
	}
	if !(rates["ie-passive"] >= rates["toolbar-passive"]) {
		t.Error("the IE passive warning should be at least as effective as a toolbar indicator")
	}
	if rates["firefox-active"] < 0.6 {
		t.Errorf("firefox heed rate %.3f too low vs study (~0.8)", rates["firefox-active"])
	}
	if rates["ie-passive"] > 0.3 {
		t.Errorf("ie-passive heed rate %.3f too high vs study (~0.1)", rates["ie-passive"])
	}
}

func TestStudyFailureStagesDiffer(t *testing.T) {
	// The framework's point: the *root causes* differ by design. Passive
	// warnings fail at attention switch/delivery; active warnings fail
	// downstream (comprehension, beliefs, behavior).
	results, err := CompareConditions(context.Background(), 99, 3000, StandardConditions())
	if err != nil {
		t.Fatal(err)
	}
	var ff, tb *StudyResult
	for i := range results {
		switch results[i].Condition {
		case "firefox-active":
			ff = &results[i]
		case "toolbar-passive":
			tb = &results[i]
		}
	}
	attention := tb.Run.FailureShare(agent.StageAttentionSwitch) + tb.Run.FailureShare(agent.StageDelivery)
	if attention < 0.6 {
		t.Errorf("passive toolbar failures should be dominated by attention/delivery, got %.3f", attention)
	}
	ffAttention := ff.Run.FailureShare(agent.StageAttentionSwitch)
	if ffAttention > 0.2 {
		t.Errorf("blocking warning should rarely fail at attention switch, got %.3f", ffAttention)
	}
}

func TestMitigationVariants(t *testing.T) {
	base := Condition{Name: "ie-active", Warning: StandardConditions()[1].Warning}
	distinct := WithDistinctLook(base)
	if distinct.Warning.Design.LookAlike >= base.Warning.Design.LookAlike {
		t.Error("distinct look must reduce look-alike")
	}
	why := WithExplanation(base)
	if why.Warning.Design.Explanation < 0.8 {
		t.Error("explanation variant must raise Explanation")
	}
	trained := WithTraining(base)
	if !trained.PreTrained {
		t.Error("training variant must pre-train")
	}
	for _, c := range []Condition{distinct, why, trained} {
		if err := c.Warning.Validate(); err != nil {
			t.Errorf("%s invalid: %v", c.Name, err)
		}
	}
}

func TestMitigationsImproveHeedRates(t *testing.T) {
	base := StandardConditions()[1] // ie-active: look-alike, weak explanation
	all := WithTraining(WithExplanation(WithDistinctLook(base)))
	conds := []Condition{base, WithDistinctLook(base), WithExplanation(base), WithTraining(base), all}
	results, err := CompareConditions(context.Background(), 77, 4000, conds)
	if err != nil {
		t.Fatal(err)
	}
	baseRate := results[0].HeedRate()
	for _, r := range results[1:] {
		t.Logf("%-28s heed %.3f (base %.3f)", r.Condition, r.HeedRate(), baseRate)
		if r.HeedRate() <= baseRate {
			t.Errorf("%s should improve on the baseline: %.3f vs %.3f", r.Condition, r.HeedRate(), baseRate)
		}
	}
	combined := results[len(results)-1].HeedRate()
	for _, r := range results[1 : len(results)-1] {
		if combined < r.HeedRate()-0.02 {
			t.Errorf("combined mitigations (%.3f) should be at least as good as %s (%.3f)",
				combined, r.Condition, r.HeedRate())
		}
	}
}

func TestStudyWithInterference(t *testing.T) {
	base := StandardConditions()[0]
	attacked := base
	attacked.Name = "firefox+spoofed"
	attacked.Interference = stimuli.Interference{Kind: stimuli.Spoof, Strength: 1}
	results, err := CompareConditions(context.Background(), 5, 2000, []Condition{base, attacked})
	if err != nil {
		t.Fatal(err)
	}
	if results[1].HeedRate() != 0 {
		t.Errorf("fully spoofed warning should protect nobody, got %.3f", results[1].HeedRate())
	}
	if results[1].Run.Spoofed != results[1].Run.N {
		t.Errorf("all subjects should be marked spoofed, got %d/%d",
			results[1].Run.Spoofed, results[1].Run.N)
	}
}

func TestStudyDeterministic(t *testing.T) {
	a, err := Study{Condition: StandardConditions()[0], N: 500, Seed: 3}.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Study{Condition: StandardConditions()[0], N: 500, Seed: 3}.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if a.Run.Heed != b.Run.Heed {
		t.Error("study not reproducible for identical seeds")
	}
}

func TestCompareConditionsErrors(t *testing.T) {
	if _, err := CompareConditions(context.Background(), 1, 10, nil); err == nil {
		t.Error("no conditions: want error")
	}
	bad := StandardConditions()[0]
	bad.Warning.ID = ""
	if _, err := CompareConditions(context.Background(), 1, 10, []Condition{bad}); err == nil {
		t.Error("invalid warning: want error")
	}
}

func TestCampaignValidate(t *testing.T) {
	c := Campaign{Warning: StandardConditions()[0].Warning, N: 10, Days: 5}
	if err := c.Validate(); err != nil {
		t.Errorf("valid campaign rejected: %v", err)
	}
	c.DetectorTPR = 1.5
	if err := c.Validate(); err == nil {
		t.Error("bad TPR: want error")
	}
	c = Campaign{Warning: StandardConditions()[0].Warning, N: 10, Days: 5, PhishPerDay: -1}
	if err := c.Validate(); err == nil {
		t.Error("negative rate: want error")
	}
}

func TestCampaignFalsePositivesErodeProtection(t *testing.T) {
	base := Campaign{
		Warning: StandardConditions()[0].Warning,
		N:       800, Days: 60, Seed: 21,
		PhishPerDay: 0.1, LegitPerDay: 10,
		DetectorTPR: 0.95, DetectorFPR: 0.0,
	}
	noisy := base
	noisy.DetectorFPR = 0.05 // a false alarm every couple of days
	noisy.Seed = 22
	quiet, err := base.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	loud, err := noisy.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("victim rate: clean detector %.3f, noisy detector %.3f (false alarms/subject %.1f)",
		quiet.VictimRate, loud.VictimRate, loud.MeanFalseAlarms)
	if loud.MeanFalseAlarms <= quiet.MeanFalseAlarms {
		t.Fatal("noisy detector should produce false alarms")
	}
	if loud.VictimRate <= quiet.VictimRate {
		t.Errorf("false positives should erode protection: %.3f vs %.3f",
			loud.VictimRate, quiet.VictimRate)
	}
}

func TestCampaignBetterDetectorProtects(t *testing.T) {
	weak := Campaign{
		Warning: StandardConditions()[0].Warning,
		N:       600, Days: 30, Seed: 31,
		PhishPerDay: 0.2, LegitPerDay: 5,
		DetectorTPR: 0.5,
	}
	strong := weak
	strong.DetectorTPR = 0.99
	strong.Seed = 32
	w, err := weak.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	s, err := strong.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if s.VictimRate >= w.VictimRate {
		t.Errorf("better detector should protect more: %.3f vs %.3f", s.VictimRate, w.VictimRate)
	}
}

func TestCampaignTrainedPopulationSelfDetects(t *testing.T) {
	// With no detector at all, only mental models and training protect.
	rng := rand.New(rand.NewSource(1))
	detects := func(r campaignReceiver) bool {
		accurate, skill := r.phishingState()
		return selfDetects(rng, accurate, skill, 0)
	}
	nov := &interpretedReceiver{}
	nov.reset(population.Novices().Sample(rng))
	hits := 0
	const n = 2000
	for i := 0; i < n; i++ {
		if detects(nov) {
			hits++
		}
	}
	naive := float64(hits) / n
	tr := &interpretedReceiver{}
	tr.reset(population.Novices().Sample(rng))
	tr.r.Train("phishing", agent.Skill{Level: 0.9, Interactivity: 0.9})
	hits = 0
	for i := 0; i < n; i++ {
		if detects(tr) {
			hits++
		}
	}
	trained := float64(hits) / n
	if trained <= naive {
		t.Errorf("training must raise self-detection: %.3f vs %.3f", trained, naive)
	}
}

func TestPoisson(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	if newPoisson(0).sample(rng) != 0 {
		t.Error("poisson(0) must be 0")
	}
	var sum int
	const n = 20000
	three := newPoisson(3)
	for i := 0; i < n; i++ {
		sum += three.sample(rng)
	}
	mean := float64(sum) / n
	if mean < 2.9 || mean > 3.1 {
		t.Errorf("poisson(3) sample mean %.3f", mean)
	}
}

// TestCampaignCompiledMatchesRun holds the compiled campaign to Run over
// every warning, detector noise from none to always-on, and the attacker
// knobs: the raw aggregates must be deeply equal.
func TestCampaignCompiledMatchesRun(t *testing.T) {
	ctx := context.Background()
	for _, cond := range StandardConditions() {
		for _, fpr := range []float64{0, 0.3, 1} {
			for _, attacker := range []bool{false, true} {
				c := Campaign{Warning: cond.Warning, Days: 6, DetectorFPR: fpr, N: 60, Seed: 3, Workers: 2}
				if attacker {
					c.Lookalike, c.Targeting = 0.4, 0.7
				}
				want, err := c.Run(ctx)
				if err != nil {
					t.Fatal(err)
				}
				prog, err := c.Compile()
				if err != nil {
					t.Fatalf("%s fpr=%v: Compile: %v", cond.Name, fpr, err)
				}
				got, err := sim.Runner{Seed: c.Seed, N: c.N, Workers: c.Workers}.RunProgram(ctx, prog)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(want.Run, got) {
					t.Errorf("%s fpr=%v attacker=%v: compiled campaign differs from Run", cond.Name, fpr, attacker)
				}
			}
		}
	}
}

// TestCampaignCompileRefusesSkillInstallers: a campaign spans days, so a
// communication whose acquisition installs skills (or corrects the mental
// model) has no lowering; the scenario layer then interprets it.
func TestCampaignCompileRefusesSkillInstallers(t *testing.T) {
	for _, comm := range []comms.Communication{comms.PasswordPolicyDocument(), comms.AntiPhishingTraining()} {
		c := Campaign{Warning: comm, Days: 3, N: 10}
		if _, err := c.Compile(); !errors.Is(err, sim.ErrNotCompilable) {
			t.Errorf("%s: want ErrNotCompilable, got %v", comm.ID, err)
		}
	}
}
