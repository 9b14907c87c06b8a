package password

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"hitl/internal/agent"
	"hitl/internal/population"
	"hitl/internal/sim"
)

func baseScenario() Scenario {
	return Scenario{
		Policy:       StrongPolicy(),
		Accounts:     15,
		DurationDays: 365,
		N:            1500,
		Seed:         42,
	}
}

func TestPolicyValidate(t *testing.T) {
	for _, p := range []Policy{BasicPolicy(), StrongPolicy()} {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
	bad := []Policy{
		{Name: "", MinLength: 8, RequiredClasses: 1},
		{Name: "x", MinLength: 0, RequiredClasses: 1},
		{Name: "x", MinLength: 8, RequiredClasses: 5},
		{Name: "x", MinLength: 8, RequiredClasses: 1, ExpiryDays: -1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: want error for %+v", i, p)
		}
	}
}

func TestScenarioValidate(t *testing.T) {
	s := baseScenario()
	if err := s.Validate(); err != nil {
		t.Fatalf("valid scenario rejected: %v", err)
	}
	s.Accounts = 0
	if err := s.Validate(); err == nil {
		t.Error("zero accounts: want error")
	}
	s = baseScenario()
	s.DurationDays = 0
	if err := s.Validate(); err == nil {
		t.Error("zero duration: want error")
	}
}

func TestTheoreticalBits(t *testing.T) {
	p := BasicPolicy() // 8 chars, 1 class: 8 * log2(26)
	want := 8 * math.Log2(26)
	if got := p.TheoreticalBits(); math.Abs(got-want) > 1e-9 {
		t.Errorf("bits = %v, want %v", got, want)
	}
	if StrongPolicy().TheoreticalBits() <= p.TheoreticalBits() {
		t.Error("strong policy must have more theoretical entropy")
	}
}

func TestComplianceCostOrdering(t *testing.T) {
	basic := BasicPolicy().complianceCost(10, Tools{})
	strong := StrongPolicy().complianceCost(10, Tools{})
	if strong <= basic {
		t.Errorf("strong policy must cost more: %.3f vs %.3f", strong, basic)
	}
	withTools := StrongPolicy().complianceCost(10, Tools{SSO: true, Vault: true})
	if withTools >= strong {
		t.Errorf("tools must cut compliance cost: %.3f vs %.3f", withTools, strong)
	}
}

func TestRunProducesMetrics(t *testing.T) {
	m, err := baseScenario().Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if m.Run.N != 1500 {
		t.Fatalf("N = %d", m.Run.N)
	}
	if m.ComplianceRate < 0 || m.ComplianceRate > 1 {
		t.Errorf("compliance rate %v", m.ComplianceRate)
	}
	if m.MeanStrengthBits <= 0 {
		t.Error("strength bits must be positive")
	}
	t.Logf("strong policy, 15 accounts: compliance=%.3f reuse=%.3f writedown=%.3f resets=%.2f bits=%.1f",
		m.ComplianceRate, m.MeanReuseFraction, m.WriteDownRate, m.MeanResetsPerYear, m.MeanStrengthBits)
}

func TestWidespreadNoncomplianceUnderStrongPolicy(t *testing.T) {
	// §3.2: "In practice, people tend not to comply fully with password
	// policies" — with 15 accounts and a strict policy, full compliance
	// should be the exception.
	m, err := baseScenario().Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if m.ComplianceRate > 0.5 {
		t.Errorf("compliance rate %.3f too high: the paper's premise is widespread noncompliance", m.ComplianceRate)
	}
	if m.MeanReuseFraction < 0.2 {
		t.Errorf("reuse fraction %.3f too low: Gaw & Felten found widespread reuse", m.MeanReuseFraction)
	}
}

func TestCapabilityIsTopFailure(t *testing.T) {
	// The paper's diagnosis: "The most critical failure appears to be a
	// capabilities failure."
	m, err := baseScenario().Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	stage, _, ok := m.Run.TopFailureStage()
	if !ok {
		t.Fatal("expected failures")
	}
	if stage != agent.StageCapabilities {
		t.Errorf("top failure stage = %v, want capabilities", stage)
	}
	if share := m.Run.FailureShare(agent.StageCapabilities); share < 0.4 {
		t.Errorf("capability share of failures = %.3f, want >= 0.4", share)
	}
}

func TestReuseGrowsWithPortfolio(t *testing.T) {
	// Gaw & Felten: password reuse rises as people accumulate accounts.
	ms, err := PortfolioSweep(context.Background(), baseScenario(), []int{2, 5, 10, 25, 50})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(ms); i++ {
		if ms[i].MeanReuseFraction < ms[i-1].MeanReuseFraction-0.03 {
			t.Errorf("reuse should grow with accounts: point %d %.3f vs %d %.3f",
				i, ms[i].MeanReuseFraction, i-1, ms[i-1].MeanReuseFraction)
		}
	}
	if ms[len(ms)-1].MeanReuseFraction < 2*ms[0].MeanReuseFraction {
		t.Errorf("reuse at 50 accounts (%.3f) should dwarf reuse at 2 (%.3f)",
			ms[len(ms)-1].MeanReuseFraction, ms[0].MeanReuseFraction)
	}
	// Compliance falls as the portfolio grows.
	if ms[len(ms)-1].ComplianceRate >= ms[0].ComplianceRate {
		t.Errorf("compliance should fall with portfolio size: %.3f -> %.3f",
			ms[0].ComplianceRate, ms[len(ms)-1].ComplianceRate)
	}
}

func TestExpiryHurts(t *testing.T) {
	// Adams & Sasse: frequent mandatory changes push users into
	// noncompliant coping.
	ms, err := ExpirySweep(context.Background(), baseScenario(), []int{0, 180, 90, 30})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(ms); i++ {
		if ms[i].ComplianceRate > ms[i-1].ComplianceRate+0.03 {
			t.Errorf("shorter expiry should not raise compliance: %.3f -> %.3f",
				ms[i-1].ComplianceRate, ms[i].ComplianceRate)
		}
	}
	if ms[3].MeanResetsPerYear <= ms[0].MeanResetsPerYear {
		t.Errorf("30-day expiry should cause more forgotten passwords than none: %.2f vs %.2f",
			ms[3].MeanResetsPerYear, ms[0].MeanResetsPerYear)
	}
}

func TestSSOAndVaultMitigateCapability(t *testing.T) {
	base, err := baseScenario().Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sso := baseScenario()
	sso.Tools.SSO = true
	sso.Seed = 43
	msso, err := sso.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	vault := baseScenario()
	vault.Tools.Vault = true
	vault.Seed = 44
	mvault, err := vault.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	both := baseScenario()
	both.Tools.SSO = true
	both.Tools.Vault = true
	both.Seed = 45
	mboth, err := both.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("compliance: base=%.3f sso=%.3f vault=%.3f both=%.3f",
		base.ComplianceRate, msso.ComplianceRate, mvault.ComplianceRate, mboth.ComplianceRate)
	if msso.ComplianceRate <= base.ComplianceRate {
		t.Error("SSO must raise compliance")
	}
	if mvault.ComplianceRate <= base.ComplianceRate {
		t.Error("vault must raise compliance")
	}
	if mboth.ComplianceRate < msso.ComplianceRate-0.05 || mboth.ComplianceRate < mvault.ComplianceRate-0.05 {
		t.Error("combined tools should be at least as good as each alone")
	}
	if msso.MeanReuseFraction >= base.MeanReuseFraction {
		t.Error("SSO must cut reuse")
	}
}

func TestStrengthMeterRaisesBits(t *testing.T) {
	base, err := baseScenario().Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	meter := baseScenario()
	meter.Tools.StrengthMeter = true
	meter.Seed = 46
	m, err := meter.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if m.MeanStrengthBits <= base.MeanStrengthBits {
		t.Errorf("meter must raise effective strength: %.1f vs %.1f",
			m.MeanStrengthBits, base.MeanStrengthBits)
	}
}

func TestMnemonicGuidanceWithoutDictionaryCheckIsWeak(t *testing.T) {
	// Kuo et al.: mnemonic advice without a phrase dictionary check leaves
	// many passwords enumerable.
	guided := baseScenario()
	guided.Policy.MnemonicGuidance = true
	guided.Policy.DictionaryCheck = false
	g, err := guided.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	checked := guided
	checked.Policy.DictionaryCheck = true
	checked.Seed = 47
	c, err := checked.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if g.MeanStrengthBits >= c.MeanStrengthBits {
		t.Errorf("dictionary check must raise effective bits under mnemonic guidance: %.1f vs %.1f",
			g.MeanStrengthBits, c.MeanStrengthBits)
	}
}

func TestRationaleTrainingHelpsMotivation(t *testing.T) {
	base := baseScenario()
	base.Accounts = 2 // small portfolio so capability is not binding
	base.N = 4000
	b, err := base.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	trained := base
	trained.Tools.RationaleTraining = true
	trained.Seed = 48
	tr, err := trained.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("compliance: base=%.3f rationale-trained=%.3f", b.ComplianceRate, tr.ComplianceRate)
	if tr.ComplianceRate <= b.ComplianceRate {
		t.Errorf("rationale training must raise compliance: %.3f vs %.3f",
			tr.ComplianceRate, b.ComplianceRate)
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := baseScenario().Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	b, err := baseScenario().Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if a.ComplianceRate != b.ComplianceRate || a.MeanReuseFraction != b.MeanReuseFraction {
		t.Error("scenario not reproducible for identical seeds")
	}
}

func TestSweepErrors(t *testing.T) {
	if _, err := PortfolioSweep(context.Background(), baseScenario(), nil); err == nil {
		t.Error("empty portfolio sweep: want error")
	}
	if _, err := ExpirySweep(context.Background(), baseScenario(), nil); err == nil {
		t.Error("empty expiry sweep: want error")
	}
}

func TestSimulatePortfolioVaultNeedsAdoption(t *testing.T) {
	// Vault adoption depends on tech expertise; novices adopt less.
	s := baseScenario()
	s.Tools.Vault = true
	nov := population.Novices().MeanProfile()
	exp := population.Experts().MeanProfile()
	rng := rand.New(rand.NewSource(9))
	novReuse, expReuse := 0.0, 0.0
	const n = 3000
	for i := 0; i < n; i++ {
		novReuse += simulatePortfolio(rng, &nov, &s, true).reuseFraction
		expReuse += simulatePortfolio(rng, &exp, &s, true).reuseFraction
	}
	if expReuse/n >= novReuse/n {
		t.Errorf("experts adopt vaults more and so reuse less: %.3f vs %.3f", expReuse/n, novReuse/n)
	}
}

// TestScenarioCompiledMatchesRun holds the compiled policy loop to Run
// across both policies and every tool, rationale training included (it
// rewrites the policy communication): the raw aggregates must be deeply
// equal.
func TestScenarioCompiledMatchesRun(t *testing.T) {
	ctx := context.Background()
	for _, pol := range []Policy{BasicPolicy(), StrongPolicy()} {
		for _, tools := range []Tools{{}, {SSO: true}, {Vault: true}, {StrengthMeter: true}, {RationaleTraining: true}} {
			s := Scenario{Policy: pol, Tools: tools, Accounts: 6, N: 200, Seed: 5, Workers: 2}
			want, err := s.Run(ctx)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := s.Compile()
			if err != nil {
				t.Fatalf("%s %+v: Compile: %v", pol.Name, tools, err)
			}
			got, err := sim.Runner{Seed: s.Seed, N: s.N, Workers: s.Workers}.RunProgram(ctx, prog)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want.Run, got) {
				t.Errorf("%s %+v: compiled scenario differs from Run", pol.Name, tools)
			}
		}
	}
}
