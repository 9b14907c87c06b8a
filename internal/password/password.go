// Package password implements the paper's second case study (§3.2):
// organizational password policies. It models the policy as a communication
// processed through the framework pipeline (users must receive, understand,
// remember, and intend to follow it) and then plays out the binding
// constraint the paper identifies — human memory — over a simulated account
// portfolio: capacity limits, expiry-driven rotation, and the coping
// behaviors users actually adopt (reuse, writing down, sharing), plus the
// mitigation tools §3.2 proposes (single sign-on, password vaults, strength
// meters, mnemonic guidance, rationale training).
package password

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"hitl/internal/agent"
	"hitl/internal/comms"
	"hitl/internal/gems"
	"hitl/internal/population"
	"hitl/internal/sim"
	"hitl/internal/stimuli"
)

// Policy is an organizational password policy.
type Policy struct {
	// Name labels the policy.
	Name string
	// MinLength is the minimum password length.
	MinLength int
	// RequiredClasses is how many character classes (lower, upper, digit,
	// symbol) a password must mix, 1..4.
	RequiredClasses int
	// ExpiryDays forces rotation every so many days; 0 disables expiry.
	ExpiryDays int
	// ProhibitReuse forbids using one password on multiple systems.
	ProhibitReuse bool
	// ProhibitWriteDown forbids writing passwords down.
	ProhibitWriteDown bool
	// ProhibitSharing forbids sharing passwords with colleagues.
	ProhibitSharing bool
	// DictionaryCheck rejects passwords built on dictionary words or famous
	// phrases at creation time (§2.4 mitigation).
	DictionaryCheck bool
	// MnemonicGuidance advises building passwords from memorable phrases.
	MnemonicGuidance bool
}

// Validate checks the policy.
func (p Policy) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("password: policy has empty name")
	}
	if p.MinLength < 1 || p.MinLength > 64 {
		return fmt.Errorf("password: %s: MinLength %d out of [1,64]", p.Name, p.MinLength)
	}
	if p.RequiredClasses < 1 || p.RequiredClasses > 4 {
		return fmt.Errorf("password: %s: RequiredClasses %d out of [1,4]", p.Name, p.RequiredClasses)
	}
	if p.ExpiryDays < 0 {
		return fmt.Errorf("password: %s: negative expiry", p.Name)
	}
	return nil
}

// BasicPolicy is a lenient legacy policy: 8 characters, one class, no
// expiry, no behavioral prohibitions.
func BasicPolicy() Policy {
	return Policy{Name: "basic", MinLength: 8, RequiredClasses: 1}
}

// StrongPolicy is a typical strict enterprise policy: 12 characters, three
// classes, 90-day expiry, and every behavioral prohibition.
func StrongPolicy() Policy {
	return Policy{
		Name: "strong", MinLength: 12, RequiredClasses: 3, ExpiryDays: 90,
		ProhibitReuse: true, ProhibitWriteDown: true, ProhibitSharing: true,
		DictionaryCheck: true,
	}
}

// Tools are the §3.2 mitigations that can accompany a policy.
type Tools struct {
	// SSO deploys single sign-on, collapsing most accounts onto one
	// credential.
	SSO bool
	// Vault deploys a password manager that stores passwords, removing the
	// memory burden for users who adopt it.
	Vault bool
	// StrengthMeter gives feedback on password quality at creation time.
	StrengthMeter bool
	// RationaleTraining explains why the policy exists, raising motivation.
	RationaleTraining bool
}

// Scenario is one experimental configuration.
type Scenario struct {
	// Policy under test.
	Policy Policy
	// Tools deployed alongside it.
	Tools Tools
	// Accounts is the portfolio size each user must manage.
	Accounts int
	// DurationDays is the simulated period (drives expiry rotations).
	DurationDays int
	// Population describes the users; defaults to Enterprise.
	Population population.Spec
	// N subjects and Seed.
	N    int
	Seed int64
	// Workers is the engine parallelism; 0 means GOMAXPROCS. Results are
	// bit-identical at any worker count.
	Workers int
}

func (s *Scenario) setDefaults() {
	if s.Population.Name == "" {
		s.Population = population.Enterprise()
	}
	if s.Accounts == 0 {
		s.Accounts = 15
	}
	if s.DurationDays == 0 {
		s.DurationDays = 365
	}
	if s.N == 0 {
		s.N = 2000
	}
}

// Validate checks the scenario.
func (s Scenario) Validate() error {
	if err := s.Policy.Validate(); err != nil {
		return err
	}
	if s.Accounts < 1 {
		return fmt.Errorf("password: Accounts %d < 1", s.Accounts)
	}
	if s.DurationDays < 1 {
		return fmt.Errorf("password: DurationDays %d < 1", s.DurationDays)
	}
	if s.N < 1 {
		return fmt.Errorf("password: N %d < 1", s.N)
	}
	return nil
}

// Metrics aggregates a scenario run.
type Metrics struct {
	// Run is the raw result; Heeded means fully policy-compliant behavior.
	Run *sim.Result
	// ComplianceRate is the fraction of fully compliant users.
	ComplianceRate float64
	// MeanReuseFraction is the average fraction of accounts sharing a
	// password with another account.
	MeanReuseFraction float64
	// WriteDownRate and ShareRate are the fractions of users who wrote
	// passwords down / shared them.
	WriteDownRate float64
	ShareRate     float64
	// MeanResetsPerYear is the average forgotten-password reset rate.
	MeanResetsPerYear float64
	// MeanStrengthBits is the average effective entropy of created
	// passwords after accounting for human choice patterns.
	MeanStrengthBits float64
}

// complianceCost estimates how burdensome the policy feels, which feeds the
// motivation stage (perceived inconvenience before organizational
// incentives are weighed in).
func (p Policy) complianceCost(accounts int, tools Tools) float64 {
	cost := 0.10 + 0.015*float64(p.MinLength-8) + 0.04*float64(p.RequiredClasses-1)
	if p.ExpiryDays > 0 {
		cost += 0.12 * math.Min(1, 90/float64(p.ExpiryDays))
	}
	cost += 0.004 * float64(accounts)
	if tools.SSO {
		cost -= 0.12
	}
	if tools.Vault {
		cost -= 0.15
	}
	if cost < 0 {
		return 0
	}
	if cost > 1 {
		return 1
	}
	return cost
}

// TheoreticalBits is the nominal entropy of a minimal policy-compliant
// password drawn uniformly.
func (p Policy) TheoreticalBits() float64 {
	charset := []float64{26, 52, 62, 94}[p.RequiredClasses-1]
	return float64(p.MinLength) * math.Log2(charset)
}

// Run executes the scenario. Cancellation via ctx aborts the underlying
// Monte Carlo run and returns ctx.Err().
func (s Scenario) Run(ctx context.Context) (Metrics, error) {
	(&s).setDefaults()
	if err := s.Validate(); err != nil {
		return Metrics{}, err
	}
	res, err := sim.Runner{Seed: s.Seed, N: s.N, Workers: s.Workers, Keys: portfolioKeys}.Run(ctx, s.interpreted())
	if err != nil {
		return Metrics{}, err
	}
	return MetricsFrom(res), nil
}

// interpreted is the scenario's subject loop over agent.Receivers, shared
// by Run and the program Compile returns, which replays sampled subjects
// on it. Pooled receivers keep the per-subject hot path allocation-free;
// the scenario synthesizes its own Outcome, so no traces are collected.
func (s *Scenario) interpreted() sim.SubjectFunc {
	enc := s.policyEncounter()
	return s.subject(&sync.Pool{New: func() any { return &interpretedReader{enc: enc} }})
}

// Compile lowers the scenario into a loop program: the subject loop Run
// executes, evaluating each reading of the policy with lowered stage
// parameters over agent.Registers instead of a Receiver. The registers
// carry habituation across readings and the skill a successful reading
// installs. RunProgram on the result is bit-identical to Run.
func (s Scenario) Compile() (*sim.Program, error) {
	(&s).setDefaults()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	sp, err := agent.LowerEncounter(nil, s.policyEncounter(), false, agent.Skill{})
	if err != nil {
		return nil, err
	}
	pool := &sync.Pool{New: func() any { return &loweredReader{sp: sp} }}
	prog, err := sim.NewLoopProgram(s.Population, portfolioKeys, s.subject(pool))
	if err != nil {
		return nil, err
	}
	prog.Interpreted = s.interpreted()
	return prog, nil
}

// policyEncounter is the policy as a communication. Users see password
// guidance repeatedly — at enrollment, in handbooks, and re-stated at
// password creation time (Primed, no apply delay).
func (s *Scenario) policyEncounter() agent.Encounter {
	policyComm := comms.PasswordPolicyDocument()
	if s.Tools.RationaleTraining {
		policyComm.Design.Explanation = 0.8
		policyComm.Design.Interactivity = 0.6
	}
	return agent.Encounter{
		Comm:          policyComm,
		Env:           stimuli.Quiet(),
		HazardPresent: true,
		Primed:        true,
		Task: gems.Task{
			Name: "create-compliant-password", Steps: 1,
			CueQuality: 0.8, FeedbackQuality: 0.7, ControlClarity: 0.9,
			PlanSoundness: 0.95, CognitiveDemand: 0.4,
		},
		// Organizational incentives (consequences, enforcement culture)
		// offset a large share of the perceived burden.
		ComplianceCost: 0.4 * s.Policy.complianceCost(s.Accounts, s.Tools),
	}
}

// policyReader evaluates one subject's readings of the policy in order,
// carrying the receiver state they read from each to the next. Run uses
// an agent.Receiver, Compile a lowered encounter over agent.Registers;
// the subject loop is the same.
type policyReader interface {
	// reset starts a new subject.
	reset(prof population.Profile)
	// read evaluates one reading of the policy.
	read(rng *rand.Rand) (agent.Result, error)
}

type interpretedReader struct {
	enc agent.Encounter
	r   agent.Receiver
}

func (ir *interpretedReader) reset(prof population.Profile) { ir.r.Reset(prof) }

func (ir *interpretedReader) read(rng *rand.Rand) (agent.Result, error) {
	return ir.r.Process(rng, ir.enc)
}

type loweredReader struct {
	sp   *agent.StageParams
	prof population.Profile
	reg  agent.Registers
}

func (lr *loweredReader) reset(prof population.Profile) {
	lr.prof = prof
	lr.reg = lr.sp.Fresh()
}

func (lr *loweredReader) read(rng *rand.Rand) (agent.Result, error) {
	return lr.sp.Eval(rng, &lr.prof, &lr.reg), nil
}

// The observation slots each subject records, and portfolioKeys, their
// names in the run's Result.Values; Run and Compile share them.
const (
	obsReuseFraction = iota
	obsWroteDown
	obsShared
	obsResets
	obsStrengthBits
)

var portfolioKeys = []string{
	obsReuseFraction: "reuse_fraction",
	obsWroteDown:     "wrote_down",
	obsShared:        "shared",
	obsResets:        "resets",
	obsStrengthBits:  "strength_bits",
}

// subject is the scenario's subject loop, shared by Run and Compile: the
// policy read through a policyReader from pool, then the portfolio game.
func (s *Scenario) subject(pool *sync.Pool) sim.SubjectFunc {
	return func(rng *rand.Rand, i int) (sim.Outcome, error) {
		prof := s.Population.Sample(rng)
		r := pool.Get().(policyReader)
		defer pool.Put(r)
		r.reset(prof)

		// Stage 1: the policy as a communication. §3.2: most users know
		// the guidance, so delivery/processing failures mostly wash out
		// over repeated exposures, and the pipeline's verdict concentrates
		// in intention (beliefs, motivation). Early-stage failures are
		// retried up to three exposures; a belief or motivation failure is
		// a decision and stands.
		var ar agent.Result
		for attempt := 0; attempt < 3; attempt++ {
			var err error
			ar, err = r.read(rng)
			if err != nil {
				return sim.Outcome{}, err
			}
			if ar.Heeded ||
				ar.FailedStage == agent.StageAttitudesBeliefs ||
				ar.FailedStage == agent.StageMotivation ||
				ar.FailedStage == agent.StageCapabilities ||
				ar.FailedStage == agent.StageBehavior {
				break
			}
		}
		intends := ar.Heeded

		// Stage 2: the memory/portfolio game over the simulated period.
		u := simulatePortfolio(rng, &prof, s, intends)

		out := sim.Outcome{Heeded: u.compliant, FailedStage: agent.StageNone}
		out.Obs.Set(obsReuseFraction, u.reuseFraction)
		out.Obs.Set(obsWroteDown, b2f(u.wroteDown))
		out.Obs.Set(obsShared, b2f(u.shared))
		out.Obs.Set(obsResets, u.resetsPerYear)
		out.Obs.Set(obsStrengthBits, u.strengthBits)
		if !u.compliant {
			switch {
			case !intends:
				// The pipeline says why: belief, motivation, retention...
				out.FailedStage = ar.FailedStage
			default:
				// Intended to comply but could not: a capability failure —
				// the paper's headline diagnosis for password policies.
				out.FailedStage = agent.StageCapabilities
			}
		}
		return out, nil
	}
}

// MetricsFrom derives the portfolio metrics from a raw per-subject
// aggregate. It is a pure function of res, so the same metrics fall out
// of a fresh run or of shard aggregates merged by sim.MergeResults.
func MetricsFrom(res *sim.Result) Metrics {
	m := Metrics{Run: res, ComplianceRate: res.HeedRate()}
	if v, _, err := res.MeanValue("reuse_fraction"); err == nil {
		m.MeanReuseFraction = v
	}
	if v, _, err := res.MeanValue("wrote_down"); err == nil {
		m.WriteDownRate = v
	}
	if v, _, err := res.MeanValue("shared"); err == nil {
		m.ShareRate = v
	}
	if v, _, err := res.MeanValue("resets"); err == nil {
		m.MeanResetsPerYear = v
	}
	if v, _, err := res.MeanValue("strength_bits"); err == nil {
		m.MeanStrengthBits = v
	}
	return m
}

// userOutcome is the per-user portfolio result.
type userOutcome struct {
	compliant     bool
	reuseFraction float64
	wroteDown     bool
	shared        bool
	resetsPerYear float64
	strengthBits  float64
}

// simulatePortfolio plays out memory capacity vs portfolio demands.
func simulatePortfolio(rng *rand.Rand, prof *population.Profile, s *Scenario, intends bool) userOutcome {
	var u userOutcome

	accounts := s.Accounts
	if s.Tools.SSO {
		// SSO collapses most internal accounts onto one credential.
		accounts = 1 + (s.Accounts-1)/8
	}

	vaultAdopted := false
	if s.Tools.Vault {
		// Adoption depends on tech comfort; deployed != used.
		vaultAdopted = rng.Float64() < 0.35+0.6*prof.TechExpertise()
	}

	// Memory capacity in "distinct strong passwords held reliably".
	capacity := 2 + 8*prof.MemoryCapacity()
	// Harder passwords consume more capacity.
	difficulty := math.Sqrt(float64(s.Policy.MinLength)/8) * (1 + 0.15*float64(s.Policy.RequiredClasses-1))
	capacity /= difficulty
	// Expiry-driven rotation interferes with consolidation (§3.2: frequent
	// changes exacerbate the memory problem).
	rotations := 0.0
	if s.Policy.ExpiryDays > 0 {
		rotations = float64(s.DurationDays) / float64(s.Policy.ExpiryDays)
		capacity /= 1 + 0.08*rotations
	}
	if capacity < 0.5 {
		capacity = 0.5
	}

	needed := float64(accounts)
	if vaultAdopted {
		needed = 1 // only the master password must be remembered
	}

	excess := needed - capacity
	if excess < 0 {
		excess = 0
	}

	if !intends {
		// Users who never intended to comply reuse aggressively and pick
		// the weakest accepted passwords.
		u.reuseFraction = clamp01(0.6 + 0.3*rng.Float64())
		u.wroteDown = rng.Float64() < 0.3
		u.shared = rng.Float64() < 0.15
		u.resetsPerYear = poissonF(rng, 0.5+0.2*rotations)
		u.strengthBits = effectiveBits(rng, s, prof, false)
		u.compliant = false
		return u
	}

	// Coping under capacity pressure.
	if needed > 0 {
		u.reuseFraction = clamp01(excess / needed)
	}
	pWrite := clamp01((0.1 + 0.5*clamp01(excess/math.Max(needed, 1))) * (1 - 0.55*prof.ComplianceTendency()))
	u.wroteDown = rng.Float64() < pWrite
	pShare := 0.06 * (1 - 0.5*prof.ComplianceTendency())
	u.shared = rng.Float64() < pShare
	u.resetsPerYear = poissonF(rng, 0.4*excess+0.15*rotations)
	u.strengthBits = effectiveBits(rng, s, prof, true)

	u.compliant = true
	if s.Policy.ProhibitReuse && u.reuseFraction > 0.05 {
		u.compliant = false
	}
	if s.Policy.ProhibitWriteDown && u.wroteDown {
		u.compliant = false
	}
	if s.Policy.ProhibitSharing && u.shared {
		u.compliant = false
	}
	return u
}

// effectiveBits estimates the real entropy of the user's passwords after
// human choice patterns (Kuo et al.: mnemonic users pick famous phrases;
// meters and dictionary checks push toward the theoretical maximum).
func effectiveBits(rng *rand.Rand, s *Scenario, prof *population.Profile, careful bool) float64 {
	theo := s.Policy.TheoreticalBits()
	human := 0.4
	if careful {
		human += 0.1 * prof.ComplianceTendency()
	}
	if s.Tools.StrengthMeter {
		human += 0.12
	}
	if s.Policy.DictionaryCheck {
		human += 0.08
	}
	bits := theo * clamp01(human)
	if s.Policy.MnemonicGuidance && !s.Policy.DictionaryCheck {
		// Kuo et al.: many mnemonic users pick famous phrases that fall to
		// a phrase dictionary.
		if rng.Float64() < 0.55 {
			if bits > 22 {
				bits = 22
			}
		}
	}
	return bits
}

func clamp01(v float64) float64 {
	if v < 0 || math.IsNaN(v) {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// poissonF samples a Poisson count as a float64.
func poissonF(rng *rand.Rand, mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return float64(k)
		}
		k++
		if k > 1000 {
			return float64(k)
		}
	}
}

// PortfolioSweep runs the scenario across portfolio sizes, returning one
// metrics point per size (the Gaw & Felten reuse curve).
func PortfolioSweep(ctx context.Context, base Scenario, sizes []int) ([]Metrics, error) {
	if len(sizes) == 0 {
		return nil, fmt.Errorf("password: empty sweep")
	}
	out := make([]Metrics, len(sizes))
	for i, n := range sizes {
		sc := base
		sc.Accounts = n
		sc.Seed = base.Seed + int64(i)*104729
		m, err := sc.Run(ctx)
		if err != nil {
			return nil, fmt.Errorf("password: sweep size %d: %w", n, err)
		}
		out[i] = m
	}
	return out, nil
}

// ExpirySweep runs the scenario across expiry settings (0 = never).
func ExpirySweep(ctx context.Context, base Scenario, expiries []int) ([]Metrics, error) {
	if len(expiries) == 0 {
		return nil, fmt.Errorf("password: empty sweep")
	}
	out := make([]Metrics, len(expiries))
	for i, e := range expiries {
		sc := base
		sc.Policy.ExpiryDays = e
		sc.Seed = base.Seed + int64(i)*130363
		m, err := sc.Run(ctx)
		if err != nil {
			return nil, fmt.Errorf("password: sweep expiry %d: %w", e, err)
		}
		out[i] = m
	}
	return out, nil
}
