// Package phishing implements the paper's first case study (§3.1): browser
// anti-phishing warnings. It provides the four warning conditions the cited
// studies compare (Firefox active, IE active, IE passive, passive toolbar),
// a single-encounter lab study that reproduces the Egelman et al. heed-rate
// shape, a longitudinal campaign simulation with false positives and
// habituation, and the §3.1 mitigation ablations (distinct look,
// explanation of why, anti-phishing training).
package phishing

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
	"hitl/internal/telemetry"
)

// receiverPool hands each worker a reusable receiver: Reset replaces
// NewReceiver's per-subject allocations on the Monte Carlo hot path.
// Collect opts the pooled receivers into trace capture, which scenarios
// enable only when a trace recorder is attached to the run's context.
func receiverPool(collect bool) *sync.Pool {
	return &sync.Pool{New: func() any { return &agent.Receiver{CollectTrace: collect} }}
}

// Condition is one experimental arm: a warning design plus optional
// pre-training and interference.
type Condition struct {
	// Name labels the condition in tables.
	Name string
	// Warning is the communication under test.
	Warning comms.Communication
	// PreTrained gives every subject interactive anti-phishing training
	// before the encounter.
	PreTrained bool
	// Interference optionally attacks the delivery.
	Interference stimuli.Interference
}

// StandardConditions returns the four §3.1 warning conditions in
// effectiveness order (per the studies): Firefox active, IE active,
// IE passive, passive toolbar.
func StandardConditions() []Condition {
	return []Condition{
		{Name: "firefox-active", Warning: comms.FirefoxActiveWarning()},
		{Name: "ie-active", Warning: comms.IEActiveWarning()},
		{Name: "ie-passive", Warning: comms.IEPassiveWarning()},
		{Name: "toolbar-passive", Warning: comms.ToolbarPassiveIndicator()},
	}
}

// Study configures a single-encounter lab study: each subject, drawn fresh
// from the population, receives one phishing email and one warning.
type Study struct {
	// Population describes the subjects; defaults to the general public.
	Population population.Spec
	// Env is the encounter environment; defaults to Busy (subjects have a
	// primary task, as in the studies).
	Env stimuli.Environment
	// Condition is the experimental arm.
	Condition Condition
	// N is the number of subjects.
	N int
	// Seed makes the study reproducible.
	Seed int64
	// Workers is the engine parallelism; 0 means GOMAXPROCS. Results are
	// bit-identical at any worker count.
	Workers int
}

func (s *Study) setDefaults() {
	if s.Population.Name == "" {
		s.Population = population.GeneralPublic()
	}
	if s.Env == (stimuli.Environment{}) {
		s.Env = stimuli.Busy()
	}
	if s.N == 0 {
		s.N = 2000
	}
}

// StudyResult aggregates a study arm.
type StudyResult struct {
	Condition string
	// Run is the raw simulation result (heed rate, failure histogram).
	Run *sim.Result
}

// HeedRate is the fraction of subjects protected from the phish.
func (r StudyResult) HeedRate() float64 { return r.Run.HeedRate() }

// Run executes the study. Cancellation via ctx aborts the underlying
// Monte Carlo run and returns ctx.Err().
func (s Study) Run(ctx context.Context) (StudyResult, error) {
	(&s).setDefaults()
	if err := s.Condition.Warning.Validate(); err != nil {
		return StudyResult{}, fmt.Errorf("phishing: %w", err)
	}
	runner := sim.Runner{Seed: s.Seed, N: s.N, Workers: s.Workers}
	// Traces are only materialized when a recorder will sample them.
	res, err := runner.Run(ctx, s.subject(telemetry.RecorderFromContext(ctx) != nil))
	if err != nil {
		return StudyResult{}, err
	}
	return StudyResult{Condition: s.Condition.Name, Run: res}, nil
}

// subject is the study's interpreted subject, shared by Run and the
// program Compile returns, which replays sampled subjects on it: a fresh
// profile on a pooled receiver, optional pre-training, and the one
// warning encounter. collect turns on stage-trace capture.
func (s *Study) subject(collect bool) sim.SubjectFunc {
	pool := receiverPool(collect)
	return func(rng *rand.Rand, i int) (sim.Outcome, error) {
		prof := s.Population.Sample(rng)
		r := pool.Get().(*agent.Receiver)
		defer pool.Put(r)
		r.Reset(prof)
		if s.Condition.PreTrained {
			r.Train(s.Condition.Warning.Topic, agent.Skill{
				Level: 0.85, Interactivity: 0.85, AcquiredDay: 0,
			})
		}
		enc := agent.Encounter{
			Comm:          s.Condition.Warning,
			Env:           s.Env,
			Interference:  s.Condition.Interference,
			HazardPresent: true,
			Task:          gems.LeaveSuspiciousSite(),
		}
		ar, err := r.Process(rng, enc)
		if err != nil {
			return sim.Outcome{}, err
		}
		return sim.FromAgentResult(ar), nil
	}
}

// Compile lowers the study into a sim.Program: the same population,
// encounter, and training its Run evaluates per subject, folded once into
// flat stage thresholds. RunProgram on the result is bit-identical to Run
// (the compiled evaluator replays the exact per-subject draw sequence).
// It returns an error wrapping sim.ErrNotCompilable for shapes only the
// interpreter reproduces.
func (s Study) Compile() (*sim.Program, error) {
	(&s).setDefaults()
	if err := s.Condition.Warning.Validate(); err != nil {
		return nil, fmt.Errorf("phishing: %w", err)
	}
	enc := agent.Encounter{
		Comm:          s.Condition.Warning,
		Env:           s.Env,
		Interference:  s.Condition.Interference,
		HazardPresent: true,
		Task:          gems.LeaveSuspiciousSite(),
	}
	prog, err := sim.NewProgram(s.Population, nil, enc, s.Condition.PreTrained, agent.Skill{
		Level: 0.85, Interactivity: 0.85, AcquiredDay: 0,
	})
	if err != nil {
		return nil, err
	}
	prog.Interpreted = s.subject(true)
	return prog, nil
}

// CompareConditions runs the same study over multiple conditions with
// derived seeds and returns results in input order.
func CompareConditions(ctx context.Context, seed int64, n int, conds []Condition) ([]StudyResult, error) {
	return RunConditions(ctx, population.Spec{}, seed, n, 0, conds)
}

// RunConditions is CompareConditions with an explicit population and worker
// parallelism: condition i runs a Study at seed + i*7919, so results are
// bit-identical to CompareConditions when pop is the zero Spec (which
// defaults to the general public) and workers is 0.
func RunConditions(ctx context.Context, pop population.Spec, seed int64, n, workers int, conds []Condition) ([]StudyResult, error) {
	if len(conds) == 0 {
		return nil, fmt.Errorf("phishing: no conditions")
	}
	out := make([]StudyResult, len(conds))
	for i, c := range conds {
		st := Study{Condition: c, Population: pop, N: n, Seed: seed + int64(i)*7919, Workers: workers}
		res, err := st.Run(ctx)
		if err != nil {
			return nil, fmt.Errorf("phishing: condition %s: %w", c.Name, err)
		}
		out[i] = res
	}
	return out, nil
}

// Mitigation variants for the §3.1 ablation (E2).

// WithDistinctLook returns the condition with the warning made visually
// distinct from routine browser warnings ("making it look less similar to
// non-critical warnings").
func WithDistinctLook(c Condition) Condition {
	c.Name = c.Name + "+distinct"
	c.Warning.Design.LookAlike = 0.08
	return c
}

// WithExplanation returns the condition with the warning explaining why the
// site is suspicious and what is at risk.
func WithExplanation(c Condition) Condition {
	c.Name = c.Name + "+why"
	if c.Warning.Design.Explanation < 0.8 {
		c.Warning.Design.Explanation = 0.8
	}
	if c.Warning.Design.InstructionSpecificity < 0.8 {
		c.Warning.Design.InstructionSpecificity = 0.8
	}
	return c
}

// WithTraining returns the condition with subjects pre-trained by
// interactive anti-phishing training (Anti-Phishing Phil style).
func WithTraining(c Condition) Condition {
	c.Name = c.Name + "+training"
	c.PreTrained = true
	return c
}

// Campaign is a longitudinal simulation: each subject handles a stream of
// emails over many days; phishing emails trigger the warning with the
// detector's true-positive rate, legitimate emails occasionally trigger
// false positives, and habituation and trust erosion accumulate.
type Campaign struct {
	// Population describes the subjects; defaults to the general public.
	Population population.Spec
	// Env is the environment; defaults to Busy.
	Env stimuli.Environment
	// Warning is the warning design in use.
	Warning comms.Communication
	// Days is the campaign length; one email-handling session per day.
	Days int
	// PhishPerDay and LegitPerDay are expected email counts.
	PhishPerDay float64
	LegitPerDay float64
	// DetectorTPR is the probability the warning fires on a phish;
	// DetectorFPR the probability it fires on a legitimate email.
	DetectorTPR float64
	DetectorFPR float64
	// N subjects, Seed for reproducibility.
	N    int
	Seed int64
	// Workers is the engine parallelism; 0 means GOMAXPROCS.
	Workers int
	// Lookalike is the attacker's look-alike similarity in [0, 1]: how
	// closely lure sites mimic the real thing. Higher values slip past the
	// detector more often (effective TPR shrinks) and fool unaided users
	// more often (self-detection shrinks). Zero is the classic campaign —
	// both effects vanish and the sampling stream is bit-identical to a
	// Campaign that predates the field.
	Lookalike float64
	// Targeting is how strongly the attacker aims volume at susceptible
	// users, in [0, 1]: each subject's phish rate scales with their
	// (1 - expertise) relative to the population midpoint. Zero sends
	// everyone the same volume (the classic campaign).
	Targeting float64
}

func (c *Campaign) setDefaults() {
	if c.Population.Name == "" {
		c.Population = population.GeneralPublic()
	}
	if c.Env == (stimuli.Environment{}) {
		c.Env = stimuli.Busy()
	}
	if c.Days == 0 {
		c.Days = 30
	}
	if c.PhishPerDay == 0 {
		c.PhishPerDay = 0.2
	}
	if c.LegitPerDay == 0 {
		c.LegitPerDay = 10
	}
	if c.DetectorTPR == 0 {
		c.DetectorTPR = 0.9
	}
	if c.N == 0 {
		c.N = 1000
	}
}

// Validate checks campaign parameters.
func (c Campaign) Validate() error {
	if c.Days < 1 || c.N < 1 {
		return fmt.Errorf("phishing: campaign needs Days >= 1 and N >= 1")
	}
	if c.PhishPerDay < 0 || c.LegitPerDay < 0 {
		return fmt.Errorf("phishing: negative email rates")
	}
	if c.DetectorTPR < 0 || c.DetectorTPR > 1 || c.DetectorFPR < 0 || c.DetectorFPR > 1 {
		return fmt.Errorf("phishing: detector rates out of [0,1]")
	}
	if c.Lookalike < 0 || c.Lookalike > 1 {
		return fmt.Errorf("phishing: lookalike %v out of [0,1]", c.Lookalike)
	}
	if c.Targeting < 0 || c.Targeting > 1 {
		return fmt.Errorf("phishing: targeting %v out of [0,1]", c.Targeting)
	}
	return c.Warning.Validate()
}

// CampaignMetrics summarizes a campaign run.
type CampaignMetrics struct {
	// Run is the per-subject aggregate: Heeded means the subject was never
	// successfully phished.
	Run *sim.Result
	// MeanPhishEncounters and MeanFalseAlarms are per-subject averages.
	MeanPhishEncounters float64
	MeanFalseAlarms     float64
	// VictimRate is the fraction of subjects phished at least once.
	VictimRate float64
	// PerEncounterVictimRate is the fraction of phishing encounters that
	// succeeded, across all subjects. Unlike VictimRate it does not
	// saturate over long campaigns.
	PerEncounterVictimRate float64
}

// Run executes the campaign. Cancellation via ctx aborts the underlying
// Monte Carlo run and returns ctx.Err().
func (c Campaign) Run(ctx context.Context) (CampaignMetrics, error) {
	(&c).setDefaults()
	if err := c.Validate(); err != nil {
		return CampaignMetrics{}, err
	}
	res, err := sim.Runner{Seed: c.Seed, N: c.N, Workers: c.Workers, Keys: campaignKeys}.Run(ctx, c.interpreted())
	if err != nil {
		return CampaignMetrics{}, err
	}
	return CampaignMetricsFrom(res), nil
}

// interpreted is the campaign's subject loop over agent.Receivers, shared
// by Run and the program Compile returns, which replays sampled subjects
// on it. The campaign synthesizes its own Outcome from many encounters, so
// it never collects per-encounter traces; pooled receivers keep the
// multi-day loop allocation-free.
func (c *Campaign) interpreted() sim.SubjectFunc {
	return c.subject(&sync.Pool{New: func() any { return &interpretedReceiver{c: c} }})
}

// Compile lowers the campaign into a loop program: the subject loop Run
// executes, evaluating each warning encounter with lowered stage
// parameters over agent.Registers instead of a Receiver. RunProgram on
// the result is bit-identical to Run. It returns an error wrapping
// sim.ErrNotCompilable for warnings only the interpreter reproduces,
// including any that installs skills: the loop spans days, and a skill
// acquired on one day has decayed by a per-subject amount on the next.
func (c Campaign) Compile() (*sim.Program, error) {
	(&c).setDefaults()
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if c.Warning.Kind == comms.Policy {
		return nil, fmt.Errorf("%w: a %s communication's skill decays across campaign days", sim.ErrNotCompilable, c.Warning.Kind)
	}
	// Without skills nothing an encounter evaluates depends on its day, so
	// day 0's lowering serves every day.
	enc := c.encounter(0, true)
	hazard, err := agent.LowerEncounter(nil, enc, false, agent.Skill{})
	if err != nil {
		return nil, err
	}
	enc.HazardPresent = false
	falseAlarm, err := agent.LowerEncounter(nil, enc, false, agent.Skill{})
	if err != nil {
		return nil, err
	}
	pool := &sync.Pool{New: func() any { return &loweredReceiver{hazard: hazard, falseAlarm: falseAlarm} }}
	prog, err := sim.NewLoopProgram(c.Population, campaignKeys, c.subject(pool))
	if err != nil {
		return nil, err
	}
	prog.Interpreted = c.interpreted()
	return prog, nil
}

// encounter is the warning firing on day, on a phish (hazard) or on a
// legitimate email.
func (c *Campaign) encounter(day int, hazard bool) agent.Encounter {
	return agent.Encounter{
		Comm: c.Warning, Env: c.Env,
		HazardPresent: hazard, Day: float64(day),
		Task: gems.LeaveSuspiciousSite(),
	}
}

// campaignReceiver evaluates one subject's warning encounters in order,
// carrying the receiver state they read from each to the next. Run uses
// an agent.Receiver, Compile lowered encounters over agent.Registers; the
// subject loop is the same.
type campaignReceiver interface {
	// reset starts a new subject.
	reset(prof population.Profile)
	// encounter evaluates the warning firing on day.
	encounter(rng *rand.Rand, day int, hazard bool) (agent.Result, error)
	// phishingState is the receiver state selfDetects reads: whether the
	// mental model of phishing is accurate, and the phishing skill level
	// (0 without one).
	phishingState() (accurateModel bool, skill float64)
}

type interpretedReceiver struct {
	c *Campaign
	r agent.Receiver
}

func (ir *interpretedReceiver) reset(prof population.Profile) { ir.r.Reset(prof) }

func (ir *interpretedReceiver) encounter(rng *rand.Rand, day int, hazard bool) (agent.Result, error) {
	return ir.r.Process(rng, ir.c.encounter(day, hazard))
}

func (ir *interpretedReceiver) phishingState() (bool, float64) {
	s, _ := ir.r.SkillFor("phishing")
	return ir.r.HasAccurateModel("phishing"), s.Level
}

type loweredReceiver struct {
	hazard, falseAlarm *agent.StageParams
	prof               population.Profile
	reg                agent.Registers
}

func (lr *loweredReceiver) reset(prof population.Profile) {
	lr.prof = prof
	lr.reg = lr.hazard.Fresh()
}

func (lr *loweredReceiver) encounter(rng *rand.Rand, _ int, hazard bool) (agent.Result, error) {
	sp := lr.falseAlarm
	if hazard {
		sp = lr.hazard
	}
	return sp.Eval(rng, &lr.prof, &lr.reg), nil
}

// phishingState: a lowered warning neither trains nor installs skills, so
// the mental model is the profile's and there is no skill.
func (lr *loweredReceiver) phishingState() (bool, float64) {
	return lr.prof.AccurateMentalModel, 0
}

// The observation slots each campaign subject records, and campaignKeys,
// their names in the run's Result.Values; Run and Compile share them.
const (
	obsPhishSeen = iota
	obsPhishedCount
	obsFalseAlarms
)

var campaignKeys = []string{
	obsPhishSeen:    "phish_seen",
	obsPhishedCount: "phished_count",
	obsFalseAlarms:  "false_alarms",
}

// subject is the campaign's subject loop, shared by Run and Compile: each
// subject handles Days of legitimate and phishing email, and every
// encounter the warning fires on goes to a campaignReceiver from pool.
func (c *Campaign) subject(pool *sync.Pool) sim.SubjectFunc {
	// Attacker effects are threshold shifts, never extra draws, so a zero
	// Lookalike/Targeting campaign consumes the exact stream the classic
	// campaign always has.
	effTPR := c.DetectorTPR * (1 - 0.5*c.Lookalike)
	legit := newPoisson(c.LegitPerDay)
	return func(rng *rand.Rand, i int) (sim.Outcome, error) {
		prof := c.Population.Sample(rng)
		// Targeted volume: susceptible subjects (low expertise) see more
		// phish, savvy ones less, symmetric around the 0.5 midpoint.
		phish := newPoisson(c.PhishPerDay * (1 + c.Targeting*(0.5-prof.Expertise())))
		r := pool.Get().(campaignReceiver)
		defer pool.Put(r)
		r.reset(prof)
		phished := false
		phishSeen, phishedCount, falseAlarms := 0, 0, 0
		var firstFailure agent.Stage = agent.StageNone
		for day := 0; day < c.Days; day++ {
			// Legitimate emails that false-positive the warning.
			nLegit := legit.sample(rng)
			for e := 0; e < nLegit; e++ {
				if rng.Float64() >= c.DetectorFPR {
					continue
				}
				if _, err := r.encounter(rng, day, false); err != nil {
					return sim.Outcome{}, err
				}
				falseAlarms++
			}
			// Phishing emails.
			nPhish := phish.sample(rng)
			for e := 0; e < nPhish; e++ {
				phishSeen++
				if rng.Float64() >= effTPR {
					// Warning never fires: the user faces the phish alone.
					accurate, skill := r.phishingState()
					if !selfDetects(rng, accurate, skill, c.Lookalike) {
						phished = true
						phishedCount++
					}
					continue
				}
				ar, err := r.encounter(rng, day, true)
				if err != nil {
					return sim.Outcome{}, err
				}
				if !ar.Heeded {
					phished = true
					phishedCount++
					if firstFailure == agent.StageNone {
						firstFailure = ar.FailedStage
					}
				}
			}
		}
		out := sim.Outcome{Heeded: !phished, FailedStage: firstFailure}
		out.Obs.Set(obsPhishSeen, float64(phishSeen))
		out.Obs.Set(obsPhishedCount, float64(phishedCount))
		out.Obs.Set(obsFalseAlarms, float64(falseAlarms))
		if phished && firstFailure == agent.StageNone {
			// Phished only via detector misses; attribute to delivery:
			// the communication never arrived.
			out.FailedStage = agent.StageDelivery
		}
		return out, nil
	}
}

// CampaignMetricsFrom derives the campaign's headline metrics from a raw
// per-subject aggregate. It is a pure function of res, so the same
// metrics fall out of a fresh run or of shard aggregates merged by
// sim.MergeResults.
func CampaignMetricsFrom(res *sim.Result) CampaignMetrics {
	m := CampaignMetrics{Run: res, VictimRate: 1 - res.HeedRate()}
	if mean, _, err := res.MeanValue("phish_seen"); err == nil {
		m.MeanPhishEncounters = mean
	}
	if mean, _, err := res.MeanValue("false_alarms"); err == nil {
		m.MeanFalseAlarms = mean
	}
	var seen, hits float64
	for _, v := range res.Values["phish_seen"] {
		seen += v
	}
	for _, v := range res.Values["phished_count"] {
		hits += v
	}
	if seen > 0 {
		m.PerEncounterVictimRate = hits / seen
	}
	return m
}

// selfDetects models a user spotting a phish without any warning: rare for
// naive users, more likely with an accurate mental model and phishing
// skill, and harder the more closely the lure mimics the real site
// (lookalike).
func selfDetects(rng *rand.Rand, accurateModel bool, skill, lookalike float64) bool {
	p := 0.05
	if accurateModel {
		p += 0.25
	}
	if skill != 0 {
		p += 0.4 * skill
	}
	p *= 1 - 0.7*lookalike
	return rng.Float64() < p
}

// poisson samples Poisson counts of one mean via Knuth's method; fine for
// small means. Knuth's stopping threshold exp(-mean) is computed once per
// mean rather than once per sample.
type poisson struct{ mean, limit float64 }

func newPoisson(mean float64) poisson { return poisson{mean: mean, limit: math.Exp(-mean)} }

func (d poisson) sample(rng *rand.Rand) int {
	if d.mean <= 0 {
		return 0
	}
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= d.limit {
			return k
		}
		k++
		if k > 1000 {
			return k
		}
	}
}
