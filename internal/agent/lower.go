package agent

// Lowering: compile one encounter's stage models into a flat constant set
// (StageParams) that evaluates a subject without a Receiver, without maps,
// and without allocations — the input the sim package's compiled Program
// consumes.
//
// The contract is bit-identity: StageParams.Eval must consume the exact
// same rng draw sequence and produce the exact same Result as
// Receiver.Process on a receiver holding the same state. That state — the
// three Receiver map entries one communication's encounters read and
// write — lives in Registers, so a compiled subject loop can carry it from
// one encounter to the next; fresh registers are a fresh receiver.
// Floating-point addition is not associative, so the lowering only folds
// subexpressions that Go's left-to-right evaluation already computes
// adjacently (const+const, const*const); every term involving a
// per-subject trait or a register keeps its original position and
// operator order. Shapes whose state the registers do not hold — training
// communications (acquisition corrects the mental model), delayed
// application (retention decay depends on each subject's memory capacity,
// success rehearses the skill), and skills read on a later day than they
// were acquired (decay, again per subject) — are refused with
// ErrNotLowerable; callers fall back to the interpreted walk.

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"hitl/internal/comms"
	"hitl/internal/gems"
	"hitl/internal/population"
)

// ErrNotLowerable reports an encounter shape the compiler refuses: its
// stage probabilities depend on receiver state Registers do not carry, so
// only the interpreted Receiver walk reproduces it. Test with errors.Is.
var ErrNotLowerable = errors.New("agent: encounter not lowerable")

// Registers is the receiver state lowered encounters carry from one
// encounter of a subject to the next. The Receiver keeps it in maps keyed
// by communication ID and topic; a register set belongs to one subject's
// encounters with one communication under one model, so each map entry is
// a single field. Start every subject from StageParams.Fresh.
type Registers struct {
	// Exposures counts noticed exposures of the communication
	// (Receiver.Exposures); habituation in the attention switch reads it.
	Exposures int
	// FalseAlarms counts noticed false positives on the communication's
	// topic (Receiver.FalseAlarms); trust in the belief and heuristic
	// stages reads it.
	FalseAlarms int
	// Skill is the topic skill level (Receiver.SkillFor), from
	// pre-training or installed when a Policy communication is acquired;
	// HasSkill reports whether one exists. A skill is only ever read on
	// its acquisition day, where it has not decayed.
	Skill    float64
	HasSkill bool

	skillDay float64 // virtual day Skill was acquired
	trust    float64 // false-alarm trust factor at trustAt false alarms
	trustAt  int     // FalseAlarms count trust was computed for; 0 = none
}

// StageParams is a lowered encounter: every stage probability reduced to a
// handful of precomputed constants plus coefficients on per-subject traits
// and registers, laid out flat so the per-subject evaluation touches one
// contiguous struct and no maps. Build one with LowerEncounter.
type StageParams struct {
	// Delivery.
	spoofed     bool    // interference spoofs the communication: immediate delivery failure
	pDeliver    float64 // interference-surviving delivery fraction
	dismissRace bool    // delayed, dismissible-by-primary-task warning
	pSurvive    float64 // dismissal-race survival probability (const: env and design only)

	blocking bool // failed maintenance/comprehension/acquisition reroutes to the heuristic path
	primed   bool

	// Attention switch.
	noticeC      float64 // base + activeness + salience terms
	noticeAcuity float64 // coefficient on (VisualAcuity - 0.8)
	noticeLoadC  float64 // attention-load penalty term
	noticePrimed float64 // primed boost
	noticeFloor  float64 // blocking-warning notice floor
	habNeg       float64 // -habituation rate * passiveness: exponent per noticed exposure

	// Attention maintenance.
	maintainA      float64 // base + activeness terms
	maintainLenC   float64 // length penalty, scaled per subject by motivation
	maintainLoadC  float64 // load penalty term
	maintainPrimed float64 // 0.5 * primed boost

	// Comprehension (two variants: accurate / inaccurate mental model).
	compAB       float64 // base + clarity terms
	compExpW     float64 // coefficient on expertise
	compExplainC float64 // explanation term
	compLookC    float64 // look-alike penalty, accurate mental model
	compLookBadC float64 // look-alike penalty, inaccurate mental model
	compShieldW  float64 // expertise shield coefficient
	accurateAll  bool    // training forces an accurate mental model for every subject

	// Knowledge acquisition.
	acqAB     float64 // base + instructions terms
	acqSkillW float64 // coefficient on the skill register
	acqExpW   float64 // coefficient on expertise

	// Skill installation (Policy communications) on acquisition.
	installs     bool
	installLevel float64
	day          float64 // the encounter's virtual day

	// Knowledge transfer (retention is always 1 for lowerable encounters).
	transferOne  bool    // zero novelty: transfer is certain
	transferC    float64 // novelty penalty minus interactivity term
	transferExpW float64 // coefficient on expertise
	novelty      float64

	// Attitudes & beliefs.
	falseAlarm     bool    // the hazard is absent: noticing counts a false alarm
	trustNeg       float64 // -FPTrustDecay: trust-erosion exponent per false alarm
	beliefBase     float64
	beliefTrustW   float64
	beliefRiskW    float64
	severity       float64
	beliefExplainC float64
	beliefSkillW   float64
	beliefLookC    float64

	// Motivation.
	motBase   float64
	motRiskW  float64
	motCompW  float64
	motActC   float64
	motSkillW float64
	motCostC  float64
	motFocusW float64
	passive   float64 // 1 - activeness

	// Heuristic decision path.
	heurBase   float64
	heurRiskW  float64
	heurTrustW float64
	heurActC   float64
	heurSkillW float64
	heurLookC  float64
	heurFocusW float64

	// Capabilities.
	missingTools bool
	capMissing   float64
	cogDemand    float64
	cogSlack     float64
	cogRange     float64 // 1 - cognitive slack
	phyDemand    float64
	phySlack     float64
	phyRange     float64 // 1 - physical slack

	// Behavior (GEMS).
	steps    int
	mistakeC float64 // 1 - plan soundness
	gexecC   float64 // cue-quality + cognitive-demand terms of the execution gulf
	lapseC   float64 // clamped per-step lapse base
	slipC    float64 // clamped per-step slip base
	gevalC   float64 // feedback + cognitive-demand terms of the evaluation gulf

	fresh Registers // a subject who has not yet met the communication
}

// LowerEncounter compiles the encounter under model m (nil means the
// default model) into a StageParams whose Eval is bit-identical to
// Receiver.Process on a receiver holding the state Eval's registers hold.
// trained reports that every subject was pre-trained on e.Comm.Topic with
// the given skill (the Receiver.Train shape); pass false and the zero
// Skill otherwise.
//
// It returns an error wrapping ErrNotLowerable for shapes whose
// probabilities depend on receiver state the registers do not carry:
// training communications (acquisition corrects the mental model),
// delayed application (retention decay and rehearsal), and trained skills
// older than the encounter day (decay depends on per-subject memory
// capacity).
func LowerEncounter(m *Model, e Encounter, trained bool, skill Skill) (*StageParams, error) {
	if m == nil {
		m = defaultModel()
	}
	if err := e.Validate(); err != nil {
		return nil, err
	}
	(&e).withDefaults()

	if e.Comm.Kind == comms.Training {
		return nil, fmt.Errorf("%w: %s communications correct the mental model on acquisition", ErrNotLowerable, e.Comm.Kind)
	}
	if e.ApplyDelayDays != 0 {
		return nil, fmt.Errorf("%w: delayed application engages retention and rehearsal dynamics", ErrNotLowerable)
	}
	if trained && e.Day > skill.AcquiredDay {
		return nil, fmt.Errorf("%w: trained-skill decay depends on per-subject memory capacity", ErrNotLowerable)
	}

	d := e.Comm.Design
	passive := 1 - d.Activeness
	load := e.Env.AttentionLoad()
	eff := e.Interference.Apply()
	habRate := m.HabituationRate
	if d.Polymorphic {
		habRate *= m.PolymorphicHabituationScale
	}

	sp := &StageParams{
		spoofed:     eff.Spoofed,
		pDeliver:    eff.DeliveredFraction,
		dismissRace: d.DismissedByPrimaryTask,
		blocking:    d.BlocksPrimaryTask,
		primed:      e.Primed,

		noticeC:      m.NoticeBase + m.NoticeActiveness*d.Activeness + m.NoticeSalience*d.Salience*passive,
		noticeAcuity: m.NoticeAcuity,
		noticeLoadC:  m.NoticeLoadPenalty * passive * load,
		noticePrimed: m.PrimedBoost,
		noticeFloor:  m.NoticeBlockFloor,
		habNeg:       -habRate * passive,

		maintainA:      m.MaintainBase + m.MaintainActiveness*d.Activeness,
		maintainLenC:   m.MaintainLengthPenalty * d.Length,
		maintainLoadC:  m.MaintainLoadPenalty * load * (1 - d.Activeness),
		maintainPrimed: 0.5 * m.PrimedBoost,

		compAB:       m.CompBase + m.CompClarity*d.Clarity,
		compExpW:     m.CompExpertise,
		compExplainC: m.CompExplain * d.Explanation,
		compLookC:    m.CompLookPenalty * d.LookAlike,
		compLookBadC: (m.CompLookPenalty + m.CompLookPenaltyBad) * d.LookAlike,
		compShieldW:  m.CompExpertiseShield,
		accurateAll:  trained,

		acqAB:     m.AcqBase + m.AcqInstructions*d.InstructionSpecificity,
		acqSkillW: m.AcqSkill,
		acqExpW:   m.AcqExpertise,

		installs:     e.Comm.Kind == comms.Policy,
		installLevel: 0.5 + 0.5*d.InstructionSpecificity,
		day:          e.Day,

		transferOne:  e.SituationNovelty == 0,
		transferC:    m.TransferNoveltyPenalty - m.TransferInteractivity*d.Interactivity,
		transferExpW: m.TransferExpertise,
		novelty:      e.SituationNovelty,

		falseAlarm:     !e.HazardPresent,
		trustNeg:       -m.FPTrustDecay,
		beliefBase:     m.BeliefBase,
		beliefTrustW:   m.BeliefTrust,
		beliefRiskW:    m.BeliefRisk,
		severity:       e.Comm.Hazard.Severity,
		beliefExplainC: m.BeliefExplain * d.Explanation,
		beliefSkillW:   m.BeliefSkill,
		beliefLookC:    m.BeliefLookPenalty * d.LookAlike,

		motBase:   m.MotBase,
		motRiskW:  m.MotRisk,
		motCompW:  m.MotCompliance,
		motActC:   m.MotActiveness * d.Activeness,
		motSkillW: m.MotSkill,
		motCostC:  m.MotCostPenalty * e.ComplianceCost,
		motFocusW: m.MotFocusPenalty,
		passive:   1 - d.Activeness,

		heurBase:   m.HeurBase,
		heurRiskW:  m.HeurRisk,
		heurTrustW: m.HeurTrust,
		heurActC:   m.HeurActiveness * d.Activeness,
		heurSkillW: m.HeurSkill,
		heurLookC:  m.HeurLookPenalty * d.LookAlike,
		heurFocusW: m.HeurFocusPenalty,

		missingTools: e.MissingTools,
		capMissing:   m.CapMissingTools,
		cogDemand:    e.Task.CognitiveDemand,
		cogSlack:     m.CapCognitiveSlack,
		cogRange:     1 - m.CapCognitiveSlack,
		phyDemand:    e.Task.PhysicalDemand,
		phySlack:     m.CapPhysicalSlack,
		phyRange:     1 - m.CapPhysicalSlack,

		steps:    e.Task.Steps,
		mistakeC: 1 - e.Task.PlanSoundness,
		gexecC:   0.55*(1-e.Task.CueQuality) + 0.25*e.Task.CognitiveDemand,
		lapseC:   clamp01(0.02 + 0.08*(1-e.Task.CueQuality)),
		slipC:    clamp01(0.01 + 0.07*(1-e.Task.ControlClarity) + 0.05*e.Task.PhysicalDemand),
		gevalC:   0.7*(1-e.Task.FeedbackQuality) + 0.15*e.Task.CognitiveDemand,
	}
	if trained {
		// At age zero the decay factor is exactly Exp(-0) == 1, so the
		// trained level is Skill.Level.
		sp.fresh = Registers{Skill: skill.Level, HasSkill: true, skillDay: skill.AcquiredDay}
	}
	// Dismissal race: every factor is design- or environment-constant.
	if sp.dismissRace {
		delay := d.DelaySeconds + eff.AddedDelaySeconds
		sp.pSurvive = 1 - m.DismissRaceFactor*e.Env.PrimaryTaskPressure*math.Min(1, delay/5)
	}
	return sp, nil
}

// Fresh returns the registers of a subject who has not yet met the
// communication: no exposures or false alarms, and the pre-trained skill
// when the encounter was lowered with one.
func (sp *StageParams) Fresh() Registers { return sp.fresh }

// Per-subject stage probabilities. Each helper mirrors the corresponding
// Receiver method term by term: constants were folded only where the
// original expression already evaluated them adjacently, so the float
// operation sequence — and therefore the result bits — are identical.

func (sp *StageParams) pNotice(prof *population.Profile, exposures int) float64 {
	p := sp.noticeC + sp.noticeAcuity*(prof.VisualAcuity()-0.8) - sp.noticeLoadC
	if sp.primed {
		p += sp.noticePrimed
	}
	p = clamp01(p)
	// Habituation. With no exposures or a fully active design the factor
	// is exactly Exp(±0) == 1 and p*1 == p, so the multiply is skipped.
	if exposures != 0 && sp.habNeg != 0 {
		p *= math.Exp(sp.habNeg * float64(exposures))
	}
	if sp.blocking && p < sp.noticeFloor {
		p = sp.noticeFloor
	}
	return clamp01(p)
}

// noticed advances the registers the way a noticed encounter advances the
// Receiver's maps, before any later stage reads them.
func (sp *StageParams) noticed(reg *Registers) {
	reg.Exposures++
	if sp.falseAlarm {
		reg.FalseAlarms++
	}
}

// trust is Receiver.EffectiveTrust at the registers' false-alarm count.
// With none the erosion factor is exactly Exp(-0) == 1; otherwise it is
// recomputed only when the count has changed since the last call.
func (sp *StageParams) trust(prof *population.Profile, reg *Registers) float64 {
	f := 1.0
	if reg.FalseAlarms != 0 {
		if reg.trustAt != reg.FalseAlarms {
			reg.trust = math.Exp(sp.trustNeg * float64(reg.FalseAlarms))
			reg.trustAt = reg.FalseAlarms
		}
		f = reg.trust
	}
	return prof.TrustInSecurityUI() * f
}

// acquired installs a Policy communication's skill on acquisition, unless
// a stronger one is already held — read on the same day, the held level
// is its undecayed Skill.
func (sp *StageParams) acquired(reg *Registers) {
	if sp.installs && (!reg.HasSkill || sp.installLevel > reg.Skill) {
		reg.Skill, reg.HasSkill, reg.skillDay = sp.installLevel, true, sp.day
	}
}

func (sp *StageParams) pMaintain(prof *population.Profile) float64 {
	motivation := 0.5*prof.RiskPerception() + 0.5*(1-prof.PrimaryTaskFocus())
	p := sp.maintainA - sp.maintainLenC*(1-0.5*motivation) - sp.maintainLoadC
	if sp.primed {
		p += sp.maintainPrimed
	}
	return clamp01(p)
}

func (sp *StageParams) pComprehend(exp float64, accurate bool) float64 {
	look := sp.compLookC
	if !accurate {
		look = sp.compLookBadC
	}
	p := sp.compAB + sp.compExpW*exp + sp.compExplainC - look*(1-sp.compShieldW*exp)
	return clamp01(p)
}

func (sp *StageParams) pAcquire(exp, skill float64) float64 {
	return clamp01(sp.acqAB + sp.acqSkillW*skill + sp.acqExpW*exp)
}

func (sp *StageParams) pTransfer(exp float64) float64 {
	if sp.transferOne {
		return 1
	}
	penalty := sp.transferC - sp.transferExpW*exp
	if penalty < 0 {
		penalty = 0
	}
	return clamp01(1 - sp.novelty*penalty)
}

func (sp *StageParams) pBelieve(prof *population.Profile, trust, skill float64) float64 {
	p := sp.beliefBase +
		sp.beliefTrustW*trust +
		sp.beliefRiskW*prof.RiskPerception()*sp.severity +
		sp.beliefExplainC +
		sp.beliefSkillW*skill -
		sp.beliefLookC
	return clamp01(p)
}

func (sp *StageParams) pMotivate(prof *population.Profile, skill float64) float64 {
	p := sp.motBase +
		sp.motRiskW*prof.RiskPerception()*sp.severity +
		sp.motCompW*prof.ComplianceTendency() +
		sp.motActC +
		sp.motSkillW*skill -
		sp.motCostC -
		sp.motFocusW*prof.PrimaryTaskFocus()*sp.passive
	return clamp01(p)
}

func (sp *StageParams) pHeuristic(prof *population.Profile, trust, skill float64) float64 {
	p := sp.heurBase +
		sp.heurRiskW*prof.RiskPerception() +
		sp.heurTrustW*trust +
		sp.heurActC +
		sp.heurSkillW*skill -
		sp.heurLookC -
		sp.heurFocusW*prof.PrimaryTaskFocus()*sp.passive
	return clamp01(p)
}

func (sp *StageParams) pCapable(prof *population.Profile, exp float64) float64 {
	if sp.missingTools {
		return sp.capMissing
	}
	cog := clamp01(1 - 1.2*math.Max(0, sp.cogDemand-(sp.cogSlack+sp.cogRange*exp)))
	phy := clamp01(1 - 1.2*math.Max(0, sp.phyDemand-(sp.phySlack+sp.phyRange*prof.MotorSkill())))
	return cog * phy
}

// Eval runs one subject's encounter through the lowered pipeline,
// consuming rng draws in exactly the order Receiver.Process does and
// returning the identical Result (Trace is never materialized — the
// compiled path exists for trace-off bulk runs). It reads and advances reg
// exactly as Process reads and advances the receiver's maps, so one
// register set carried through a sequence of encounters reproduces one
// Receiver carried through them. Neither the profile nor the registers
// are retained.
//
// Eval panics when reg holds a skill acquired before the encounter's day:
// that skill would have decayed by a per-subject amount, which lowering
// refuses — a compiled loop spanning days must not lower a communication
// that installs skills.
func (sp *StageParams) Eval(rng *rand.Rand, prof *population.Profile, reg *Registers) Result {
	res := Result{FailedStage: StageNone, ErrorClass: gems.NoError}
	if reg.HasSkill && reg.skillDay < sp.day {
		panic("agent: lowered encounter reads a skill acquired on an earlier day")
	}

	// --- Communication impediments (delivery). ---
	if sp.spoofed {
		res.Spoofed = true
		res.FailedStage = StageDelivery
		return res
	}
	if !(rng.Float64() < sp.pDeliver) {
		res.FailedStage = StageDelivery
		return res
	}
	if sp.dismissRace && !(rng.Float64() < sp.pSurvive) {
		res.FailedStage = StageDelivery
		return res
	}

	// --- Attention switch. ---
	if !(rng.Float64() < sp.pNotice(prof, reg.Exposures)) {
		res.FailedStage = StageAttentionSwitch
		return res
	}
	sp.noticed(reg)

	// Expertise is a pure function of the profile, and trust of the
	// profile and the false-alarm count, which no later stage changes:
	// computing them once up front matches every later use bit for bit.
	exp := prof.Expertise()
	trust := sp.trust(prof, reg)

	// --- Attention maintenance. ---
	if !(rng.Float64() < sp.pMaintain(prof)) {
		if sp.blocking {
			goto heuristic
		}
		res.FailedStage = StageAttentionMaintenance
		return res
	}

	// --- Comprehension. ---
	if !(rng.Float64() < sp.pComprehend(exp, sp.accurateAll || prof.AccurateMentalModel)) {
		if sp.blocking {
			goto heuristic
		}
		res.FailedStage = StageComprehension
		return res
	}

	// --- Knowledge acquisition. ---
	if !(rng.Float64() < sp.pAcquire(exp, reg.Skill)) {
		if sp.blocking {
			goto heuristic
		}
		res.FailedStage = StageKnowledgeAcquisition
		return res
	}
	sp.acquired(reg)

	// --- Application: retention (always certain here) and transfer. ---
	if !(rng.Float64() < 1.0) { // PRetain == 1 at zero apply delay; the draw is still consumed
		res.FailedStage = StageKnowledgeRetention
		return res
	}
	if !(rng.Float64() < sp.pTransfer(exp)) {
		res.FailedStage = StageKnowledgeTransfer
		return res
	}

	// --- Intentions. ---
	if !(rng.Float64() < sp.pBelieve(prof, trust, reg.Skill)) {
		res.FailedStage = StageAttitudesBeliefs
		return res
	}
	if !(rng.Float64() < sp.pMotivate(prof, reg.Skill)) {
		res.FailedStage = StageMotivation
		return res
	}

	// --- Capabilities. ---
	if !(rng.Float64() < sp.pCapable(prof, exp)) {
		res.FailedStage = StageCapabilities
		return res
	}

	// --- Behavior (GEMS), inlined from gems.Perform. ---
	if rng.Float64() < clamp01(sp.mistakeC*(1-0.7*exp)) {
		res.ErrorClass = gems.Mistake
		res.FailedStage = StageBehavior
		return res
	}
	if rng.Float64() < clamp01(sp.gexecC-0.25*exp-0.1*prof.SelfEfficacy())*0.5 {
		res.ErrorClass = gems.ExecutionGulf
		res.FailedStage = StageBehavior
		return res
	}
	{
		perStepLapse := sp.lapseC * (1 - 0.4*prof.MemoryCapacity())
		perStepSlip := sp.slipC * (1 - 0.4*prof.MotorSkill())
		for s := 0; s < sp.steps; s++ {
			if rng.Float64() < perStepLapse {
				res.ErrorClass = gems.Lapse
				res.FailedStage = StageBehavior
				return res
			}
			if rng.Float64() < perStepSlip {
				res.ErrorClass = gems.Slip
				res.FailedStage = StageBehavior
				return res
			}
		}
	}
	if rng.Float64() < clamp01(sp.gevalC-0.2*exp) {
		// Completed but unverifiable: heeded, evaluation-gulf class.
		res.ErrorClass = gems.EvaluationGulf
		res.Heeded = true
		res.Unverified = true
		return res
	}
	res.Heeded = true
	return res

heuristic:
	// A blocking communication the user did not fully process still gets
	// disposed of somehow; the low-information decision drives the outcome.
	res.HeuristicPath = true
	if rng.Float64() < sp.pHeuristic(prof, trust, reg.Skill) {
		res.Heeded = true
		res.FailedStage = StageNone
		return res
	}
	res.FailedStage = StageBehavior
	return res
}

// StageProbs is the full per-subject probability vector of a lowered
// encounter — every threshold Eval would sample against, in pipeline
// order. The analytic engine consumes it to propagate probability mass in
// closed form instead of sampling.
type StageProbs struct {
	Spoofed  bool
	Blocking bool
	Steps    int

	Deliver    float64
	Survive    float64 // 1 when no dismissal race applies
	Notice     float64
	Maintain   float64
	Comprehend float64
	Acquire    float64
	Retain     float64 // always 1 for lowerable encounters
	Transfer   float64
	Believe    float64
	Motivate   float64
	Capable    float64
	Heuristic  float64

	// Behavior-stage (GEMS) event probabilities, in draw order. ExecGulf
	// already includes the 0.5 scaling applied at the sampling site.
	Mistake  float64
	ExecGulf float64
	Lapse    float64 // per step
	Slip     float64 // per step
	EvalGulf float64
}

// Probabilities computes every stage threshold for one profile on fresh
// registers, using the identical arithmetic Eval samples against: each
// threshold sees the registers as Eval has advanced them on the way to
// that stage.
func (sp *StageParams) Probabilities(prof *population.Profile) StageProbs {
	reg := sp.fresh
	notice := sp.pNotice(prof, reg.Exposures)
	sp.noticed(&reg)
	exp := prof.Expertise()
	trust := sp.trust(prof, &reg)
	pr := StageProbs{
		Spoofed:  sp.spoofed,
		Blocking: sp.blocking,
		Steps:    sp.steps,

		Deliver:    sp.pDeliver,
		Survive:    1,
		Notice:     notice,
		Maintain:   sp.pMaintain(prof),
		Comprehend: sp.pComprehend(exp, sp.accurateAll || prof.AccurateMentalModel),
		Acquire:    sp.pAcquire(exp, reg.Skill),
		Retain:     1,
		Transfer:   sp.pTransfer(exp),
		Capable:    sp.pCapable(prof, exp),
		// The heuristic path is only reached before acquisition succeeds.
		Heuristic: sp.pHeuristic(prof, trust, reg.Skill),

		Mistake:  clamp01(sp.mistakeC * (1 - 0.7*exp)),
		ExecGulf: clamp01(sp.gexecC-0.25*exp-0.1*prof.SelfEfficacy()) * 0.5,
		Lapse:    sp.lapseC * (1 - 0.4*prof.MemoryCapacity()),
		Slip:     sp.slipC * (1 - 0.4*prof.MotorSkill()),
		EvalGulf: clamp01(sp.gevalC - 0.2*exp),
	}
	sp.acquired(&reg)
	pr.Believe = sp.pBelieve(prof, trust, reg.Skill)
	pr.Motivate = sp.pMotivate(prof, reg.Skill)
	if sp.dismissRace {
		pr.Survive = sp.pSurvive
	}
	return pr
}
