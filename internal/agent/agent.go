// Package agent implements the human receiver of the human-in-the-loop
// security framework (Figure 1 of the paper): a stochastic model of one
// person processing a security communication through the framework's
// stages — communication delivery (attention switch and maintenance),
// communication processing (comprehension and knowledge acquisition),
// application (knowledge retention and transfer) — gated by the receiver's
// personal variables, intentions (attitudes, beliefs, motivation), and
// capabilities, and terminated by a behavior step (GEMS).
//
// The pipeline is not a strict AND-chain: as the paper notes, "some of
// these steps may be omitted or repeated". In particular, a user who is
// interrupted by a blocking warning but does not fully read or comprehend
// it still makes a decision; the model routes such users through a
// low-information heuristic path whose outcome depends on trust, risk
// perception, and how routine the communication looks. This is what lets
// the simulated aggregate rates reproduce the shapes of the user studies
// the paper cites (Egelman et al., Wu et al., Whalen & Inkpen).
//
// Every probability is computed by a deterministic function of
// (communication design, environment, interference, receiver state) under a
// Model of calibration coefficients, then sampled with the caller's
// *rand.Rand, so simulations are reproducible for a given seed.
package agent

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"

	"hitl/internal/comms"
	"hitl/internal/gems"
	"hitl/internal/population"
	"hitl/internal/stimuli"
)

// Stage identifies a checkpoint in the receiver's processing pipeline.
type Stage int

// Pipeline stages in processing order. StageNone marks success.
const (
	StageNone Stage = iota - 1
	// StageDelivery covers communication impediments: interference and
	// delivery races (a warning dismissed by primary-task input before the
	// user could see it).
	StageDelivery
	// StageAttentionSwitch: did the user notice the communication?
	StageAttentionSwitch
	// StageAttentionMaintenance: did they attend long enough to process it?
	StageAttentionMaintenance
	// StageComprehension: did they understand what it means?
	StageComprehension
	// StageKnowledgeAcquisition: do they know what to do about it?
	StageKnowledgeAcquisition
	// StageKnowledgeRetention: do they still remember it when it must be
	// applied (training/policy communications applied after a delay)?
	StageKnowledgeRetention
	// StageKnowledgeTransfer: do they recognize this situation as one where
	// the knowledge applies?
	StageKnowledgeTransfer
	// StageAttitudesBeliefs: do they believe the communication and think it
	// worth taking seriously?
	StageAttitudesBeliefs
	// StageMotivation: are they willing to act, given competing goals?
	StageMotivation
	// StageCapabilities: are they able to perform the action?
	StageCapabilities
	// StageBehavior: did the action execute without a GEMS error?
	StageBehavior
)

// String names the stage.
func (s Stage) String() string {
	switch s {
	case StageNone:
		return "none"
	case StageDelivery:
		return "delivery"
	case StageAttentionSwitch:
		return "attention-switch"
	case StageAttentionMaintenance:
		return "attention-maintenance"
	case StageComprehension:
		return "comprehension"
	case StageKnowledgeAcquisition:
		return "knowledge-acquisition"
	case StageKnowledgeRetention:
		return "knowledge-retention"
	case StageKnowledgeTransfer:
		return "knowledge-transfer"
	case StageAttitudesBeliefs:
		return "attitudes-beliefs"
	case StageMotivation:
		return "motivation"
	case StageCapabilities:
		return "capabilities"
	case StageBehavior:
		return "behavior"
	default:
		return fmt.Sprintf("Stage(%d)", int(s))
	}
}

// Stages lists the pipeline stages in order (excluding StageNone).
func Stages() []Stage {
	return []Stage{StageDelivery, StageAttentionSwitch, StageAttentionMaintenance,
		StageComprehension, StageKnowledgeAcquisition, StageKnowledgeRetention,
		StageKnowledgeTransfer, StageAttitudesBeliefs, StageMotivation,
		StageCapabilities, StageBehavior}
}

// Check records one stage evaluation in a processing trace.
type Check struct {
	Stage  Stage
	P      float64 // probability of passing that was sampled against
	Passed bool
	Note   string
}

// Result is the outcome of processing one encounter.
type Result struct {
	// Heeded reports whether the receiver ended up performing the desired
	// security behavior.
	Heeded bool
	// FailedStage is the stage at which processing failed; StageNone when
	// Heeded.
	FailedStage Stage
	// ErrorClass is set when the failure (or fail-safe success) happened at
	// the behavior stage.
	ErrorClass gems.ErrorClass
	// HeuristicPath reports that the final decision was made without full
	// processing (e.g. the user closed a blocking warning they did not
	// fully read).
	HeuristicPath bool
	// Unverified reports the action completed but the user could not
	// confirm the outcome (gulf of evaluation).
	Unverified bool
	// Spoofed reports that what the receiver perceived was attacker-
	// controlled rather than the genuine communication.
	Spoofed bool
	// Trace is the ordered list of stage checks.
	Trace []Check
}

// TraceString renders the stage trace as aligned text, one check per line,
// for demos and debugging: stage, the probability sampled against, the
// outcome, and any note.
func (r Result) TraceString() string {
	var b strings.Builder
	for _, c := range r.Trace {
		mark := "pass"
		if !c.Passed {
			mark = "FAIL"
		}
		fmt.Fprintf(&b, "%-22s p=%.3f %s", c.Stage, c.P, mark)
		if c.Note != "" {
			fmt.Fprintf(&b, "  (%s)", c.Note)
		}
		b.WriteByte('\n')
	}
	switch {
	case r.Heeded && r.Unverified:
		b.WriteString("=> heeded (outcome unverified: gulf of evaluation)\n")
	case r.Heeded:
		b.WriteString("=> heeded\n")
	default:
		fmt.Fprintf(&b, "=> NOT heeded (failed at %s)\n", r.FailedStage)
	}
	return b.String()
}

// Encounter is one presentation of a communication to a receiver.
type Encounter struct {
	// Comm is the communication presented.
	Comm comms.Communication
	// Env is the surrounding environment.
	Env stimuli.Environment
	// Interference optionally disrupts delivery; zero value means none.
	Interference stimuli.Interference
	// HazardPresent is false when the communication fires as a false
	// positive; noticing a false positive erodes trust in the topic.
	HazardPresent bool
	// Day is virtual time in days, used for forgetting curves.
	Day float64
	// Primed is true when the user has been explicitly told to watch for
	// the communication (as in lab studies that instruct participants).
	Primed bool
	// ApplyDelayDays is the gap between receiving the communication and
	// needing to apply it. Zero (typical for warnings) skips retention and
	// transfer, which the paper notes are "especially applicable to
	// training and policy communications".
	ApplyDelayDays float64
	// SituationNovelty in [0,1] is how different the application situation
	// is from the examples the user was trained on; drives transfer.
	SituationNovelty float64
	// Task is the behavior the user must perform when they decide to
	// comply. A zero Task defaults to a simple, well-cued single-step
	// action.
	Task gems.Task
	// ComplianceCost in [0,1] is the burden of complying (time,
	// inconvenience, workflow disruption).
	ComplianceCost float64
	// MissingTools marks that required software or devices are unavailable
	// (a capabilities factor).
	MissingTools bool
}

func (e *Encounter) withDefaults() {
	if e.Task.Steps == 0 {
		e.Task = gems.Task{
			Name:            "comply",
			Steps:           1,
			CueQuality:      0.85,
			FeedbackQuality: 0.85,
			ControlClarity:  0.9,
			PlanSoundness:   0.95,
			CognitiveDemand: 0.1,
			PhysicalDemand:  0.05,
		}
	}
}

// Validate checks the encounter's fields.
func (e Encounter) Validate() error {
	if err := e.Comm.Validate(); err != nil {
		return err
	}
	if err := e.Env.Validate(); err != nil {
		return err
	}
	if err := e.Interference.Validate(); err != nil {
		return err
	}
	if e.Day < 0 || e.ApplyDelayDays < 0 {
		return fmt.Errorf("agent: negative time in encounter (day %v, delay %v)", e.Day, e.ApplyDelayDays)
	}
	if e.SituationNovelty < 0 || e.SituationNovelty > 1 || math.IsNaN(e.SituationNovelty) {
		return fmt.Errorf("agent: SituationNovelty %v out of [0,1]", e.SituationNovelty)
	}
	if e.ComplianceCost < 0 || e.ComplianceCost > 1 || math.IsNaN(e.ComplianceCost) {
		return fmt.Errorf("agent: ComplianceCost %v out of [0,1]", e.ComplianceCost)
	}
	if e.Task.Steps != 0 {
		if err := e.Task.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Model holds the calibration coefficients for every stage probability.
// The defaults reproduce the aggregate shapes of the user studies cited in
// the paper; experiments may copy and perturb a Model for ablations.
type Model struct {
	// Attention switch.
	NoticeBase        float64 // floor for a fully passive, zero-salience cue
	NoticeActiveness  float64 // weight of activeness
	NoticeSalience    float64 // weight of salience (passive-weighted)
	NoticeAcuity      float64 // weight of visual acuity deviation
	NoticeLoadPenalty float64 // attention-load penalty (passive-weighted)
	NoticeBlockFloor  float64 // minimum notice probability for blockers
	PrimedBoost       float64 // additive boost when the user is primed
	HabituationRate   float64 // exposure decay rate (passive-weighted)
	// PolymorphicHabituationScale multiplies the habituation rate for
	// polymorphic communications (< 1 slows habituation).
	PolymorphicHabituationScale float64

	// Attention maintenance.
	MaintainBase          float64
	MaintainActiveness    float64
	MaintainLengthPenalty float64
	MaintainLoadPenalty   float64

	// Comprehension.
	CompBase            float64
	CompClarity         float64
	CompExpertise       float64
	CompExplain         float64
	CompLookPenalty     float64 // look-alike penalty, accurate mental model
	CompLookPenaltyBad  float64 // extra look-alike penalty, inaccurate model
	CompExpertiseShield float64 // how much expertise shields from look-alike

	// Knowledge acquisition.
	AcqBase         float64
	AcqInstructions float64
	AcqSkill        float64
	AcqExpertise    float64

	// Retention (power-law-ish forgetting via exponential with an
	// interactivity- and memory-stretched half-life).
	RetentionHalfLifeDays  float64
	RetentionInteractivity float64 // half-life multiplier per unit interactivity
	RetentionMemory        float64 // half-life multiplier per unit memory capacity
	RetentionRehearsal     float64 // half-life multiplier per rehearsal

	// Transfer.
	TransferNoveltyPenalty float64
	TransferInteractivity  float64
	TransferExpertise      float64

	// Attitudes & beliefs.
	BeliefBase        float64
	BeliefTrust       float64
	BeliefRisk        float64
	BeliefExplain     float64
	BeliefLookPenalty float64
	BeliefSkill       float64 // weight of trained topic skill on belief
	FPTrustDecay      float64 // trust multiplier decay per experienced false alarm

	// Motivation.
	MotBase         float64
	MotRisk         float64
	MotCompliance   float64
	MotActiveness   float64
	MotSkill        float64 // weight of trained topic skill on motivation
	MotCostPenalty  float64
	MotFocusPenalty float64

	// Heuristic (low-information) decision path.
	HeurBase         float64
	HeurRisk         float64
	HeurTrust        float64
	HeurActiveness   float64
	HeurSkill        float64 // weight of trained topic skill on heuristic decisions
	HeurLookPenalty  float64
	HeurFocusPenalty float64

	// Delivery races.
	DismissRaceFactor float64 // how aggressively primary-task input dismisses delayed warnings

	// Capabilities.
	CapCognitiveSlack float64 // fraction of cognitive demand covered at zero expertise
	CapPhysicalSlack  float64
	CapMissingTools   float64 // pass probability when required tools are absent
}

// DefaultModel returns the calibrated default coefficients.
func DefaultModel() *Model {
	return &Model{
		NoticeBase:                  0.08,
		NoticeActiveness:            0.85,
		NoticeSalience:              0.90,
		NoticeAcuity:                0.10,
		NoticeLoadPenalty:           0.35,
		NoticeBlockFloor:            0.97,
		PrimedBoost:                 0.55,
		HabituationRate:             0.18,
		PolymorphicHabituationScale: 0.25,

		MaintainBase:          0.62,
		MaintainActiveness:    0.30,
		MaintainLengthPenalty: 0.30,
		MaintainLoadPenalty:   0.15,

		CompBase:            0.45,
		CompClarity:         0.45,
		CompExpertise:       0.15,
		CompExplain:         0.15,
		CompLookPenalty:     0.55,
		CompLookPenaltyBad:  0.35,
		CompExpertiseShield: 0.5,

		AcqBase:         0.50,
		AcqInstructions: 0.45,
		AcqSkill:        0.25,
		AcqExpertise:    0.10,

		RetentionHalfLifeDays:  12,
		RetentionInteractivity: 3.0,
		RetentionMemory:        2.0,
		RetentionRehearsal:     0.5,

		TransferNoveltyPenalty: 0.75,
		TransferInteractivity:  0.45,
		TransferExpertise:      0.20,

		BeliefBase:        0.55,
		BeliefTrust:       0.45,
		BeliefRisk:        0.20,
		BeliefExplain:     0.10,
		BeliefLookPenalty: 0.20,
		BeliefSkill:       0.15,
		FPTrustDecay:      0.25,

		MotBase:         0.60,
		MotRisk:         0.25,
		MotCompliance:   0.15,
		MotActiveness:   0.15,
		MotSkill:        0.10,
		MotCostPenalty:  0.55,
		MotFocusPenalty: 0.15,

		HeurBase:         0.10,
		HeurRisk:         0.30,
		HeurTrust:        0.25,
		HeurActiveness:   0.25,
		HeurSkill:        0.25,
		HeurLookPenalty:  0.25,
		HeurFocusPenalty: 0.20,

		DismissRaceFactor: 0.60,

		CapCognitiveSlack: 0.35,
		CapPhysicalSlack:  0.30,
		CapMissingTools:   0.05,
	}
}

// Skill is topic knowledge a receiver gained from a training or policy
// communication.
type Skill struct {
	// Level is knowledge strength at acquisition, in [0,1].
	Level float64
	// Interactivity of the training that produced the skill; interactive
	// training decays slower and transfers better (§2.3.3).
	Interactivity float64
	// AcquiredDay is the virtual day of acquisition.
	AcquiredDay float64
	// Rehearsals counts later successful applications; each slows decay.
	Rehearsals int
}

// Receiver is a simulated human with mutable experience state: habituation
// exposure counts, experienced false alarms, trained skills, and corrected
// mental models.
type Receiver struct {
	Profile population.Profile
	// Model is the coefficient set; nil means DefaultModel().
	Model *Model
	// CollectTrace makes Process materialize Result.Trace: every stage
	// check — the probability sampled against, the outcome, and any
	// routing note — in pipeline order. When false, Process records no
	// checks and the per-subject hot path stays allocation-free; the
	// sampling sequence is identical either way.
	CollectTrace bool

	exposures     map[string]int   // by communication ID, allocated on first write
	falseAlarms   map[string]int   // by topic, allocated on first write
	skills        map[string]Skill // by topic, allocated on first write
	accurateModel map[string]bool  // by topic, set by training, allocated on first write

	scratch []Check // reusable trace buffer; Result.Trace is a copy of it
}

// NewReceiver creates a receiver with the given profile and default model.
// Experience-state maps are allocated lazily on first write, so an untouched
// receiver costs a single allocation.
func NewReceiver(p population.Profile) *Receiver {
	return &Receiver{Profile: p}
}

// Reset clears the receiver's experience state and installs a new profile,
// letting scenario loops reuse one receiver (and its map/trace storage)
// across subjects instead of allocating with NewReceiver each time. Model
// and CollectTrace are left untouched.
func (r *Receiver) Reset(p population.Profile) {
	r.Profile = p
	clear(r.exposures)
	clear(r.falseAlarms)
	clear(r.skills)
	clear(r.accurateModel)
}

// defaultModel caches one immutable DefaultModel for every receiver whose
// Model field is nil; callers that perturb coefficients use DefaultModel()
// to get their own copy.
var defaultModel = sync.OnceValue(func() *Model { return DefaultModel() })

func (r *Receiver) model() *Model {
	if r.Model != nil {
		return r.Model
	}
	return defaultModel()
}

// Exposures returns how many times the receiver has noticed the
// communication with the given ID.
func (r *Receiver) Exposures(commID string) int { return r.exposures[commID] }

// FalseAlarms returns how many false positives the receiver has experienced
// for the topic.
func (r *Receiver) FalseAlarms(topic string) int { return r.falseAlarms[topic] }

// SkillFor returns the receiver's skill for a topic and whether one exists.
func (r *Receiver) SkillFor(topic string) (Skill, bool) {
	s, ok := r.skills[topic]
	return s, ok
}

// HasAccurateModel reports whether the receiver holds an accurate mental
// model for the topic — either from their profile or from training.
func (r *Receiver) HasAccurateModel(topic string) bool {
	if v, ok := r.accurateModel[topic]; ok {
		return v
	}
	return r.Profile.AccurateMentalModel
}

// AddExposures seeds prior noticed exposures of a communication, for
// studying habituation without replaying the history.
func (r *Receiver) AddExposures(commID string, n int) {
	if n > 0 {
		if r.exposures == nil {
			r.exposures = make(map[string]int)
		}
		r.exposures[commID] += n
	}
}

// AddFalseAlarms seeds experienced false alarms for a topic, for studying
// trust erosion without replaying the history.
func (r *Receiver) AddFalseAlarms(topic string, n int) {
	if n > 0 {
		if r.falseAlarms == nil {
			r.falseAlarms = make(map[string]int)
		}
		r.falseAlarms[topic] += n
	}
}

// Train force-installs topic knowledge, as after completing a training
// communication outside a simulated encounter.
func (r *Receiver) Train(topic string, s Skill) {
	if r.skills == nil {
		r.skills = make(map[string]Skill)
	}
	if r.accurateModel == nil {
		r.accurateModel = make(map[string]bool)
	}
	r.skills[topic] = s
	r.accurateModel[topic] = true
}

// skillLevel returns current (decayed) skill strength for a topic at a
// virtual day.
func (r *Receiver) skillLevel(topic string, day float64) float64 {
	s, ok := r.skills[topic]
	if !ok {
		return 0
	}
	m := r.model()
	hl := m.RetentionHalfLifeDays * (1 + m.RetentionInteractivity*s.Interactivity +
		m.RetentionMemory*r.Profile.MemoryCapacity() + m.RetentionRehearsal*float64(s.Rehearsals))
	age := day - s.AcquiredDay
	if age < 0 {
		age = 0
	}
	return s.Level * math.Exp(-math.Ln2*age/hl)
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

// Stage probability functions. Exported so that analyses and property tests
// can inspect them without sampling.

// PNotice is the attention-switch probability for the encounter.
func (r *Receiver) PNotice(e Encounter) float64 {
	m := r.model()
	d := e.Comm.Design
	passive := 1 - d.Activeness
	load := e.Env.AttentionLoad()
	p := m.NoticeBase +
		m.NoticeActiveness*d.Activeness +
		m.NoticeSalience*d.Salience*passive +
		m.NoticeAcuity*(r.Profile.VisualAcuity()-0.8) -
		m.NoticeLoadPenalty*passive*load
	if e.Primed {
		p += m.PrimedBoost
	}
	p = clamp01(p)
	// Habituation: repeated exposure dulls noticing, mostly for passive
	// communications (blockers keep interrupting regardless). Polymorphic
	// designs vary their appearance, so familiarity accrues much slower.
	habRate := m.HabituationRate
	if d.Polymorphic {
		habRate *= m.PolymorphicHabituationScale
	}
	p *= math.Exp(-habRate * passive * float64(r.exposures[e.Comm.ID]))
	if d.BlocksPrimaryTask && p < m.NoticeBlockFloor {
		p = m.NoticeBlockFloor
	}
	return clamp01(p)
}

// PMaintain is the attention-maintenance probability.
func (r *Receiver) PMaintain(e Encounter) float64 {
	m := r.model()
	d := e.Comm.Design
	motivation := 0.5*r.Profile.RiskPerception() + 0.5*(1-r.Profile.PrimaryTaskFocus())
	p := m.MaintainBase +
		m.MaintainActiveness*d.Activeness -
		m.MaintainLengthPenalty*d.Length*(1-0.5*motivation) -
		m.MaintainLoadPenalty*e.Env.AttentionLoad()*(1-d.Activeness)
	if e.Primed {
		p += 0.5 * m.PrimedBoost
	}
	return clamp01(p)
}

// PComprehend is the comprehension probability given whether the receiver's
// mental model for the topic is accurate.
func (r *Receiver) PComprehend(e Encounter, accurateModel bool) float64 {
	m := r.model()
	d := e.Comm.Design
	exp := r.Profile.Expertise()
	lookPenalty := m.CompLookPenalty
	if !accurateModel {
		lookPenalty += m.CompLookPenaltyBad
	}
	p := m.CompBase +
		m.CompClarity*d.Clarity +
		m.CompExpertise*exp +
		m.CompExplain*d.Explanation -
		lookPenalty*d.LookAlike*(1-m.CompExpertiseShield*exp)
	return clamp01(p)
}

// PAcquire is the knowledge-acquisition probability (knowing what to do).
func (r *Receiver) PAcquire(e Encounter) float64 {
	m := r.model()
	p := m.AcqBase +
		m.AcqInstructions*e.Comm.Design.InstructionSpecificity +
		m.AcqSkill*r.skillLevel(e.Comm.Topic, e.Day) +
		m.AcqExpertise*r.Profile.Expertise()
	return clamp01(p)
}

// PRetain is the knowledge-retention probability after the encounter's
// apply delay, for knowledge gained from this communication.
func (r *Receiver) PRetain(e Encounter) float64 {
	if e.ApplyDelayDays == 0 {
		return 1
	}
	m := r.model()
	d := e.Comm.Design
	s, ok := r.skills[e.Comm.Topic]
	rehearsals := 0
	if ok {
		rehearsals = s.Rehearsals
	}
	hl := m.RetentionHalfLifeDays * (1 + m.RetentionInteractivity*d.Interactivity +
		m.RetentionMemory*r.Profile.MemoryCapacity() + m.RetentionRehearsal*float64(rehearsals))
	return clamp01(math.Exp(-math.Ln2 * e.ApplyDelayDays / hl))
}

// PTransfer is the knowledge-transfer probability for the encounter's
// situation novelty.
func (r *Receiver) PTransfer(e Encounter) float64 {
	if e.ApplyDelayDays == 0 && e.SituationNovelty == 0 {
		// Warnings that appear exactly when the hazard is detected require
		// no transfer (§2.3.3).
		return 1
	}
	m := r.model()
	penalty := m.TransferNoveltyPenalty -
		m.TransferInteractivity*e.Comm.Design.Interactivity -
		m.TransferExpertise*r.Profile.Expertise()
	if penalty < 0 {
		penalty = 0
	}
	return clamp01(1 - e.SituationNovelty*penalty)
}

// EffectiveTrust is the receiver's trust in the communication's topic after
// false-alarm erosion.
func (r *Receiver) EffectiveTrust(topic string) float64 {
	m := r.model()
	return r.Profile.TrustInSecurityUI() * math.Exp(-m.FPTrustDecay*float64(r.falseAlarms[topic]))
}

// PBelieve is the attitudes-and-beliefs probability: the receiver believes
// the communication and judges it worth acting on.
func (r *Receiver) PBelieve(e Encounter) float64 {
	m := r.model()
	d := e.Comm.Design
	trust := r.EffectiveTrust(e.Comm.Topic)
	p := m.BeliefBase +
		m.BeliefTrust*trust +
		m.BeliefRisk*r.Profile.RiskPerception()*e.Comm.Hazard.Severity +
		m.BeliefExplain*d.Explanation +
		m.BeliefSkill*r.skillLevel(e.Comm.Topic, e.Day) -
		m.BeliefLookPenalty*d.LookAlike
	return clamp01(p)
}

// PMotivate is the motivation probability: willingness to act given
// competing goals and compliance cost.
func (r *Receiver) PMotivate(e Encounter) float64 {
	m := r.model()
	d := e.Comm.Design
	p := m.MotBase +
		m.MotRisk*r.Profile.RiskPerception()*e.Comm.Hazard.Severity +
		m.MotCompliance*r.Profile.ComplianceTendency() +
		m.MotActiveness*d.Activeness +
		m.MotSkill*r.skillLevel(e.Comm.Topic, e.Day) -
		m.MotCostPenalty*e.ComplianceCost -
		m.MotFocusPenalty*r.Profile.PrimaryTaskFocus()*(1-d.Activeness)
	return clamp01(p)
}

// PHeuristic is the low-information decision probability: the chance a user
// who did not fully process a blocking communication nevertheless takes the
// safe action.
func (r *Receiver) PHeuristic(e Encounter) float64 {
	m := r.model()
	d := e.Comm.Design
	trust := r.EffectiveTrust(e.Comm.Topic)
	p := m.HeurBase +
		m.HeurRisk*r.Profile.RiskPerception() +
		m.HeurTrust*trust +
		m.HeurActiveness*d.Activeness +
		m.HeurSkill*r.skillLevel(e.Comm.Topic, e.Day) -
		m.HeurLookPenalty*d.LookAlike -
		m.HeurFocusPenalty*r.Profile.PrimaryTaskFocus()*(1-d.Activeness)
	return clamp01(p)
}

// PCapable is the capabilities probability for the encounter's task.
func (r *Receiver) PCapable(e Encounter) float64 {
	m := r.model()
	if e.MissingTools {
		return m.CapMissingTools
	}
	(&e).withDefaults()
	cog := clamp01(1 - 1.2*math.Max(0, e.Task.CognitiveDemand-(m.CapCognitiveSlack+(1-m.CapCognitiveSlack)*r.Profile.Expertise())))
	phy := clamp01(1 - 1.2*math.Max(0, e.Task.PhysicalDemand-(m.CapPhysicalSlack+(1-m.CapPhysicalSlack)*r.Profile.MotorSkill())))
	return cog * phy
}

// Process runs one encounter through the pipeline, mutating the receiver's
// experience state (exposure counts, false alarms, skills) and returning
// the outcome. Result.Trace is materialized only when CollectTrace is
// set; the sampling sequence — and therefore every other Result field —
// is identical either way.
func (r *Receiver) Process(rng *rand.Rand, e Encounter) (Result, error) {
	if err := e.Validate(); err != nil {
		return Result{}, err
	}
	(&e).withDefaults()

	collect := r.CollectTrace
	if collect {
		r.scratch = r.scratch[:0]
	}

	res := Result{FailedStage: StageNone, ErrorClass: gems.NoError}
	// observe records one stage check. The note is passed as prefix+suffix
	// so the concatenation is only paid when a trace is collected.
	observe := func(st Stage, p float64, passed bool, notePre, noteSuf string) {
		if !collect {
			return
		}
		note := notePre
		if noteSuf != "" {
			note += noteSuf
		}
		r.scratch = append(r.scratch, Check{Stage: st, P: p, Passed: passed, Note: note})
	}
	// finish copies the scratch buffer into Result.Trace: trace consumers
	// (telemetry sketches) may hold the Result past the receiver's next
	// Process call, so they must not alias the scratch.
	finish := func() (Result, error) {
		if collect && len(r.scratch) > 0 {
			res.Trace = append([]Check(nil), r.scratch...)
		}
		return res, nil
	}
	check := func(st Stage, p float64, notePre, noteSuf string) bool {
		passed := rng.Float64() < p
		observe(st, p, passed, notePre, noteSuf)
		return passed
	}
	fail := func(st Stage) (Result, error) {
		res.Heeded = false
		res.FailedStage = st
		return finish()
	}
	heuristicDecision := func(note string) (Result, error) {
		res.HeuristicPath = true
		p := r.PHeuristic(e)
		if check(StageBehavior, p, "heuristic decision: ", note) {
			res.Heeded = true
			res.FailedStage = StageNone
			return finish()
		}
		return fail(StageBehavior)
	}

	// --- Communication impediments (delivery). ---
	eff := e.Interference.Apply()
	if eff.Spoofed {
		res.Spoofed = true
		observe(StageDelivery, 0, false,
			"spoofed by attacker: receiver perceives attacker-controlled indicator", "")
		return fail(StageDelivery)
	}
	if !check(StageDelivery, eff.DeliveredFraction, "interference: ", e.Interference.Kind.String()) {
		return fail(StageDelivery)
	}
	// Delivery race: delayed communications dismissible by primary-task
	// input can vanish before the user ever saw them (the IE7 passive
	// warning dismissed by typing into a form).
	if e.Comm.Design.DismissedByPrimaryTask {
		delay := e.Comm.Design.DelaySeconds + eff.AddedDelaySeconds
		m := r.model()
		pSurvive := 1 - m.DismissRaceFactor*e.Env.PrimaryTaskPressure*math.Min(1, delay/5)
		if !check(StageDelivery, pSurvive, "dismissal race (delayed, dismissible warning)", "") {
			return fail(StageDelivery)
		}
	}

	// --- Attention switch. ---
	noticed := check(StageAttentionSwitch, r.PNotice(e), "", "")
	if noticed {
		if r.exposures == nil {
			r.exposures = make(map[string]int)
		}
		r.exposures[e.Comm.ID]++
		if !e.HazardPresent {
			if r.falseAlarms == nil {
				r.falseAlarms = make(map[string]int)
			}
			r.falseAlarms[e.Comm.Topic]++
		}
	}
	if !noticed {
		return fail(StageAttentionSwitch)
	}

	blocking := e.Comm.Design.BlocksPrimaryTask

	// --- Attention maintenance. ---
	if !check(StageAttentionMaintenance, r.PMaintain(e), "", "") {
		if blocking {
			// The user must still dispose of the blocker somehow.
			return heuristicDecision("did not fully read blocking communication")
		}
		return fail(StageAttentionMaintenance)
	}

	// --- Comprehension. ---
	accurate := r.HasAccurateModel(e.Comm.Topic)
	note := ""
	if !accurate {
		note = "inaccurate mental model"
	}
	if !check(StageComprehension, r.PComprehend(e, accurate), note, "") {
		if blocking {
			return heuristicDecision("did not comprehend blocking communication")
		}
		return fail(StageComprehension)
	}

	// --- Knowledge acquisition. ---
	acquired := check(StageKnowledgeAcquisition, r.PAcquire(e), "", "")
	if acquired && (e.Comm.Kind == comms.Training || e.Comm.Kind == comms.Policy) {
		// Learning happened: install/refresh topic skill and correct the
		// mental model.
		level := 0.5 + 0.5*e.Comm.Design.InstructionSpecificity
		prev, ok := r.skills[e.Comm.Topic]
		if !ok || level > r.skillLevel(e.Comm.Topic, e.Day) {
			if r.skills == nil {
				r.skills = make(map[string]Skill)
			}
			r.skills[e.Comm.Topic] = Skill{
				Level:         level,
				Interactivity: e.Comm.Design.Interactivity,
				AcquiredDay:   e.Day,
				Rehearsals:    prev.Rehearsals,
			}
		}
		if e.Comm.Kind == comms.Training {
			if r.accurateModel == nil {
				r.accurateModel = make(map[string]bool)
			}
			r.accurateModel[e.Comm.Topic] = true
		}
	}
	if !acquired {
		if blocking {
			return heuristicDecision("did not know what to do")
		}
		return fail(StageKnowledgeAcquisition)
	}

	// --- Application: retention and transfer (delayed applications only). ---
	if !check(StageKnowledgeRetention, r.PRetain(e), "", "") {
		return fail(StageKnowledgeRetention)
	}
	if !check(StageKnowledgeTransfer, r.PTransfer(e), "", "") {
		return fail(StageKnowledgeTransfer)
	}

	// --- Intentions: attitudes & beliefs, then motivation. ---
	if !check(StageAttitudesBeliefs, r.PBelieve(e), "", "") {
		return fail(StageAttitudesBeliefs)
	}
	if !check(StageMotivation, r.PMotivate(e), "", "") {
		return fail(StageMotivation)
	}

	// --- Capabilities. ---
	capNote := ""
	if e.MissingTools {
		capNote = "required tools missing"
	}
	if !check(StageCapabilities, r.PCapable(e), capNote, "") {
		return fail(StageCapabilities)
	}

	// --- Behavior (GEMS). ---
	attempt, err := gems.Perform(rng, e.Task, r.Profile)
	if err != nil {
		return Result{}, fmt.Errorf("agent: behavior stage: %w", err)
	}
	res.ErrorClass = attempt.Class
	observe(StageBehavior, 1, attempt.Completed, "gems: ", attempt.Class.String())
	if !attempt.Completed {
		res.Heeded = false
		res.FailedStage = StageBehavior
		return finish()
	}
	if s, ok := r.skills[e.Comm.Topic]; ok && e.ApplyDelayDays > 0 {
		// Successful application rehearses the skill.
		s.Rehearsals++
		r.skills[e.Comm.Topic] = s
	}
	res.Heeded = true
	res.Unverified = !attempt.Verified
	return finish()
}
