package sim

// Compiled programs: the per-run compile step that lowers one encounter's
// stage models (via agent.LowerEncounter) plus a population spec into a
// flat Program, evaluated by the same scheduling/containment machinery as
// the interpreted path but without a Receiver, without maps, and without
// per-subject allocations. A scenario whose subjects meet several
// encounters compiles to a loop program instead: its own subject loop,
// evaluating lowered encounters over agent.Registers. On top of
// compilation sits the analytic engine: for single-encounter programs
// over populations whose sampled profiles are all identical (see
// population.Spec.MeanField), every subject is an independent Bernoulli
// chain with the same stage thresholds, so the aggregate distribution has
// a closed form and needs no Monte Carlo at all.

import (
	"context"
	"fmt"
	"math/rand"

	"hitl/internal/agent"
	"hitl/internal/gems"
	"hitl/internal/population"
)

// Engine path names, as recorded in EngineReport.Path, pprof labels, run
// reports, and the scenario layer's engine selection.
const (
	EngineInterpreted = "interpreted"
	EngineCompiled    = "compiled"
	EngineAnalytic    = "analytic"
)

// ErrNotCompilable reports a scenario shape the compiler refuses; the
// caller falls back to the interpreted walk. It aliases
// agent.ErrNotLowerable so errors.Is matches refusals from either layer
// with a single sentinel.
var ErrNotCompilable = agent.ErrNotLowerable

// Program is one compiled run: a population to sample and either one
// lowered encounter to evaluate each sample against, or a scenario's
// subject loop over lowered encounters. Subject i draws its profile and
// its stage outcomes from the same deterministic stream subject i of the
// equivalent interpreted run uses, in the same order, so results are
// bit-identical to Run with the corresponding SubjectFunc.
type Program struct {
	// Pop is sampled once per subject, consuming the leading draws of the
	// subject's stream exactly as interpreted scenarios do.
	Pop population.Spec
	// Params is the lowered encounter evaluated against each sample, on
	// fresh registers; nil for a loop program.
	Params *agent.StageParams
	// Loop is a loop program's subject function: the scenario's own
	// subject loop (sampling Pop itself) over lowered encounters. It must
	// be safe for concurrent use, like any SubjectFunc.
	Loop SubjectFunc
	// Keys names the observation slots Loop records, as Runner.Keys does
	// for an interpreted run; RunProgram runs under them.
	Keys []string
	// Interpreted is the interpreted subject function the program
	// reproduces, collecting the stage trace its outcomes carry, if any.
	// SampleTraces replays sampled subjects on it; the compiled run never
	// calls it.
	Interpreted SubjectFunc
}

// NewProgram compiles (population, encounter) into a Program. It returns
// an error wrapping ErrNotCompilable for shapes only the interpreter
// reproduces: encounters agent.LowerEncounter refuses (training
// communications, delayed application, decaying trained skills), and
// populations checkPopulation refuses.
func NewProgram(pop population.Spec, m *agent.Model, e agent.Encounter, trained bool, skill agent.Skill) (*Program, error) {
	if err := checkPopulation(pop); err != nil {
		return nil, err
	}
	sp, err := agent.LowerEncounter(m, e, trained, skill)
	if err != nil {
		return nil, err
	}
	return &Program{Pop: pop, Params: sp}, nil
}

// NewLoopProgram wraps a scenario's subject loop over lowered encounters
// as a compiled program over pop, refusing the populations NewProgram
// refuses. keys names the observation slots the loop records. The loop
// must consume each subject's stream exactly as the scenario's
// interpreted SubjectFunc does, and record the same slots; scenarios get
// that by running one loop, under one key list, on both paths and
// changing only how an encounter is evaluated.
func NewLoopProgram(pop population.Spec, keys []string, loop SubjectFunc) (*Program, error) {
	if loop == nil {
		return nil, fmt.Errorf("sim: nil subject loop")
	}
	if err := checkPopulation(pop); err != nil {
		return nil, err
	}
	return &Program{Pop: pop, Loop: loop, Keys: keys}, nil
}

// checkPopulation validates a compiled program's population once, which
// must prove every sample valid up front: populations that can sample
// ages outside the [0, 130] the interpreted path's per-subject profile
// validation enforces are refused with ErrNotCompilable.
func checkPopulation(pop population.Spec) error {
	if err := pop.Validate(); err != nil {
		return err
	}
	if pop.AgeMax > 130 {
		return fmt.Errorf("%w: population %q can sample ages beyond 130, which per-subject validation would reject", ErrNotCompilable, pop.Name)
	}
	return nil
}

// subject returns the compiled subject evaluator. The profile and the
// registers are stack values and StageParams.Eval neither allocates nor
// retains them, so the returned SubjectFunc is allocation-free per
// subject in steady state.
func (p *Program) subject() SubjectFunc {
	if p.Loop != nil {
		return p.Loop
	}
	pop := p.Pop
	sp := p.Params
	return func(rng *rand.Rand, _ int) (Outcome, error) {
		prof := pop.Sample(rng)
		reg := sp.Fresh()
		return FromAgentResult(sp.Eval(rng, &prof, &reg)), nil
	}
}

// RunProgram executes the compiled program under the same scheduling,
// cancellation, panic containment, fault injection, and aggregation as
// Run, and returns a bit-identical Result — faulted or not. The one
// difference is observational: compiled subjects build no stage trace, so
// RunProgram offers nothing to a telemetry.Recorder; SampleTraces samples
// the run's subjects by replay. The run's observation keys are the
// program's.
func (ru Runner) RunProgram(ctx context.Context, p *Program) (*Result, error) {
	if p == nil || (p.Params == nil && p.Loop == nil) {
		return nil, fmt.Errorf("sim: nil program")
	}
	ru.Keys = p.Keys
	return ru.run(ctx, p.subject(), EngineCompiled)
}

// Distribution is the exact per-subject outcome law of an
// analytically-eligible program: each field is a probability mass (they
// are what Result's corresponding counters converge to, divided by N, as
// N grows). Masses are exact up to float64 rounding — no sampling is
// involved.
type Distribution struct {
	// Heed is the probability the subject performs the desired behavior
	// (including heuristic-path compliance and unverified completions).
	Heed float64 `json:"heed"`
	// StageFailures attributes the complementary mass to the C-HIP stage
	// where processing stopped. Only nonzero entries are present.
	StageFailures map[agent.Stage]float64 `json:"stage_failures,omitempty"`
	// ErrorClasses is the GEMS class distribution over all subjects
	// (NoError for every subject that never reached a behavior-stage
	// error, exactly like the Monte Carlo aggregation counts it).
	ErrorClasses map[gems.ErrorClass]float64 `json:"error_classes,omitempty"`
	// Spoofed and Heuristic are the probabilities of those flags.
	Spoofed   float64 `json:"spoofed,omitempty"`
	Heuristic float64 `json:"heuristic,omitempty"`
}

// AnalyticEligible reports whether the program is one encounter and every
// subject it samples is statistically identical: all trait spreads zero,
// no expert subpopulation, and a degenerate mental-model coin. Then the
// run is N independent Bernoulli chains with one shared threshold vector
// and Exact computes the aggregate law in closed form.
// population.Spec.MeanField produces eligible specs. A loop program is
// never eligible: its subjects' encounters depend on draws earlier in the
// loop (how many emails arrive, what habituation has accrued), which no
// single threshold vector describes.
func (p *Program) AnalyticEligible() bool {
	if p.Loop != nil {
		return false
	}
	s := p.Pop
	if s.ExpertFraction != 0 {
		return false
	}
	if s.AccurateModelBase != 0 && s.AccurateModelBase != 1 {
		return false
	}
	for i := population.DimIndex(0); i < population.NumCoreDims; i++ {
		if s.CoreTrait(i).SD != 0 {
			return false
		}
	}
	for _, d := range s.ExtDims() {
		if d.Trait.SD != 0 {
			return false
		}
	}
	return true
}

// meanSubject is the one profile an eligible population ever produces:
// every trait at its mean (TruncNormal with sd 0 returns the mean
// exactly), the degenerate mental-model outcome, and any in-range age —
// no stage model reads Age.
func (p *Program) meanSubject() population.Profile {
	s := p.Pop
	prof := population.Profile{
		Age:                 s.AgeMin,
		AccurateMentalModel: s.AccurateModelBase == 1,
	}
	for i := population.DimIndex(0); i < population.NumCoreDims; i++ {
		prof.SetDim(i, s.CoreTrait(i).Mean)
	}
	return prof
}

// Exact computes the program's aggregate outcome distribution in closed
// form by propagating probability mass through the stage chain — the
// analytic counterpart of Eval's sampled walk. It refuses (wrapping
// ErrNotCompilable) when the program is not AnalyticEligible.
//
// Derivation: with one shared threshold vector, the chain is a Markov
// walk over stages. Mass failing a stage check stops there
// (StageFailures), except under a blocking communication where
// maintenance/comprehension/acquisition failures reroute to the heuristic
// decision: that mass carries the Heuristic flag and splits between
// compliance and a behavior-stage stop. Mass surviving to the behavior
// stage decomposes by the GEMS draw order — mistake, execution gulf, then
// per-step lapse/slip, then evaluation gulf (an unverified completion
// that still counts as heeded) — and the remainder completes verified.
func (p *Program) Exact() (*Distribution, error) {
	if p.Loop != nil {
		return nil, fmt.Errorf("%w: a subject loop has no closed form", ErrNotCompilable)
	}
	if !p.AnalyticEligible() {
		return nil, fmt.Errorf("%w: population %q samples non-identical subjects; analytic aggregation needs a mean-field spec", ErrNotCompilable, p.Pop.Name)
	}
	prof := p.meanSubject()
	pr := p.Params.Probabilities(&prof)

	d := &Distribution{
		StageFailures: make(map[agent.Stage]float64),
		ErrorClasses:  make(map[gems.ErrorClass]float64),
	}
	if pr.Spoofed {
		// Spoofed interference kills delivery for everyone before any draw.
		d.Spoofed = 1
		d.StageFailures[agent.StageDelivery] = 1
		d.ErrorClasses[gems.NoError] = 1
		return d, nil
	}

	alive := 1.0
	// step moves the surviving mass through one stage check, routing the
	// failing fraction to the stage's failure bucket.
	step := func(pass float64, s agent.Stage) {
		if f := alive * (1 - pass); f > 0 {
			d.StageFailures[s] += f
		}
		alive *= pass
	}
	heur := 0.0
	// heurStep is the blocking-communication variant: failing mass joins
	// the heuristic-decision pool instead of stopping.
	heurStep := func(pass float64) {
		heur += alive * (1 - pass)
		alive *= pass
	}

	step(pr.Deliver, agent.StageDelivery)
	step(pr.Survive, agent.StageDelivery) // dismissal race; Survive == 1 without one
	step(pr.Notice, agent.StageAttentionSwitch)
	if pr.Blocking {
		heurStep(pr.Maintain)
		heurStep(pr.Comprehend)
		heurStep(pr.Acquire)
	} else {
		step(pr.Maintain, agent.StageAttentionMaintenance)
		step(pr.Comprehend, agent.StageComprehension)
		step(pr.Acquire, agent.StageKnowledgeAcquisition)
	}
	step(pr.Retain, agent.StageKnowledgeRetention) // == 1 for compilable shapes
	step(pr.Transfer, agent.StageKnowledgeTransfer)
	step(pr.Believe, agent.StageAttitudesBeliefs)
	step(pr.Motivate, agent.StageMotivation)
	step(pr.Capable, agent.StageCapabilities)

	// Behavior stage: GEMS event decomposition in draw order.
	surv := alive
	mistake := surv * pr.Mistake
	surv -= mistake
	gexec := surv * pr.ExecGulf
	surv -= gexec
	lapse, slip := 0.0, 0.0
	for s := 0; s < pr.Steps; s++ {
		l := surv * pr.Lapse
		surv -= l
		lapse += l
		sl := surv * pr.Slip
		surv -= sl
		slip += sl
	}
	geval := surv * pr.EvalGulf
	surv -= geval

	for _, ec := range []struct {
		class gems.ErrorClass
		mass  float64
	}{
		{gems.Mistake, mistake},
		{gems.ExecutionGulf, gexec},
		{gems.Lapse, lapse},
		{gems.Slip, slip},
		{gems.EvaluationGulf, geval},
	} {
		if ec.mass > 0 {
			d.ErrorClasses[ec.class] = ec.mass
		}
	}
	if fail := mistake + gexec + lapse + slip; fail > 0 {
		d.StageFailures[agent.StageBehavior] += fail
	}
	// Everyone who never hit a behavior-stage error — including every
	// pre-behavior failure and the whole heuristic pool — counts NoError,
	// matching how the Monte Carlo aggregation classifies subjects.
	d.ErrorClasses[gems.NoError] = 1 - (mistake + gexec + lapse + slip + geval)

	// Heuristic pool: flagged either way, heeds with the heuristic
	// probability, otherwise stops at the behavior stage.
	d.Heuristic = heur
	heurHeed := heur * pr.Heuristic
	if miss := heur - heurHeed; miss > 0 {
		d.StageFailures[agent.StageBehavior] += miss
	}

	// Heeded mass: verified completions, unverified (evaluation-gulf)
	// completions, and heuristic compliance.
	d.Heed = surv + geval + heurHeed
	return d, nil
}
