package agent

import (
	"errors"
	"math/rand"
	"testing"

	"hitl/internal/comms"
	"hitl/internal/population"
	"hitl/internal/stimuli"
)

// interpretOne runs one subject through the interpreted Receiver walk on a
// fresh receiver, exactly as the Monte Carlo scenarios do.
func interpretOne(t *testing.T, e Encounter, trained bool, skill Skill, prof population.Profile, seed int64) Result {
	t.Helper()
	r := NewReceiver(prof)
	if trained {
		r.Train(e.Comm.Topic, skill)
	}
	res, err := r.Process(rand.New(rand.NewSource(seed)), e)
	if err != nil {
		t.Fatalf("Process: %v", err)
	}
	return res
}

// sameResult compares everything except Trace (never materialized on
// either path under test).
func sameResult(a, b Result) bool {
	return a.Heeded == b.Heeded &&
		a.FailedStage == b.FailedStage &&
		a.ErrorClass == b.ErrorClass &&
		a.HeuristicPath == b.HeuristicPath &&
		a.Unverified == b.Unverified &&
		a.Spoofed == b.Spoofed
}

// lowerableEncounters spans the lowerable encounter space: every warning
// preset and the password policy document, both hazard polarities,
// priming, interference kinds, both environments, missing tools, and
// situation novelty.
func lowerableEncounters() []Encounter {
	var out []Encounter
	warnings := []comms.Communication{
		comms.FirefoxActiveWarning(),
		comms.IEActiveWarning(),
		comms.IEPassiveWarning(),
		comms.ToolbarPassiveIndicator(),
	}
	interferences := []stimuli.Interference{
		{},
		{Kind: stimuli.Block, Strength: 0.3},
		{Kind: stimuli.Spoof, Strength: 0.7},
		{Kind: stimuli.Spoof, Strength: 0.3},
		{Kind: stimuli.Obscure, Strength: 0.5},
		{Kind: stimuli.Delay, Strength: 0.8},
		{Kind: stimuli.TechFailure, Strength: 0.2},
	}
	for _, w := range append(warnings, comms.PasswordPolicyDocument()) {
		for _, inf := range interferences {
			out = append(out, Encounter{Comm: w, Env: stimuli.Busy(), Interference: inf, HazardPresent: true})
		}
		out = append(out,
			Encounter{Comm: w, Env: stimuli.Quiet(), HazardPresent: false},
			Encounter{Comm: w, Env: stimuli.Busy(), HazardPresent: true, Primed: true},
			Encounter{Comm: w, Env: stimuli.Busy(), HazardPresent: true, MissingTools: true},
			Encounter{Comm: w, Env: stimuli.Busy(), HazardPresent: true, SituationNovelty: 0.4},
			Encounter{Comm: w, Env: stimuli.Quiet(), HazardPresent: false, ComplianceCost: 0.6},
		)
	}
	return out
}

func randomProfile(rng *rand.Rand) population.Profile {
	u := rng.Float64
	p := population.Profile{Age: 18 + rng.Intn(60)}
	p.SetDim(population.DimEducation, u())
	p.SetDim(population.DimTechExpertise, u())
	p.SetDim(population.DimSecurityKnowledge, u())
	p.AccurateMentalModel = rng.Intn(2) == 0
	p.SetDim(population.DimMemoryCapacity, u())
	p.SetDim(population.DimVisualAcuity, u())
	p.SetDim(population.DimMotorSkill, u())
	p.SetDim(population.DimRiskPerception, u())
	p.SetDim(population.DimTrustInSecurityUI, u())
	p.SetDim(population.DimSelfEfficacy, u())
	p.SetDim(population.DimPrimaryTaskFocus, u())
	p.SetDim(population.DimComplianceTendency, u())
	return p
}

// TestLowerBitIdentity is the compiler's correctness property: for every
// lowerable encounter shape, StageParams.Eval consumes the same rng stream
// and produces the exact Result Receiver.Process does, across many random
// profiles and seeds, trained and untrained.
func TestLowerBitIdentity(t *testing.T) {
	profRng := rand.New(rand.NewSource(99))
	skill := Skill{Level: 0.85, Interactivity: 0.85, AcquiredDay: 0}
	for ei, e := range lowerableEncounters() {
		for _, trained := range []bool{false, true} {
			sp, err := LowerEncounter(nil, e, trained, skill)
			if err != nil {
				t.Fatalf("encounter %d (comm %s): LowerEncounter: %v", ei, e.Comm.ID, err)
			}
			for s := 0; s < 200; s++ {
				prof := randomProfile(profRng)
				seed := int64(ei*100000 + s)
				want := interpretOne(t, e, trained, skill, prof, seed)
				reg := sp.Fresh()
				got := sp.Eval(rand.New(rand.NewSource(seed)), &prof, &reg)
				if !sameResult(want, got) {
					t.Fatalf("encounter %d (comm %s, trained=%v) seed %d:\ninterpreted %+v\ncompiled    %+v",
						ei, e.Comm.ID, trained, seed, want, got)
				}
			}
		}
	}
}

// TestLowerRefusals pins the shapes the compiler must refuse: state
// mutation within the encounter has no constant lowering.
func TestLowerRefusals(t *testing.T) {
	base := Encounter{Comm: comms.FirefoxActiveWarning(), Env: stimuli.Busy(), HazardPresent: true}

	training := base
	training.Comm = comms.AntiPhishingTraining()
	if _, err := LowerEncounter(nil, training, false, Skill{}); !errors.Is(err, ErrNotLowerable) {
		t.Errorf("training kind: want ErrNotLowerable, got %v", err)
	}

	// A policy's skill installation is carried by the registers.
	policy := base
	policy.Comm.Kind = comms.Policy
	if _, err := LowerEncounter(nil, policy, false, Skill{}); err != nil {
		t.Errorf("policy kind: want lowerable, got %v", err)
	}

	delayed := base
	delayed.ApplyDelayDays = 7
	if _, err := LowerEncounter(nil, delayed, false, Skill{}); !errors.Is(err, ErrNotLowerable) {
		t.Errorf("apply delay: want ErrNotLowerable, got %v", err)
	}

	aged := base
	aged.Day = 10
	if _, err := LowerEncounter(nil, aged, true, Skill{Level: 0.85, AcquiredDay: 0}); !errors.Is(err, ErrNotLowerable) {
		t.Errorf("aged trained skill: want ErrNotLowerable, got %v", err)
	}
	// The same shape untrained is lowerable: with no skill there is nothing
	// to decay.
	if _, err := LowerEncounter(nil, aged, false, Skill{}); err != nil {
		t.Errorf("aged untrained: want lowerable, got %v", err)
	}

	// A skill a policy installed on day 0 has decayed by day 1, so reading
	// it there is refused too: Eval panics rather than answer.
	installer, err := LowerEncounter(nil, Encounter{Comm: comms.PasswordPolicyDocument(), Env: stimuli.Quiet(), HazardPresent: true}, false, Skill{})
	if err != nil {
		t.Fatalf("policy document: %v", err)
	}
	later := Encounter{Comm: comms.PasswordPolicyDocument(), Env: stimuli.Quiet(), HazardPresent: true, Day: 1}
	reader, err := LowerEncounter(nil, later, false, Skill{})
	if err != nil {
		t.Fatalf("policy document on day 1: %v", err)
	}
	if !readsAgedSkillPanics(installer, reader) {
		t.Error("register skill read a day after acquisition: want a panic")
	}

	invalid := base
	invalid.SituationNovelty = 2
	if _, err := LowerEncounter(nil, invalid, false, Skill{}); err == nil || errors.Is(err, ErrNotLowerable) {
		t.Errorf("invalid encounter: want a validation error, got %v", err)
	}

	// Probabilities must agree with the exported stage functions on a
	// receiver holding the same state.
	prof := randomProfile(rand.New(rand.NewSource(5)))
	sp, err := LowerEncounter(nil, base, false, Skill{})
	if err != nil {
		t.Fatalf("LowerEncounter: %v", err)
	}
	pr := sp.Probabilities(&prof)
	r := NewReceiver(prof)
	checks := []struct {
		name string
		got  float64
		want float64
	}{
		{"notice", pr.Notice, r.PNotice(base)},
		{"maintain", pr.Maintain, r.PMaintain(base)},
		{"comprehend", pr.Comprehend, r.PComprehend(base, prof.AccurateMentalModel)},
		{"acquire", pr.Acquire, r.PAcquire(base)},
		{"retain", pr.Retain, r.PRetain(base)},
		{"transfer", pr.Transfer, r.PTransfer(base)},
		{"believe", pr.Believe, r.PBelieve(base)},
		{"motivate", pr.Motivate, r.PMotivate(base)},
		{"capable", pr.Capable, r.PCapable(base)},
		{"heuristic", pr.Heuristic, r.PHeuristic(base)},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("Probabilities.%s = %v, stage function = %v", c.name, c.got, c.want)
		}
	}
}

// readsAgedSkillPanics runs subjects through installer until one acquires
// its skill, then reports whether reader's Eval refuses the registers.
func readsAgedSkillPanics(installer, reader *StageParams) (panicked bool) {
	prof := randomProfile(rand.New(rand.NewSource(8)))
	reg := installer.Fresh()
	for seed := int64(0); !reg.HasSkill; seed++ {
		installer.Eval(rand.New(rand.NewSource(seed)), &prof, &reg)
	}
	defer func() { panicked = recover() != nil }()
	reader.Eval(rand.New(rand.NewSource(1)), &prof, &reg)
	return false
}

// countingSource counts the draws taken from a math/rand source.
type countingSource struct {
	rand.Source
	draws int
}

func (c *countingSource) Int63() int64 {
	c.draws++
	return c.Source.Int63()
}

// TestLowerRegistersBitIdentity carries one Receiver and one register set
// through the same random sequence of hazard and false-positive
// encounters, for every warning preset and the password policy document:
// the two must agree draw for draw, result for result, and the registers
// must hold exactly the receiver's exposures, false alarms and skill after
// every encounter. This is what compiled subject loops (campaigns, policy
// re-reads) rely on.
func TestLowerRegistersBitIdentity(t *testing.T) {
	presets := []comms.Communication{
		comms.FirefoxActiveWarning(),
		comms.IEActiveWarning(),
		comms.IEPassiveWarning(),
		comms.ToolbarPassiveIndicator(),
		comms.PasswordPolicyDocument(),
	}
	profRng := rand.New(rand.NewSource(31))
	for ci, c := range presets {
		// The policy is read primed, as the password scenario presents it.
		hazardEnc := Encounter{Comm: c, Env: stimuli.Busy(), HazardPresent: true, Primed: c.Kind == comms.Policy}
		falseEnc := hazardEnc
		falseEnc.HazardPresent = false
		hazard, err := LowerEncounter(nil, hazardEnc, false, Skill{})
		if err != nil {
			t.Fatalf("%s: %v", c.ID, err)
		}
		falseAlarm, err := LowerEncounter(nil, falseEnc, false, Skill{})
		if err != nil {
			t.Fatalf("%s: %v", c.ID, err)
		}
		for subject := 0; subject < 150; subject++ {
			prof := randomProfile(profRng)
			seed := int64(ci*1000 + subject)
			isrc := &countingSource{Source: rand.NewSource(seed)}
			csrc := &countingSource{Source: rand.NewSource(seed)}
			irng, crng := rand.New(isrc), rand.New(csrc)
			r := NewReceiver(prof)
			reg := hazard.Fresh()
			seq := rand.New(rand.NewSource(seed + 1))
			for k, steps := 0, 5+seq.Intn(30); k < steps; k++ {
				e, sp := hazardEnc, hazard
				if seq.Intn(3) == 0 {
					e, sp = falseEnc, falseAlarm
				}
				want, err := r.Process(irng, e)
				if err != nil {
					t.Fatal(err)
				}
				got := sp.Eval(crng, &prof, &reg)
				if !sameResult(want, got) || isrc.draws != csrc.draws {
					t.Fatalf("%s subject %d encounter %d (hazard=%v): interpreted %+v after %d draws, lowered %+v after %d",
						c.ID, subject, k, e.HazardPresent, want, isrc.draws, got, csrc.draws)
				}
				skill, ok := r.SkillFor(c.Topic)
				if reg.Exposures != r.Exposures(c.ID) || reg.FalseAlarms != r.FalseAlarms(c.Topic) ||
					reg.HasSkill != ok || reg.Skill != skill.Level {
					t.Fatalf("%s subject %d encounter %d: registers %+v, receiver exposures %d, false alarms %d, skill %+v (%v)",
						c.ID, subject, k, reg, r.Exposures(c.ID), r.FalseAlarms(c.Topic), skill, ok)
				}
			}
		}
	}
}
