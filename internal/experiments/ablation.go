package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"hitl/internal/agent"
	"hitl/internal/comms"
	"hitl/internal/gems"
	"hitl/internal/population"
	"hitl/internal/report"
	"hitl/internal/sim"
	"hitl/internal/stimuli"
)

// E12ModelAblations removes the receiver model's distinctive mechanisms one
// at a time — the heuristic decision path for blockers, habituation,
// false-positive trust erosion, and the delivery race — and shows which
// reproduced study shapes each mechanism carries. This is the ablation
// index DESIGN.md promises for the design choices behind the calibration.
func E12ModelAblations(ctx context.Context, cfg Config) (*Output, error) {
	n := cfg.n(3000)
	pop := population.GeneralPublic()

	type variant struct {
		name   string
		mutate func(*agent.Model)
	}
	variants := []variant{
		{"full-model", func(*agent.Model) {}},
		{"no-heuristic-path", func(m *agent.Model) {
			// Users who fail to read/comprehend a blocker never take the
			// safe action anyway.
			m.HeurBase, m.HeurRisk, m.HeurTrust = 0, 0, 0
			m.HeurActiveness, m.HeurSkill = 0, 0
		}},
		{"no-habituation", func(m *agent.Model) { m.HabituationRate = 0 }},
		{"no-fp-erosion", func(m *agent.Model) { m.FPTrustDecay = 0 }},
		{"no-dismissal-race", func(m *agent.Model) { m.DismissRaceFactor = 0 }},
	}

	heedWith := func(model *agent.Model, c comms.Communication, exposures, falseAlarms int, seedOff int64) (float64, error) {
		runner := sim.Runner{Seed: cfg.Seed + seedOff, N: n}
		res, err := runner.Run(ctx, func(rng *rand.Rand, i int) (sim.Outcome, error) {
			r := agent.NewReceiver(pop.Sample(rng))
			r.Model = model
			r.AddExposures(c.ID, exposures)
			r.AddFalseAlarms(c.Topic, falseAlarms)
			ar, err := r.Process(rng, agent.Encounter{
				Comm: c, Env: stimuli.Busy(), HazardPresent: true,
				Task: gems.LeaveSuspiciousSite(),
			})
			if err != nil {
				return sim.Outcome{}, err
			}
			return sim.FromAgentResult(ar), nil
		})
		if err != nil {
			return 0, err
		}
		return res.HeedRate(), nil
	}

	t := report.NewTable("Receiver-model ablations: which mechanism carries which study shape",
		"Variant", "firefox heed (fresh)", "ie-passive heed (fresh)",
		"ie-passive notice-heed @10 exposures", "firefox heed @10 false alarms")
	metrics := map[string]float64{}
	for vi, v := range variants {
		model := agent.DefaultModel()
		v.mutate(model)
		ff, err := heedWith(model, comms.FirefoxActiveWarning(), 0, 0, int64(vi)*1000+1)
		if err != nil {
			return nil, err
		}
		iep, err := heedWith(model, comms.IEPassiveWarning(), 0, 0, int64(vi)*1000+2)
		if err != nil {
			return nil, err
		}
		iepHab, err := heedWith(model, comms.IEPassiveWarning(), 10, 0, int64(vi)*1000+3)
		if err != nil {
			return nil, err
		}
		ffFP, err := heedWith(model, comms.FirefoxActiveWarning(), 0, 10, int64(vi)*1000+4)
		if err != nil {
			return nil, err
		}
		t.Addf(v.name, ff, iep, iepHab, ffFP)
		metrics[v.name+"_ff"] = ff
		metrics[v.name+"_iep"] = iep
		metrics[v.name+"_iep_hab10"] = iepHab
		metrics[v.name+"_ff_fp10"] = ffFP
	}
	return &Output{
		ID:    "E12",
		Title: "Receiver-model ablations (design-choice index)",
		PaperShape: "removing the heuristic path collapses active-warning heed rates below the study band; " +
			"removing habituation/FP-erosion freezes the longitudinal dynamics; " +
			"removing the dismissal race overstates passive-warning delivery",
		Tables:  []*report.Table{t},
		Metrics: metrics,
		Notes: []string{
			"each mechanism is load-bearing for a specific reproduced shape; see TestE12Shape",
		},
	}, nil
}

// E13ActivenessTradeoff runs the §2.1 cross-contamination experiment: a
// frequent, false-positive-prone, low-severity warning shares a topic with
// a rare severe warning. Making the noisy one active erodes trust in the
// severe one ("users start ignoring not only these warnings, but also
// similar warnings about more severe hazards"); demoting it to a passive
// notice, as §2.1 advises, protects the severe warning's effectiveness.
func E13ActivenessTradeoff(ctx context.Context, cfg Config) (*Output, error) {
	n := cfg.n(3000)
	pop := population.GeneralPublic()

	// The noisy, frequent, low-severity warning.
	makeNoisy := func(active bool) comms.Communication {
		c := comms.Communication{
			ID:      "mixed-content-warning",
			Topic:   "phishing", // same indicator family as the severe warning
			Kind:    comms.Warning,
			Channel: comms.ChannelDialog,
			Design: comms.Design{
				Activeness: 0.9, Salience: 0.8, Clarity: 0.6,
				InstructionSpecificity: 0.4, LookAlike: 0.5, Length: 0.2,
				BlocksPrimaryTask: true,
			},
			Hazard: comms.Hazard{
				Severity: 0.15, EncounterRate: 20, UserActionNecessity: 0.5,
			},
			FalsePositiveRate: 0.7,
		}
		if !active {
			c.Design.Activeness = 0.2
			c.Design.Salience = 0.4
			c.Design.BlocksPrimaryTask = false
			c.Kind = comms.Notice
		}
		return c
	}
	severe := comms.FirefoxActiveWarning()

	run := func(noisyActive bool, seedOff int64) (severeHeed float64, fpSeen float64, err error) {
		noisy := makeNoisy(noisyActive)
		// Each subject records, in slot 0, the false alarms it noticed.
		runner := sim.Runner{Seed: cfg.Seed + seedOff, N: n, Keys: []string{"fa"}}
		res, err := runner.Run(ctx, func(rng *rand.Rand, i int) (sim.Outcome, error) {
			r := agent.NewReceiver(pop.Sample(rng))
			// 30 days of the noisy warning firing, mostly as false alarms;
			// the receiver tallies the noticed ones itself.
			for day := 0; day < 30; day++ {
				hazard := rng.Float64() > noisy.FalsePositiveRate
				if _, err := r.Process(rng, agent.Encounter{
					Comm: noisy, Env: stimuli.Busy(),
					HazardPresent: hazard, Day: float64(day),
				}); err != nil {
					return sim.Outcome{}, err
				}
			}
			// Then the rare severe warning fires for real.
			ar, err := r.Process(rng, agent.Encounter{
				Comm: severe, Env: stimuli.Busy(),
				HazardPresent: true, Day: 30,
				Task: gems.LeaveSuspiciousSite(),
			})
			if err != nil {
				return sim.Outcome{}, err
			}
			out := sim.FromAgentResult(ar)
			out.Obs.Set(0, float64(r.FalseAlarms("phishing")))
			return out, nil
		})
		if err != nil {
			return 0, 0, err
		}
		fa, _, _ := res.MeanValue("fa")
		return res.HeedRate(), fa, nil
	}

	activeHeed, activeFA, err := run(true, 11)
	if err != nil {
		return nil, err
	}
	passiveHeed, passiveFA, err := run(false, 12)
	if err != nil {
		return nil, err
	}
	freshRunner := sim.Runner{Seed: cfg.Seed + 13, N: n}
	fresh, err := freshRunner.Run(ctx, func(rng *rand.Rand, i int) (sim.Outcome, error) {
		r := agent.NewReceiver(pop.Sample(rng))
		ar, err := r.Process(rng, agent.Encounter{
			Comm: severe, Env: stimuli.Busy(), HazardPresent: true,
			Task: gems.LeaveSuspiciousSite(),
		})
		if err != nil {
			return sim.Outcome{}, err
		}
		return sim.FromAgentResult(ar), nil
	})
	if err != nil {
		return nil, err
	}

	t := report.NewTable("§2.1 activeness tradeoff: a noisy sibling warning poisons the severe one",
		"Condition", "Severe-warning heed rate", "Experienced false alarms (mean)")
	t.Addf("no noisy warning (fresh users)", fresh.HeedRate(), 0.0)
	t.Addf("noisy warning ACTIVE for 30 days", activeHeed, activeFA)
	t.Addf("noisy warning PASSIVE for 30 days (§2.1 advice)", passiveHeed, passiveFA)
	metrics := map[string]float64{
		"severe_heed_fresh":         fresh.HeedRate(),
		"severe_heed_noisy_active":  activeHeed,
		"severe_heed_noisy_passive": passiveHeed,
		"false_alarms_active":       activeFA,
		"false_alarms_passive":      passiveFA,
	}
	return &Output{
		ID:    "E13",
		Title: "Active-passive spectrum tradeoff (§2.1)",
		PaperShape: "frequent active warnings about low-risk hazards lead users to ignore similar warnings " +
			"about severe hazards; a passive notice avoids the contamination",
		Tables:  []*report.Table{t},
		Metrics: metrics,
		Notes: []string{
			fmt.Sprintf("active noisy sibling costs %.1f pp of severe-warning heeding vs the passive design",
				(passiveHeed-activeHeed)*100),
		},
	}, nil
}
