package experiments

import (
	"context"
	"math"
	"math/rand"

	"hitl/internal/agent"
	"hitl/internal/comms"
	"hitl/internal/core"
	"hitl/internal/gems"
	"hitl/internal/population"
	"hitl/internal/report"
	"hitl/internal/sim"
	"hitl/internal/stimuli"
)

// avPrompt models the early anti-virus per-detection prompt the paper's
// introduction describes: an active dialog on every detection, fired
// often, with a meaningful false-positive rate.
func avPrompt() comms.Communication {
	return comms.Communication{
		ID:      "av-detection-prompt",
		Topic:   "antivirus",
		Kind:    comms.Warning,
		Channel: comms.ChannelDialog,
		Design: comms.Design{
			Activeness: 0.95, Salience: 0.8, Clarity: 0.5,
			InstructionSpecificity: 0.45, Explanation: 0.3,
			LookAlike: 0.5, Length: 0.3, BlocksPrimaryTask: true,
		},
		Hazard: comms.Hazard{
			Severity: 0.8, EncounterRate: 5, UserActionNecessity: 0.9,
		},
		FalsePositiveRate: 0.3,
		Message:           "A virus has been detected. Quarantine, repair, or ignore?",
	}
}

// E15AntivirusAutomation reproduces the paper's §1 motivating story: early
// anti-virus software prompted users on every detection; modern software
// quarantines automatically. The experiment measures infection rates for
// prompt-per-detection (fresh and after a month of habituating prompts and
// false alarms) against automatic quarantine, and runs the Figure 2
// process on the prompt design to watch it choose automation.
func E15AntivirusAutomation(ctx context.Context, cfg Config) (*Output, error) {
	n := cfg.n(2000)
	pop := population.GeneralPublic()
	prompt := avPrompt()
	const days = 30
	const detectionsPerDay = 0.7
	const autoQuality = 0.97

	// Per-subject month with prompts: infections accumulate when the user
	// mishandles a real detection. Each subject records its infections and
	// real detections and, if it had a real detection, whether it heeded
	// the first and the last.
	const (
		obsInfections = iota
		obsReal
		obsFirst
		obsLast
	)
	runner := sim.Runner{Seed: cfg.Seed + 1, N: n, Keys: []string{
		obsInfections: "infections",
		obsReal:       "real",
		obsFirst:      "first",
		obsLast:       "last",
	}}
	promptRes, err := runner.Run(ctx, func(rng *rand.Rand, i int) (sim.Outcome, error) {
		r := agent.NewReceiver(pop.Sample(rng))
		infections, real := 0, 0
		firstHeeded, lastHeeded := -1, -1
		for day := 0; day < days; day++ {
			k := poissonInt(rng, detectionsPerDay)
			for e := 0; e < k; e++ {
				hazard := rng.Float64() >= prompt.FalsePositiveRate
				ar, err := r.Process(rng, agent.Encounter{
					Comm: prompt, Env: stimuli.Busy(),
					HazardPresent: hazard, Day: float64(day),
					Task: gems.Task{
						Name: "quarantine-file", Steps: 1,
						CueQuality: 0.7, FeedbackQuality: 0.6, ControlClarity: 0.7,
						PlanSoundness: 0.85, CognitiveDemand: 0.3,
					},
				})
				if err != nil {
					return sim.Outcome{}, err
				}
				if !hazard {
					continue
				}
				real++
				h := 0
				if ar.Heeded {
					h = 1
				} else {
					infections++
				}
				if firstHeeded == -1 {
					firstHeeded = h
				}
				lastHeeded = h
			}
		}
		out := sim.Outcome{Heeded: infections == 0}
		out.Obs.Set(obsInfections, float64(infections))
		out.Obs.Set(obsReal, float64(real))
		if firstHeeded >= 0 {
			out.Obs.Set(obsFirst, float64(firstHeeded))
		}
		if lastHeeded >= 0 {
			out.Obs.Set(obsLast, float64(lastHeeded))
		}
		if !out.Heeded {
			out.FailedStage = agent.StageMotivation
		} else {
			out.FailedStage = agent.StageNone
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	var inf, real float64
	for _, v := range promptRes.Values["infections"] {
		inf += v
	}
	for _, v := range promptRes.Values["real"] {
		real += v
	}
	promptInfectionRate := 0.0
	if real > 0 {
		promptInfectionRate = inf / real
	}
	firstMean, _, _ := promptRes.MeanValue("first")
	lastMean, _, _ := promptRes.MeanValue("last")

	// Automatic quarantine: infection iff the automation misses.
	autoInfectionRate := 1 - autoQuality

	t := report.NewTable("Anti-virus designs: per-detection infection rate (30 days, general public)",
		"Design", "Infection rate per real detection", "Notes")
	t.Addf("prompt-per-detection", report.Pct(promptInfectionRate),
		"user decides every time; false alarms erode trust")
	t.Addf("auto-quarantine (default)", report.Pct(autoInfectionRate),
		"no human in the loop; bounded by detector quality")
	t2 := report.NewTable("Prompt effectiveness over the month (habituation + false alarms)",
		"Point", "Heed rate on a real detection")
	t2.Addf("first real detection", report.Pct(firstMean))
	t2.Addf("last real detection", report.Pct(lastMean))

	// The Figure 2 process on the prompt system: near-perfect automation is
	// available, so pass 1 removes the human.
	spec := core.SystemSpec{
		Name: "antivirus-prompts",
		Tasks: []core.HumanTask{{
			ID:                    "decide-per-detection",
			Description:           "decide quarantine/repair/ignore for every detection",
			Communication:         prompt,
			Environment:           stimuli.Busy(),
			Population:            pop,
			AutomationFeasibility: 0.95,
			AutomationQuality:     autoQuality,
		}},
	}
	proc, err := core.RunProcess(spec, core.ProcessOptions{})
	if err != nil {
		return nil, err
	}
	automatedPass := 0.0
	if p, ok := proc.Automated["decide-per-detection"]; ok {
		automatedPass = float64(p)
	}

	return &Output{
		ID:    "E15",
		Title: "Anti-virus: getting the human out of the loop (§1)",
		PaperShape: "per-detection prompts fail often and degrade as false alarms accumulate; " +
			"automatic quarantine outperforms; the process automates the task on pass 1",
		Tables: []*report.Table{t, t2},
		Metrics: map[string]float64{
			"prompt_infection_rate": promptInfectionRate,
			"auto_infection_rate":   autoInfectionRate,
			"heed_first":            firstMean,
			"heed_last":             lastMean,
			"automated_on_pass":     automatedPass,
		},
	}, nil
}

// poissonInt samples a Poisson count (Knuth).
func poissonInt(rng *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	l := math.Exp(-mean)
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
		if k > 1000 {
			return k
		}
	}
}
