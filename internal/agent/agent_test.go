package agent

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"hitl/internal/comms"
	"hitl/internal/gems"
	"hitl/internal/population"
	"hitl/internal/stimuli"
)

func avgProfile() population.Profile {
	p, err := population.NewProfile(35, false, map[string]float64{
		"education": 0.55, "tech-expertise": 0.45, "security-knowledge": 0.25,
		"memory-capacity": 0.45, "visual-acuity": 0.8, "motor-skill": 0.8,
		"risk-perception": 0.45, "trust-in-security-ui": 0.6, "self-efficacy": 0.5,
		"primary-task-focus": 0.7, "compliance-tendency": 0.55,
	})
	if err != nil {
		panic(err)
	}
	return p
}

func warningEncounter(c comms.Communication) Encounter {
	return Encounter{
		Comm:          c,
		Env:           stimuli.Busy(),
		HazardPresent: true,
		Task:          gems.LeaveSuspiciousSite(),
	}
}

// heedRate simulates n fresh receivers drawn from spec processing enc once.
func heedRate(t *testing.T, spec population.Spec, enc Encounter, n int, seed int64) float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	heeded := 0
	for i := 0; i < n; i++ {
		r := NewReceiver(spec.Sample(rng))
		res, err := r.Process(rng, enc)
		if err != nil {
			t.Fatalf("process: %v", err)
		}
		if res.Heeded {
			heeded++
		}
	}
	return float64(heeded) / float64(n)
}

func TestStageStrings(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range append(Stages(), StageNone) {
		str := s.String()
		if str == "" || strings.HasPrefix(str, "Stage(") {
			t.Errorf("stage %d unnamed", int(s))
		}
		if seen[str] {
			t.Errorf("duplicate stage name %q", str)
		}
		seen[str] = true
	}
	if len(Stages()) != 11 {
		t.Errorf("Stages() has %d entries, want 11", len(Stages()))
	}
}

func TestEncounterValidate(t *testing.T) {
	ok := warningEncounter(comms.FirefoxActiveWarning())
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid encounter rejected: %v", err)
	}
	bad := ok
	bad.SituationNovelty = 2
	if err := bad.Validate(); err == nil {
		t.Error("bad novelty: want error")
	}
	bad = ok
	bad.ComplianceCost = -0.5
	if err := bad.Validate(); err == nil {
		t.Error("bad cost: want error")
	}
	bad = ok
	bad.Day = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative day: want error")
	}
	bad = ok
	bad.Comm.ID = ""
	if err := bad.Validate(); err == nil {
		t.Error("invalid communication: want error")
	}
	bad = ok
	bad.Interference = stimuli.Interference{Kind: stimuli.Block, Strength: 7}
	if err := bad.Validate(); err == nil {
		t.Error("invalid interference: want error")
	}
}

func TestProcessDeterministic(t *testing.T) {
	enc := warningEncounter(comms.IEActiveWarning())
	run := func() Result {
		rng := rand.New(rand.NewSource(99))
		r := NewReceiver(avgProfile())
		r.CollectTrace = true
		res, err := r.Process(rng, enc)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Heeded != b.Heeded || a.FailedStage != b.FailedStage || len(a.Trace) != len(b.Trace) {
		t.Errorf("non-deterministic results: %+v vs %+v", a, b)
	}
}

// --- Calibration against the §3.1 study shapes (Egelman et al., Wu et al.) ---

func TestWarningEffectivenessOrdering(t *testing.T) {
	const n = 4000
	spec := population.GeneralPublic()
	ff := heedRate(t, spec, warningEncounter(comms.FirefoxActiveWarning()), n, 1)
	iea := heedRate(t, spec, warningEncounter(comms.IEActiveWarning()), n, 2)
	iep := heedRate(t, spec, warningEncounter(comms.IEPassiveWarning()), n, 3)
	tb := heedRate(t, spec, warningEncounter(comms.ToolbarPassiveIndicator()), n, 4)

	t.Logf("heed rates: firefox=%.3f ie-active=%.3f ie-passive=%.3f toolbar=%.3f", ff, iea, iep, tb)

	if !(ff > iea && iea > iep && iep >= tb) {
		t.Errorf("ordering violated: ff %.3f > ie-active %.3f > ie-passive %.3f >= toolbar %.3f",
			ff, iea, iep, tb)
	}
	// Rough bands from Egelman et al. (CHI'08): active warnings protected
	// the large majority of Firefox users and roughly half of IE users; the
	// passive IE warning protected only ~1 in 10.
	if ff < 0.60 || ff > 0.95 {
		t.Errorf("firefox heed rate %.3f outside [0.60, 0.95]", ff)
	}
	if iea < 0.30 || iea > 0.70 {
		t.Errorf("ie-active heed rate %.3f outside [0.30, 0.70]", iea)
	}
	if iep < 0.03 || iep > 0.30 {
		t.Errorf("ie-passive heed rate %.3f outside [0.03, 0.30]", iep)
	}
	if tb > 0.20 {
		t.Errorf("toolbar heed rate %.3f above 0.20", tb)
	}
	// Active vs passive gap: the paper's central §3.1 finding.
	if ff/math.Max(iep, 1e-9) < 3 {
		t.Errorf("active warnings should beat passive by a wide factor: %.3f vs %.3f", ff, iep)
	}
}

func TestPassiveIndicatorRarelyNoticed(t *testing.T) {
	// Whalen & Inkpen: most users never look at the SSL lock.
	r := NewReceiver(avgProfile())
	enc := warningEncounter(comms.SSLLockIndicator())
	enc.Env = stimuli.Quiet()
	if p := r.PNotice(enc); p > 0.25 {
		t.Errorf("SSL lock notice probability %.3f, want <= 0.25", p)
	}
}

func TestPrimingRaisesNoticing(t *testing.T) {
	// Wu et al. primed participants to look for toolbar indicators; 25%
	// still missed them. Priming must raise but not saturate noticing.
	r := NewReceiver(avgProfile())
	enc := warningEncounter(comms.ToolbarPassiveIndicator())
	unprimed := r.PNotice(enc)
	enc.Primed = true
	primed := r.PNotice(enc)
	if primed <= unprimed {
		t.Errorf("priming must raise noticing: %.3f vs %.3f", primed, unprimed)
	}
	if primed < 0.4 || primed > 0.95 {
		t.Errorf("primed toolbar notice %.3f outside [0.4, 0.95]", primed)
	}
}

func TestHabituationDecaysNoticing(t *testing.T) {
	r := NewReceiver(avgProfile())
	enc := warningEncounter(comms.IEPassiveWarning())
	p0 := r.PNotice(enc)
	r.AddExposures(enc.Comm.ID, 10)
	p10 := r.PNotice(enc)
	if p10 >= p0 {
		t.Errorf("habituation must lower noticing: %.3f vs %.3f", p10, p0)
	}
	if p10 > 0.5*p0 {
		t.Errorf("10 exposures should at least halve passive noticing: %.3f vs %.3f", p10, p0)
	}
	// Blocking warnings keep being noticed.
	encFF := warningEncounter(comms.FirefoxActiveWarning())
	r2 := NewReceiver(avgProfile())
	r2.AddExposures(encFF.Comm.ID, 50)
	if p := r2.PNotice(encFF); p < 0.9 {
		t.Errorf("blocking warning must stay noticed under habituation, got %.3f", p)
	}
}

func TestFalseAlarmsErodeTrustAndHeeding(t *testing.T) {
	r := NewReceiver(avgProfile())
	base := r.EffectiveTrust("phishing")
	r.AddFalseAlarms("phishing", 5)
	eroded := r.EffectiveTrust("phishing")
	if eroded >= base {
		t.Errorf("false alarms must erode trust: %.3f vs %.3f", eroded, base)
	}
	enc := warningEncounter(comms.FirefoxActiveWarning())
	r2 := NewReceiver(avgProfile())
	pb := r2.PBelieve(enc)
	r2.AddFalseAlarms("phishing", 5)
	if r2.PBelieve(enc) >= pb {
		t.Error("false alarms must lower belief probability")
	}
}

func TestFalseAlarmRecordedOnFalsePositive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	r := NewReceiver(avgProfile())
	enc := warningEncounter(comms.FirefoxActiveWarning())
	enc.HazardPresent = false
	for i := 0; i < 20; i++ {
		if _, err := r.Process(rng, enc); err != nil {
			t.Fatal(err)
		}
	}
	if r.FalseAlarms("phishing") == 0 {
		t.Error("noticed false positives must be recorded")
	}
	if r.Exposures("firefox-active") == 0 {
		t.Error("exposures must be recorded")
	}
}

func TestDismissalRace(t *testing.T) {
	// The IE passive warning is frequently dismissed by typing before the
	// user sees it; the same design without the race is seen more.
	spec := population.GeneralPublic()
	delayed := warningEncounter(comms.IEPassiveWarning())
	instant := delayed
	instant.Comm.Design.DelaySeconds = 0
	instant.Comm.Design.DismissedByPrimaryTask = false
	const n = 4000
	withRace := heedRate(t, spec, delayed, n, 10)
	noRace := heedRate(t, spec, instant, n, 11)
	if noRace <= withRace {
		t.Errorf("removing the dismissal race must raise heeding: %.3f vs %.3f", noRace, withRace)
	}
}

func TestSpoofedDeliveryFails(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	r := NewReceiver(avgProfile())
	enc := warningEncounter(comms.FirefoxActiveWarning())
	enc.Interference = stimuli.Interference{Kind: stimuli.Spoof, Strength: 1}
	res, err := r.Process(rng, enc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Heeded || !res.Spoofed || res.FailedStage != StageDelivery {
		t.Errorf("spoofed encounter should fail at delivery: %+v", res)
	}
}

func TestBlockedDeliveryFails(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	r := NewReceiver(avgProfile())
	enc := warningEncounter(comms.FirefoxActiveWarning())
	enc.Interference = stimuli.Interference{Kind: stimuli.Block, Strength: 1}
	res, err := r.Process(rng, enc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Heeded || res.FailedStage != StageDelivery {
		t.Errorf("fully blocked encounter should fail at delivery: %+v", res)
	}
}

func TestTrainingInstallsSkillAndModel(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	p := avgProfile()
	p.AccurateMentalModel = false
	trained := 0
	const n = 300
	for i := 0; i < n; i++ {
		r := NewReceiver(p)
		enc := Encounter{
			Comm:          comms.AntiPhishingTraining(),
			Env:           stimuli.Quiet(),
			HazardPresent: true,
		}
		if _, err := r.Process(rng, enc); err != nil {
			t.Fatal(err)
		}
		if _, ok := r.SkillFor("phishing"); ok {
			if !r.HasAccurateModel("phishing") {
				t.Fatal("training that installed a skill must correct the mental model")
			}
			trained++
		}
	}
	if frac := float64(trained) / n; frac < 0.5 {
		t.Errorf("interactive training should usually take: %.3f", frac)
	}
}

func TestTrainingImprovesWarningResponse(t *testing.T) {
	// §3.1 mitigation: anti-phishing training should raise heed rates for
	// users with inaccurate mental models.
	const n = 4000
	spec := population.Novices()
	enc := warningEncounter(comms.IEActiveWarning())

	rng := rand.New(rand.NewSource(20))
	heedUntrained, heedTrained := 0, 0
	for i := 0; i < n; i++ {
		prof := spec.Sample(rng)
		r1 := NewReceiver(prof)
		res1, err := r1.Process(rng, enc)
		if err != nil {
			t.Fatal(err)
		}
		if res1.Heeded {
			heedUntrained++
		}
		r2 := NewReceiver(prof)
		r2.Train("phishing", Skill{Level: 0.9, Interactivity: 0.85})
		res2, err := r2.Process(rng, enc)
		if err != nil {
			t.Fatal(err)
		}
		if res2.Heeded {
			heedTrained++
		}
	}
	u := float64(heedUntrained) / n
	tr := float64(heedTrained) / n
	t.Logf("novice heed: untrained=%.3f trained=%.3f", u, tr)
	if tr <= u {
		t.Errorf("training must improve heeding: trained %.3f vs untrained %.3f", tr, u)
	}
	if tr-u < 0.05 {
		t.Errorf("training effect too small: %.3f", tr-u)
	}
}

func TestSkillDecay(t *testing.T) {
	r := NewReceiver(avgProfile())
	r.Train("phishing", Skill{Level: 0.9, Interactivity: 0.2, AcquiredDay: 0})
	now := r.skillLevel("phishing", 0)
	later := r.skillLevel("phishing", 60)
	if !(later < now) {
		t.Errorf("skill must decay: day0 %.3f vs day60 %.3f", now, later)
	}
	// Interactive training decays slower.
	r2 := NewReceiver(avgProfile())
	r2.Train("phishing", Skill{Level: 0.9, Interactivity: 0.9, AcquiredDay: 0})
	if r2.skillLevel("phishing", 60) <= later {
		t.Error("interactive training must retain better")
	}
}

func TestRetentionCurve(t *testing.T) {
	r := NewReceiver(avgProfile())
	enc := Encounter{
		Comm:          comms.PasswordPolicyDocument(),
		Env:           stimuli.Quiet(),
		HazardPresent: true,
	}
	if p := r.PRetain(enc); p != 1 {
		t.Errorf("no delay: retention = %v, want 1", p)
	}
	enc.ApplyDelayDays = 10
	p10 := r.PRetain(enc)
	enc.ApplyDelayDays = 100
	p100 := r.PRetain(enc)
	if !(p100 < p10 && p10 < 1) {
		t.Errorf("retention must decay with delay: 10d=%.3f 100d=%.3f", p10, p100)
	}
}

func TestTransfer(t *testing.T) {
	r := NewReceiver(avgProfile())
	enc := warningEncounter(comms.FirefoxActiveWarning())
	if p := r.PTransfer(enc); p != 1 {
		t.Errorf("warning at hazard time needs no transfer, got %v", p)
	}
	tr := Encounter{
		Comm:             comms.AntiPhishingTraining(),
		Env:              stimuli.Quiet(),
		HazardPresent:    true,
		ApplyDelayDays:   7,
		SituationNovelty: 0.8,
	}
	pNovel := r.PTransfer(tr)
	tr.SituationNovelty = 0.1
	pSimilar := r.PTransfer(tr)
	if pNovel >= pSimilar {
		t.Errorf("novel situations must transfer worse: %.3f vs %.3f", pNovel, pSimilar)
	}
	// Interactivity helps transfer.
	flat := tr
	flat.SituationNovelty = 0.8
	flat.Comm.Design.Interactivity = 0
	if r.PTransfer(flat) >= pNovel {
		t.Error("interactive training must transfer better")
	}
}

func TestMissingToolsBlockCapability(t *testing.T) {
	r := NewReceiver(avgProfile())
	enc := warningEncounter(comms.FirefoxActiveWarning())
	if p := r.PCapable(enc); p < 0.8 {
		t.Errorf("easy task capability %.3f, want >= 0.8", p)
	}
	enc.MissingTools = true
	if p := r.PCapable(enc); p > 0.1 {
		t.Errorf("missing tools capability %.3f, want <= 0.1", p)
	}
}

func TestComplianceCostLowersMotivation(t *testing.T) {
	r := NewReceiver(avgProfile())
	enc := warningEncounter(comms.FirefoxActiveWarning())
	cheap := r.PMotivate(enc)
	enc.ComplianceCost = 0.9
	costly := r.PMotivate(enc)
	if costly >= cheap {
		t.Errorf("compliance cost must lower motivation: %.3f vs %.3f", costly, cheap)
	}
}

func TestLookAlikeHurtsComprehension(t *testing.T) {
	r := NewReceiver(avgProfile())
	ff := warningEncounter(comms.FirefoxActiveWarning())
	ie := warningEncounter(comms.IEActiveWarning())
	if r.PComprehend(ie, false) >= r.PComprehend(ff, false) {
		t.Error("look-alike warnings must comprehend worse for naive users")
	}
	// Accurate mental models soften the penalty.
	if r.PComprehend(ie, true) <= r.PComprehend(ie, false) {
		t.Error("accurate mental model must help comprehension")
	}
}

func TestHeuristicPathUsedForBlockers(t *testing.T) {
	// With comprehension forced to fail, blocking warnings still produce
	// decisions via the heuristic path.
	m := DefaultModel()
	m.CompBase = 0
	m.CompClarity = 0
	m.CompExpertise = 0
	m.CompExplain = 0
	rng := rand.New(rand.NewSource(30))
	heur := 0
	const n = 500
	for i := 0; i < n; i++ {
		r := NewReceiver(avgProfile())
		r.Model = m
		res, err := r.Process(rng, warningEncounter(comms.FirefoxActiveWarning()))
		if err != nil {
			t.Fatal(err)
		}
		if res.HeuristicPath {
			heur++
		}
	}
	if heur < n/2 {
		t.Errorf("blocking warning with zero comprehension should route through heuristics, got %d/%d", heur, n)
	}
}

func TestProbabilityBounds(t *testing.T) {
	// Property: every stage probability stays in [0,1] across random
	// profiles, designs, and environments.
	f := func(seed int64, act, sal, look, clr, load, exposures uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		prof := population.GeneralPublic().Sample(rng)
		c := comms.FirefoxActiveWarning()
		c.Design.Activeness = float64(act%101) / 100
		c.Design.BlocksPrimaryTask = c.Design.Activeness >= 0.8
		c.Design.Salience = float64(sal%101) / 100
		c.Design.LookAlike = float64(look%101) / 100
		c.Design.Clarity = float64(clr%101) / 100
		e := Encounter{
			Comm:          c,
			Env:           stimuli.Environment{Distraction: float64(load%101) / 100, PrimaryTaskPressure: 0.5},
			HazardPresent: true,
		}
		r := NewReceiver(prof)
		r.AddExposures(c.ID, int(exposures%50))
		ps := []float64{
			r.PNotice(e), r.PMaintain(e), r.PComprehend(e, true), r.PComprehend(e, false),
			r.PAcquire(e), r.PRetain(e), r.PTransfer(e), r.PBelieve(e),
			r.PMotivate(e), r.PHeuristic(e), r.PCapable(e),
		}
		for _, p := range ps {
			if p < 0 || p > 1 || math.IsNaN(p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestActivenessMonotoneNoticing(t *testing.T) {
	// Property: raising activeness never lowers notice probability.
	r := NewReceiver(avgProfile())
	c := comms.ToolbarPassiveIndicator()
	prev := -1.0
	for a := 0.0; a <= 1.0; a += 0.05 {
		c.Design.Activeness = a
		p := r.PNotice(Encounter{Comm: c, Env: stimuli.Busy(), HazardPresent: true})
		if p < prev-1e-9 {
			t.Fatalf("notice probability decreased from %.4f to %.4f at activeness %.2f", prev, p, a)
		}
		prev = p
	}
}

func TestTraceCoversStages(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	r := NewReceiver(avgProfile())
	r.CollectTrace = true
	res, err := r.Process(rng, warningEncounter(comms.FirefoxActiveWarning()))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) == 0 {
		t.Fatal("empty trace")
	}
	if res.Trace[0].Stage != StageDelivery {
		t.Errorf("trace must start at delivery, got %v", res.Trace[0].Stage)
	}
	if res.Heeded && res.FailedStage != StageNone {
		t.Errorf("heeded result must have FailedStage none, got %v", res.FailedStage)
	}
	if !res.Heeded {
		last := res.Trace[len(res.Trace)-1]
		if last.Passed {
			t.Error("failed result must end with a failed check")
		}
		if last.Stage != res.FailedStage {
			t.Errorf("FailedStage %v does not match last trace stage %v", res.FailedStage, last.Stage)
		}
	}
}

func TestTraceString(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	r := NewReceiver(avgProfile())
	r.CollectTrace = true
	res, err := r.Process(rng, warningEncounter(comms.FirefoxActiveWarning()))
	if err != nil {
		t.Fatal(err)
	}
	out := res.TraceString()
	if !strings.Contains(out, "delivery") {
		t.Errorf("trace render missing delivery stage:\n%s", out)
	}
	if res.Heeded && !strings.Contains(out, "=> heeded") {
		t.Errorf("heeded render missing verdict:\n%s", out)
	}
	if !res.Heeded && !strings.Contains(out, "NOT heeded") {
		t.Errorf("unheeded render missing verdict:\n%s", out)
	}
	// A spoofed run carries its note through.
	enc := warningEncounter(comms.FirefoxActiveWarning())
	enc.Interference = stimuli.Interference{Kind: stimuli.Spoof, Strength: 1}
	res, err = r.Process(rng, enc)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.TraceString(), "spoofed") {
		t.Error("spoof note missing from trace render")
	}
}

func TestProbeObservesEveryCheck(t *testing.T) {
	// Under CollectTrace, Result.Trace must hold every check the pipeline
	// made, in pipeline order, ending at the check that decided the
	// outcome — and collecting it must not change what the pipeline
	// samples.
	enc := warningEncounter(comms.FirefoxActiveWarning())
	for seed := int64(0); seed < 200; seed++ {
		want, err := NewReceiver(avgProfile()).Process(rand.New(rand.NewSource(seed)), enc)
		if err != nil {
			t.Fatal(err)
		}
		traced := NewReceiver(avgProfile())
		traced.CollectTrace = true
		got, err := traced.Process(rand.New(rand.NewSource(seed)), enc)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Trace) == 0 {
			t.Fatalf("seed %d: CollectTrace recorded no checks", seed)
		}
		trace := got.Trace
		got.Trace = nil
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: trace collection changed the outcome: %+v vs %+v", seed, got, want)
		}

		// The checked stages run through the pipeline without a gap, up
		// to the decision; a heuristic decision jumps to behavior.
		var stages []Stage
		for _, c := range trace {
			if len(stages) == 0 || stages[len(stages)-1] != c.Stage {
				stages = append(stages, c.Stage)
			}
		}
		walked := stages
		if got.HeuristicPath {
			walked = stages[:len(stages)-1]
		}
		if !reflect.DeepEqual(walked, Stages()[:len(walked)]) {
			t.Fatalf("seed %d: checked stages %v skip or reorder the pipeline", seed, stages)
		}
		// Only the deciding check may fail, apart from the one failure a
		// heuristic decision follows.
		failed := 0
		for _, c := range trace[:len(trace)-1] {
			if !c.Passed {
				failed++
			}
		}
		if wantFailed := map[bool]int{false: 0, true: 1}[got.HeuristicPath]; failed != wantFailed {
			t.Fatalf("seed %d: %d failed checks before the last (heuristic path %v): %+v", seed, failed, got.HeuristicPath, trace)
		}
		last, final := trace[len(trace)-1], got.FailedStage
		if got.Heeded {
			final = StageBehavior
		}
		if last.Passed != got.Heeded || last.Stage != final {
			t.Fatalf("seed %d: outcome heeded=%v failed at %v, but the last check is %+v", seed, got.Heeded, got.FailedStage, last)
		}
	}
}

func TestProbeObservesSpoofAndBehavior(t *testing.T) {
	// The two checks recorded outside the common check() helper — the
	// spoofed-delivery sentinel and the GEMS behavior attempt — must also
	// reach the trace.
	r := NewReceiver(avgProfile())
	r.CollectTrace = true
	enc := warningEncounter(comms.FirefoxActiveWarning())
	enc.Interference = stimuli.Interference{Kind: stimuli.Spoof, Strength: 1}
	res, err := r.Process(rand.New(rand.NewSource(5)), enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) != 1 || res.Trace[0].Stage != StageDelivery {
		t.Errorf("spoofed delivery trace %+v, want one delivery check", res.Trace)
	}

	// Drive a receiver until a behavior-stage check appears (a subject who
	// reaches GEMS).
	sawBehavior := false
	for seed := int64(0); seed < 50 && !sawBehavior; seed++ {
		r := NewReceiver(avgProfile())
		r.CollectTrace = true
		res, err := r.Process(rand.New(rand.NewSource(seed)), warningEncounter(comms.FirefoxActiveWarning()))
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range res.Trace {
			sawBehavior = sawBehavior || c.Stage == StageBehavior
		}
	}
	if !sawBehavior {
		t.Error("no behavior-stage check reached the trace in 50 attempts")
	}
}

func TestTraceOffByDefault(t *testing.T) {
	// Without CollectTrace, Process must not materialize a
	// trace — and the sampling sequence must be identical to a traced run.
	enc := warningEncounter(comms.FirefoxActiveWarning())

	plain := NewReceiver(avgProfile())
	plainRes, err := plain.Process(rand.New(rand.NewSource(123)), enc)
	if err != nil {
		t.Fatal(err)
	}
	if plainRes.Trace != nil {
		t.Fatalf("trace collected without opt-in: %d checks", len(plainRes.Trace))
	}

	traced := NewReceiver(avgProfile())
	traced.CollectTrace = true
	tracedRes, err := traced.Process(rand.New(rand.NewSource(123)), enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(tracedRes.Trace) == 0 {
		t.Fatal("CollectTrace produced no trace")
	}
	tracedRes.Trace = nil
	if !reflect.DeepEqual(plainRes, tracedRes) {
		t.Errorf("trace opt-in changed the outcome: %+v vs %+v", plainRes, tracedRes)
	}
}

func TestTraceIsNotAliasedToScratch(t *testing.T) {
	// Result.Trace must survive the receiver's next Process call: trace
	// consumers (telemetry sketches) hold results after the receiver moves
	// on to another subject.
	r := NewReceiver(avgProfile())
	r.CollectTrace = true
	enc := warningEncounter(comms.FirefoxActiveWarning())
	rng := rand.New(rand.NewSource(7))
	first, err := r.Process(rng, enc)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := append([]Check(nil), first.Trace...)
	for i := 0; i < 5; i++ {
		if _, err := r.Process(rng, enc); err != nil {
			t.Fatal(err)
		}
	}
	if len(first.Trace) != len(snapshot) {
		t.Fatalf("trace length changed after reuse: %d vs %d", len(first.Trace), len(snapshot))
	}
	for i := range snapshot {
		if first.Trace[i] != snapshot[i] {
			t.Fatalf("check %d clobbered by receiver reuse: %+v vs %+v", i, first.Trace[i], snapshot[i])
		}
	}
}

func TestResetMatchesFreshReceiver(t *testing.T) {
	// A pooled receiver reset between subjects must behave exactly like a
	// fresh NewReceiver: same probabilities, same experience state.
	enc := warningEncounter(comms.FirefoxActiveWarning())
	pooled := NewReceiver(avgProfile())
	pooled.AddExposures(enc.Comm.ID, 30)
	pooled.AddFalseAlarms(enc.Comm.Topic, 4)
	pooled.Train(enc.Comm.Topic, Skill{Level: 0.9})
	rng := rand.New(rand.NewSource(17))
	if _, err := pooled.Process(rng, enc); err != nil {
		t.Fatal(err)
	}

	prof := avgProfile()
	prof.SetDim(population.DimTechExpertise, 0.9)
	pooled.Reset(prof)
	fresh := NewReceiver(prof)

	if got, want := pooled.Exposures(enc.Comm.ID), fresh.Exposures(enc.Comm.ID); got != want {
		t.Errorf("exposures after reset: %d, want %d", got, want)
	}
	if got, want := pooled.FalseAlarms(enc.Comm.Topic), fresh.FalseAlarms(enc.Comm.Topic); got != want {
		t.Errorf("false alarms after reset: %d, want %d", got, want)
	}
	if _, ok := pooled.SkillFor(enc.Comm.Topic); ok {
		t.Error("skill survived reset")
	}
	pr, fr := rand.New(rand.NewSource(55)), rand.New(rand.NewSource(55))
	a, err := pooled.Process(pr, enc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := fresh.Process(fr, enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("reset receiver diverged from fresh receiver: %+v vs %+v", a, b)
	}
}
