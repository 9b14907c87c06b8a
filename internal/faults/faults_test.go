package faults

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"hitl/internal/agent"
	"hitl/internal/comms"
	"hitl/internal/gems"
	"hitl/internal/population"
	"hitl/internal/sim"
	"hitl/internal/stimuli"
)

func TestParseValidSpecs(t *testing.T) {
	cases := []struct {
		spec string
		want []Rule
	}{
		{"", nil},
		{"  ;  ", nil},
		{"corrupt:p=0.5", []Rule{{Kind: KindCorrupt, P: 0.5}}},
		{"panic:p=1", []Rule{{Kind: KindPanic, P: 1}}},
		{
			"fail:stage=attention-switch,p=0.1; latency:p=0.2,ms=1.5",
			[]Rule{
				{Kind: KindFail, P: 0.1, Stage: agent.StageAttentionSwitch, HasStage: true},
				{Kind: KindLatency, P: 0.2, Delay: 1500 * time.Microsecond},
			},
		},
		// Latency is capped at one second per subject.
		{"latency:p=1,ms=90000", []Rule{{Kind: KindLatency, P: 1, Delay: time.Second}}},
	}
	for _, tc := range cases {
		s, err := Parse(tc.spec)
		if err != nil {
			t.Errorf("Parse(%q): %v", tc.spec, err)
			continue
		}
		got := s.Rules()
		for i := range got {
			got[i].salt = 0 // salt is positional, not part of the contract
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Parse(%q) = %+v, want %+v", tc.spec, got, tc.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, spec := range []string{
		"explode:p=1",                       // unknown kind
		"panic",                             // missing p
		"panic:p=2",                         // p out of range
		"panic:p=-0.1",                      // p out of range
		"panic:p=x",                         // p not a number
		"fail:p=0.5",                        // fail without stage
		"fail:p=0.5,stage=teleportation",    // unknown stage
		"latency:p=0.5",                     // latency without ms
		"latency:p=0.5,ms=0",                // non-positive delay
		"latency:p=0.5,ms=1,stage=delivery", // latency takes no stage
		"corrupt:p=0.5,ms=1",                // corrupt takes only p
		"corrupt:p=0.5,stage=delivery",      // corrupt takes only p
		"panic:p",                           // malformed key=value
		"panic:p=0.5,volume=11",             // unknown argument
		"panic:p=0.25,stage=comprehension",  // panic takes no stage
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", spec)
		}
	}
}

func TestFiresDeterministicAndProportional(t *testing.T) {
	s := MustParse("corrupt:p=0.3")
	r := &s.rules[0]
	const n = 20000
	hits := 0
	for i := 0; i < n; i++ {
		a, b := r.fires(42, i), r.fires(42, i)
		if a != b {
			t.Fatalf("fires(42, %d) not deterministic", i)
		}
		if a {
			hits++
		}
	}
	if rate := float64(hits) / n; rate < 0.27 || rate > 0.33 {
		t.Errorf("p=0.3 rule fired at rate %v over %d subjects", rate, n)
	}
	// Different seeds select different subject sets.
	diff := 0
	for i := 0; i < n; i++ {
		if r.fires(42, i) != r.fires(43, i) {
			diff++
		}
	}
	if diff == 0 {
		t.Error("rule fires identically under different run seeds")
	}
	// Edge probabilities are exact, not approximate.
	p0, p1 := MustParse("corrupt:p=0"), MustParse("corrupt:p=1")
	for i := 0; i < 100; i++ {
		if p0.rules[0].fires(7, i) {
			t.Fatal("p=0 rule fired")
		}
		if !p1.rules[0].fires(7, i) {
			t.Fatal("p=1 rule did not fire")
		}
	}
}

func TestRulesSaltedIndependently(t *testing.T) {
	s := MustParse("corrupt:p=0.5;corrupt:p=0.5")
	same := 0
	const n = 4096
	for i := 0; i < n; i++ {
		if s.rules[0].fires(9, i) == s.rules[1].fires(9, i) {
			same++
		}
	}
	if same == n {
		t.Error("two identical rules fire on identical subject sets; salts not independent")
	}
}

func TestPerturbSemantics(t *testing.T) {
	s := MustParse("fail:stage=comprehension,p=1")
	o := sim.Outcome{
		Heeded:     true,
		ErrorClass: gems.Slip,
		Trace:      []agent.Check{{Stage: agent.StageDelivery, Passed: true}},
	}
	o = s.Perturb(1, 0, o)
	if o.Heeded || o.FailedStage != agent.StageComprehension {
		t.Errorf("fail rule: got %+v", o)
	}
	if o.ErrorClass != gems.NoError || o.Trace != nil {
		t.Errorf("fail rule must clear ErrorClass and Trace: got %+v", o)
	}

	c := MustParse("corrupt:p=1")
	o2 := sim.Outcome{Heeded: true}
	o2 = c.Perturb(1, 0, o2)
	if o2.Heeded || o2.FailedStage != agent.StageDelivery || !o2.Spoofed {
		t.Errorf("corrupt rule: got %+v", o2)
	}

	// Later rules win: the corrupt rewrite lands on top of the fail one.
	both := MustParse("fail:stage=comprehension,p=1;corrupt:p=1")
	o3 := sim.Outcome{Heeded: true}
	o3 = both.Perturb(1, 0, o3)
	if o3.FailedStage != agent.StageDelivery || !o3.Spoofed {
		t.Errorf("spec-order application: got %+v", o3)
	}

	// A nil set is a no-op everywhere.
	var nilSet *Set
	o4 := nilSet.Perturb(1, 0, sim.Outcome{Heeded: true})
	nilSet.Before(1, 0)
	if !o4.Heeded || !nilSet.Empty() {
		t.Error("nil *Set must inject nothing")
	}
}

// agentScenario runs the real Figure 1 pipeline.
func agentScenario() sim.SubjectFunc {
	pop := population.GeneralPublic()
	enc := agent.Encounter{
		Comm:          comms.FirefoxActiveWarning(),
		Env:           stimuli.Busy(),
		HazardPresent: true,
		Task:          gems.LeaveSuspiciousSite(),
	}
	return func(rng *rand.Rand, _ int) (sim.Outcome, error) {
		ar, err := agent.NewReceiver(pop.Sample(rng)).Process(rng, enc)
		if err != nil {
			return sim.Outcome{}, err
		}
		return sim.FromAgentResult(ar), nil
	}
}

func TestFaultedRunBitIdenticalAcrossWorkers(t *testing.T) {
	set := MustParse("fail:stage=comprehension,p=0.15;corrupt:p=0.05;latency:p=0.01,ms=0.1")
	ctx := sim.WithInjector(context.Background(), set)
	var base *sim.Result
	for _, workers := range []int{1, 3, runtime.GOMAXPROCS(0)} {
		res, err := sim.Runner{Seed: 20080124, N: 600, Workers: workers}.Run(ctx, agentScenario())
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = res
			continue
		}
		if !reflect.DeepEqual(base, res) {
			t.Errorf("faulted Result differs at workers=%d", workers)
		}
	}
	if base.Spoofed == 0 {
		t.Error("corrupt:p=0.05 injected no spoofed outcomes over 600 subjects")
	}
	if base.StageFailures[agent.StageComprehension] == 0 {
		t.Error("fail:stage=comprehension,p=0.15 injected no comprehension failures")
	}

	// The same spec under a different run seed perturbs different subjects.
	other, err := sim.Runner{Seed: 77, N: 600}.Run(ctx, agentScenario())
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(base, other) {
		t.Error("faulted Results identical across different run seeds")
	}
}

func TestInjectedPanicSameSubjectAtAnyWorkerCount(t *testing.T) {
	set := MustParse("panic:p=0.01")
	ctx := sim.WithInjector(context.Background(), set)
	var first int = -1
	for _, workers := range []int{1, 3, runtime.GOMAXPROCS(0)} {
		_, err := sim.Runner{Seed: 5, N: 2000, Workers: workers}.Run(ctx, func(rng *rand.Rand, i int) (sim.Outcome, error) {
			return sim.Outcome{Heeded: true}, nil
		})
		var pe *sim.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v, want *sim.PanicError", workers, err)
		}
		if len(pe.Stack) == 0 {
			t.Errorf("workers=%d: PanicError.Stack is empty", workers)
		}
		if !strings.Contains(pe.Error(), "injected panic") {
			t.Errorf("workers=%d: PanicError.Error() = %q", workers, pe.Error())
		}
		if first < 0 {
			first = pe.Subject
			continue
		}
		if pe.Subject != first {
			t.Errorf("workers=%d: panicked subject %d, want %d (lowest-subject-wins determinism)", workers, pe.Subject, first)
		}
	}
}

func TestDescribeAndString(t *testing.T) {
	s := MustParse("latency:p=0.5,ms=2;fail:stage=behavior,p=0.1")
	if got := s.String(); got != "latency:p=0.5,ms=2;fail:stage=behavior,p=0.1" {
		t.Errorf("String() = %q", got)
	}
	d := s.Describe()
	if !strings.Contains(d, "latency") || !strings.Contains(d, "behavior") {
		t.Errorf("Describe() = %q", d)
	}
	if (&Set{}).Describe() != "faults: none" {
		t.Error("empty Describe")
	}
}

// TestReplayRewritesWithoutCounting pins the trace-sampling seam: Replay
// rewrites an outcome exactly as Perturb does, but a replayed subject is
// one the run already counted, so it fires nothing.
func TestReplayRewritesWithoutCounting(t *testing.T) {
	s := MustParse("fail:stage=comprehension,p=0.3;corrupt:p=0.2")
	for i := 0; i < 500; i++ {
		o := sim.Outcome{Heeded: true, ErrorClass: gems.Slip}
		if got, want := s.Replay(4, i, o), s.Perturb(4, i, o); !reflect.DeepEqual(got, want) {
			t.Fatalf("subject %d: Replay = %+v, Perturb = %+v", i, got, want)
		}
	}
	perturbed := s.Stats()
	for i := 0; i < 500; i++ {
		s.Replay(4, i, sim.Outcome{Heeded: true})
	}
	if got := s.Stats(); !reflect.DeepEqual(got, perturbed) {
		t.Errorf("Replay moved fired counts: %+v -> %+v", perturbed, got)
	}
	if perturbed[0].Fired == 0 || perturbed[1].Fired == 0 {
		t.Errorf("Perturb fired nothing over 500 subjects: %+v", perturbed)
	}
}
