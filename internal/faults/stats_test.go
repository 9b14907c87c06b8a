package faults

import (
	"context"
	"reflect"
	"testing"

	"hitl/internal/sim"
)

// TestStatsFiredCountsDeterministicAcrossWorkers runs the same faulted
// spec at different worker counts and checks each rule's fired count is
// identical — the trigger decision is a pure hash of (rule salt, run seed,
// subject index), so the counts are scheduling-independent and safe to
// persist in canonical run reports.
func TestStatsFiredCountsDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) []RuleStat {
		set := MustParse("fail:stage=comprehension,p=0.15;corrupt:p=0.05")
		ctx := sim.WithInjector(context.Background(), set)
		if _, err := (sim.Runner{Seed: 20080124, N: 400, Workers: workers}).Run(ctx, agentScenario()); err != nil {
			t.Fatal(err)
		}
		return set.Stats()
	}
	s1, s4 := run(1), run(4)
	if len(s1) != 2 {
		t.Fatalf("stats = %+v, want 2 rules", s1)
	}
	if !reflect.DeepEqual(s1, s4) {
		t.Errorf("fired counts differ by worker count:\nworkers=1: %+v\nworkers=4: %+v", s1, s4)
	}
	for _, st := range s1 {
		if st.Fired == 0 {
			t.Errorf("rule %q never fired over 400 subjects", st.Rule)
		}
		if st.Rule == "" {
			t.Error("rule description empty")
		}
	}
}

func TestStatsEmptySet(t *testing.T) {
	if got := MustParse("").Stats(); got != nil {
		t.Errorf("empty set stats = %+v, want nil", got)
	}
	var nilSet *Set
	if got := nilSet.Stats(); got != nil {
		t.Errorf("nil set stats = %+v, want nil", got)
	}
}
