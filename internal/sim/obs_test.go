package sim

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"hitl/internal/population"
)

// TestObservationSlotOutsideKeysFails pins that nothing is dropped
// silently: a subject recording a slot at or past len(Keys), or outside
// the Outcome's slots altogether, fails the run and names the subject,
// on the interpreted and the compiled path.
func TestObservationSlotOutsideKeysFails(t *testing.T) {
	for _, tc := range []struct {
		name string
		keys []string
		slot int
	}{
		{"past two keys", []string{"a", "b"}, 2},
		{"no keys", nil, 0},
		{"last slot, four keys", []string{"a", "b", "c", "d"}, NumSlots - 1},
		{"past every slot", []string{"a"}, NumSlots},
		{"negative", []string{"a"}, -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			subject := func(rng *rand.Rand, i int) (Outcome, error) {
				out := Outcome{Heeded: true}
				if len(tc.keys) > 0 {
					out.Obs.Set(0, float64(i))
				}
				if i == 37 {
					out.Obs.Set(tc.slot, 1)
				}
				return out, nil
			}
			res, err := Runner{Seed: 1, N: 100, Workers: 3, Keys: tc.keys}.Run(context.Background(), subject)
			if err == nil || res != nil {
				t.Fatalf("interpreted run: got res %v, err %v; want an error", res, err)
			}
			if !strings.Contains(err.Error(), "subject 37") || !strings.Contains(err.Error(), "slot") {
				t.Errorf("interpreted run: error %q does not name subject 37's slot", err)
			}
			prog, err := NewLoopProgram(population.GeneralPublic(), tc.keys, subject)
			if err != nil {
				t.Fatal(err)
			}
			if res, err := (Runner{Seed: 1, N: 100, Workers: 3}).RunProgram(context.Background(), prog); err == nil || res != nil {
				t.Fatalf("compiled run: got res %v, err %v; want an error", res, err)
			}
		})
	}
}

// TestRunnerKeysCheckedBeforeAnySubject pins that a runner naming more
// keys than an Outcome has slots, or one key twice, fails before any
// subject runs.
func TestRunnerKeysCheckedBeforeAnySubject(t *testing.T) {
	for name, keys := range map[string][]string{
		"more keys than slots": {"a", "b", "c", "d", "e", "f"},
		"a key named twice":    {"a", "b", "a"},
	} {
		var ran atomic.Int64
		res, err := Runner{Seed: 1, N: 100, Keys: keys}.Run(context.Background(), func(*rand.Rand, int) (Outcome, error) {
			ran.Add(1)
			return Outcome{Heeded: true}, nil
		})
		if err == nil || res != nil {
			t.Errorf("%s: got res %v, err %v; want an error", name, res, err)
		}
		if n := ran.Load(); n != 0 {
			t.Errorf("%s: %d subjects ran before the keys were refused", name, n)
		}
	}
	full := []string{"a", "b", "c", "d", "e"}
	res, err := Runner{Seed: 1, N: 10, Keys: full}.Run(context.Background(), func(rng *rand.Rand, i int) (Outcome, error) {
		var out Outcome
		for k := range full {
			out.Obs.Set(k, float64(10*k+i))
		}
		return out, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for k, key := range full {
		if xs := res.Values[key]; len(xs) != 10 || xs[3] != float64(10*k+3) {
			t.Errorf("slot %d (%q): got %v, want 10 values with %d at subject 3", k, key, xs, 10*k+3)
		}
	}
}

// TestPartialRunCompactsColumns cancels a multi-worker run under
// AllowPartial: every key's column must hold exactly the completed
// subjects' observations, in subject order — "idx" strictly increasing
// with Completed entries, and "sparse" exactly the multiples of three
// among them.
func TestPartialRunCompactsColumns(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	col := NewReportCollector()
	ctx = WithReportCollector(ctx, col)
	ru := Runner{Seed: 8, N: 200000, Workers: 3, AllowPartial: true, Keys: []string{"idx", "sparse"}}
	res, err := ru.Run(ctx, func(rng *rand.Rand, i int) (Outcome, error) {
		if i == 500 {
			cancel()
		}
		var out Outcome
		out.Obs.Set(0, float64(i))
		if i%3 == 0 {
			out.Obs.Set(1, float64(i))
		}
		return out, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || res.Completed == 0 || res.Completed >= res.N {
		t.Fatalf("res = %+v, want a partial aggregation", res)
	}
	if reps := col.Reports(); len(reps) != 1 || reps[0].EffectiveWorkers < 2 {
		t.Fatalf("engine reports %+v, want one run on 2+ workers", reps)
	}
	idx := res.Values["idx"]
	if len(idx) != res.Completed {
		t.Fatalf("idx has %d entries, want Completed = %d", len(idx), res.Completed)
	}
	var thirds []float64
	for j, v := range idx {
		if j > 0 && v <= idx[j-1] {
			t.Fatalf("idx[%d] = %v after %v: not strictly increasing", j, v, idx[j-1])
		}
		if int(v)%3 == 0 {
			thirds = append(thirds, v)
		}
	}
	sparse := res.Values["sparse"]
	if len(sparse) != len(thirds) {
		t.Fatalf("sparse has %d entries, want %d", len(sparse), len(thirds))
	}
	for j := range sparse {
		if sparse[j] != thirds[j] {
			t.Fatalf("sparse[%d] = %v, want %v", j, sparse[j], thirds[j])
		}
	}
}
