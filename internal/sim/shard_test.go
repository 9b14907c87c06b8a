package sim

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"hitl/internal/agent"
)

// valueFlip heeds like coinFlip but also records per-subject metric
// observations, so merges must reproduce exact concatenation order. It
// runs under valueFlipKeys.
func valueFlip(p float64) SubjectFunc {
	return func(rng *rand.Rand, i int) (Outcome, error) {
		var out Outcome
		out.Obs.Set(0, rng.Float64())
		out.Obs.Set(1, float64(i))
		if rng.Float64() < p {
			out.Heeded = true
			out.FailedStage = agent.StageNone
		} else {
			out.FailedStage = agent.StageAttentionSwitch
		}
		return out, nil
	}
}

var valueFlipKeys = []string{"score", "subject"}

func TestShardedRunMergesBitIdentical(t *testing.T) {
	const n = 3000
	for _, seed := range []int64{1, 99} {
		for _, shards := range []int{2, 3, 7} {
			t.Run(fmt.Sprintf("seed=%d/shards=%d", seed, shards), func(t *testing.T) {
				full, err := Runner{Seed: seed, N: n, Workers: 4, Keys: valueFlipKeys}.Run(context.Background(), valueFlip(0.4))
				if err != nil {
					t.Fatal(err)
				}
				var parts []*Result
				for s := 0; s < shards; s++ {
					lo, hi := s*n/shards, (s+1)*n/shards
					ctx := WithSubjectOffset(context.Background(), lo)
					part, err := Runner{Seed: seed, N: hi - lo, Workers: 3, Keys: valueFlipKeys}.Run(ctx, valueFlip(0.4))
					if err != nil {
						t.Fatal(err)
					}
					parts = append(parts, part)
				}
				merged, err := MergeResults(parts)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(full, merged) {
					t.Errorf("merged shard result differs from full run:\nfull   %+v\nmerged %+v", full, merged)
				}
			})
		}
	}
}

func TestSubjectOffsetSelectsGlobalStreams(t *testing.T) {
	// A shard at offset k must see exactly the subject indices [k, k+n)
	// with their full-run random streams — checked via the recorded
	// "subject" observations and the full run's "score" stream.
	const n, off, m = 500, 200, 100
	full, err := Runner{Seed: 7, N: n, Keys: valueFlipKeys}.Run(context.Background(), valueFlip(0.5))
	if err != nil {
		t.Fatal(err)
	}
	ctx := WithSubjectOffset(context.Background(), off)
	shard, err := Runner{Seed: 7, N: m, Keys: valueFlipKeys}.Run(ctx, valueFlip(0.5))
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < m; j++ {
		if got, want := shard.Values["subject"][j], float64(off+j); got != want {
			t.Fatalf("shard subject %d simulated global index %v, want %v", j, got, want)
		}
		if got, want := shard.Values["score"][j], full.Values["score"][off+j]; got != want {
			t.Fatalf("global subject %d: shard score %v differs from full-run score %v", off+j, got, want)
		}
	}
}

func TestSubjectOffsetFromContext(t *testing.T) {
	if got := SubjectOffsetFromContext(context.Background()); got != 0 {
		t.Errorf("bare context offset = %d, want 0", got)
	}
	if got := SubjectOffsetFromContext(WithSubjectOffset(context.Background(), -3)); got != 0 {
		t.Errorf("negative offset = %d, want 0 (no-op)", got)
	}
	if got := SubjectOffsetFromContext(WithSubjectOffset(context.Background(), 12)); got != 12 {
		t.Errorf("offset = %d, want 12", got)
	}
}

func TestMergeResultsErrors(t *testing.T) {
	if _, err := MergeResults(nil); err == nil {
		t.Error("zero parts: want error")
	}
	if _, err := MergeResults([]*Result{nil}); err == nil {
		t.Error("nil part: want error")
	}
}
