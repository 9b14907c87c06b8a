package sim

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// seedLazy seeds src as a worker does after a short stream: Seed builds no
// state word, and the draws build them from the jump table.
func seedLazy(t *testing.T, src *rngSource, seed int64) {
	t.Helper()
	src.Seed(7)
	src.Uint64()
	src.Seed(seed)
	if src.edge < 0 {
		t.Fatalf("Seed(%d) after a 1-draw stream built the whole state", seed)
	}
}

// seedFilled seeds src as a worker does after a stream past lazyDraws:
// Seed builds the whole state up front.
func seedFilled(t *testing.T, src *rngSource, seed int64) {
	t.Helper()
	src.Seed(7)
	for i := 0; i <= lazyDraws; i++ {
		src.Uint64()
	}
	src.Seed(seed)
	if src.edge >= 0 {
		t.Fatalf("Seed(%d) after a %d-draw stream left state unbuilt", seed, lazyDraws+1)
	}
}

// checkSeedMatchesStdlib holds src, seeded by seed, to rand.NewSource's
// stream for edge-case seeds and 50 drawn from pick: at the raw Uint64
// level across more than three 607-word state wraps, and through the
// rand.Rand draws scenarios consume. It returns the seeds it checked.
func checkSeedMatchesStdlib(t *testing.T, pick int64, seed func(*testing.T, *rngSource, int64)) []int64 {
	t.Helper()
	seeds := []int64{0, 1, -1, 89482311, 20080124, 1 << 40, -(1 << 40), int64(^uint64(0) >> 1), -int64(^uint64(0)>>1) - 1}
	r := rand.New(rand.NewSource(pick))
	for i := 0; i < 50; i++ {
		seeds = append(seeds, r.Int63()-r.Int63())
	}

	src := &rngSource{}
	for _, s := range seeds {
		seed(t, src, s)
		std := rand.NewSource(s).(rand.Source64)
		for i := 0; i < 2000; i++ {
			if got, want := src.Uint64(), std.Uint64(); got != want {
				t.Fatalf("seed %d draw %d: rngSource.Uint64() = %d, stdlib = %d", s, i, got, want)
			}
		}
	}

	for _, s := range seeds[:8] {
		seed(t, src, s)
		a := rand.New(src)
		b := rand.New(rand.NewSource(s))
		for i := 0; i < 500; i++ {
			if x, y := a.Float64(), b.Float64(); x != y {
				t.Fatalf("seed %d draw %d: Float64 %v != %v", s, i, x, y)
			}
			if x, y := a.NormFloat64(), b.NormFloat64(); x != y {
				t.Fatalf("seed %d draw %d: NormFloat64 %v != %v", s, i, x, y)
			}
			if x, y := a.Intn(97), b.Intn(97); x != y {
				t.Fatalf("seed %d draw %d: Intn %d != %d", s, i, x, y)
			}
		}
	}
	return seeds
}

// TestFastSourceMatchesStdlib locks down the engine's core determinism
// claim on the eager path: rngSource with its whole state built at Seed
// produces exactly the stream of rand.NewSource for any seed, so pooled
// re-seeding reproduces SubjectRand's streams bit-for-bit.
func TestFastSourceMatchesStdlib(t *testing.T) {
	checkSeedMatchesStdlib(t, 12345, seedFilled)

	// Re-seeding a used source must be indistinguishable from a fresh one.
	src := &rngSource{}
	src.Seed(7)
	for i := 0; i < 1000; i++ {
		src.Uint64()
	}
	src.Seed(42)
	std := rand.NewSource(42).(rand.Source64)
	for i := 0; i < 1000; i++ {
		if got, want := src.Uint64(), std.Uint64(); got != want {
			t.Fatalf("re-seeded draw %d: %d != %d", i, got, want)
		}
	}
}

// TestJumpSourceMatchesStdlib holds the lazy path to the same standard:
// state words built on demand from the Lehmer jump table give the stdlib
// stream at every seed, through the batch build at draw lazyDraws+1 and
// the state wraps after it, across re-seeding, and in agreement with the
// state Seed builds eagerly.
func TestJumpSourceMatchesStdlib(t *testing.T) {
	seeds := checkSeedMatchesStdlib(t, 54321, seedLazy)

	// Re-seeding after a partial and after a wrapped stream must both be
	// indistinguishable from a fresh source: no word built for the prior
	// seed may leak.
	src := &rngSource{}
	for _, used := range []int{3, 1000} {
		src.Seed(7)
		for i := 0; i < used; i++ {
			src.Uint64()
		}
		src.Seed(42)
		std := rand.NewSource(42).(rand.Source64)
		for i := 0; i < 1000; i++ {
			if got, want := src.Uint64(), std.Uint64(); got != want {
				t.Fatalf("re-seeded (after %d draws) draw %d: %d != %d", used, i, got, want)
			}
		}
	}

	// The lazily built and the eagerly built state are two routes to one
	// stream and must agree draw for draw.
	lazy, filled := &rngSource{}, &rngSource{}
	for _, s := range seeds[:12] {
		seedLazy(t, lazy, s)
		seedFilled(t, filled, s)
		for i := 0; i < 700; i++ {
			if got, want := lazy.Uint64(), filled.Uint64(); got != want {
				t.Fatalf("seed %d draw %d: lazy %d != filled %d", s, i, got, want)
			}
		}
	}
}

// TestSourceTransitions reuses one source across streams whose lengths
// straddle the lazy-to-filled switch and the 607-word wrap. Every ordered
// pair of lengths runs back to back, in random order, so a short stream
// follows a long one (Seed fills eagerly on the prediction) and a long one
// follows a short one (the lazy draws switch mid-stream). Each stream must
// be the stdlib's through both Int63 and Uint64, and Seed must predict
// from the previous stream's length exactly, wraps included.
func TestSourceTransitions(t *testing.T) {
	lengths := []int{3, 20, lazyDraws - 1, lazyDraws, lazyDraws + 1, 606, 607, 608, 2000}
	type pair struct{ a, b int }
	var pairs []pair
	for _, a := range lengths {
		for _, b := range lengths {
			pairs = append(pairs, pair{a, b})
		}
	}
	order := rand.New(rand.NewSource(99))
	order.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })

	src := &rngSource{}
	prev, subject := 0, 0
	for _, p := range pairs {
		for _, k := range []int{p.a, p.b} {
			seed := splitmix64(7, subject)
			subject++
			src.Seed(seed)
			if want := prev > lazyDraws; (src.edge < 0) != want {
				t.Fatalf("Seed after a %d-draw stream: filled = %v, want %v", prev, src.edge < 0, want)
			}
			std := rand.NewSource(seed).(rand.Source64)
			for i := 0; i < k; i++ {
				var got, want uint64
				if i%3 == 0 {
					got, want = uint64(src.Int63()), uint64(std.Int63())
				} else {
					got, want = src.Uint64(), std.Uint64()
				}
				if got != want {
					t.Fatalf("%d-draw stream after a %d-draw one, draw %d: %d, stdlib %d", k, prev, i, got, want)
				}
			}
			prev = k
		}
	}
}

// TestRunStreamsMatchStdlib holds the engine to the stream contract: every
// Run subject sees exactly the stdlib stream of its global index, whatever
// stream lengths its worker's earlier subjects drew, at any worker count
// and under a shard's subject offset.
func TestRunStreamsMatchStdlib(t *testing.T) {
	lengths := []int{3, 20, lazyDraws, lazyDraws + 1, 607, 800}
	const seed = 11
	f := func(rng *rand.Rand, g int) (Outcome, error) {
		k := lengths[uint64(splitmix64(3, g))%uint64(len(lengths))]
		std := rand.New(rand.NewSource(splitmix64(seed, g)))
		for i := 0; i < k; i++ {
			if got, want := rng.Float64(), std.Float64(); got != want {
				return Outcome{}, fmt.Errorf("%d-draw stream, draw %d: %v, stdlib %v", k, i, got, want)
			}
		}
		return Outcome{Heeded: true}, nil
	}
	for _, workers := range []int{1, 2, runtime.NumCPU()} {
		for _, offset := range []int{0, 1000} {
			ctx := WithSubjectOffset(context.Background(), offset)
			res, err := Runner{Seed: seed, N: 300, Workers: workers}.Run(ctx, f)
			if err != nil {
				t.Fatalf("workers %d offset %d: %v", workers, offset, err)
			}
			if res.Heed.Successes != 300 {
				t.Fatalf("workers %d offset %d: %d of 300 subjects finished", workers, offset, res.Heed.Successes)
			}
		}
	}
}
