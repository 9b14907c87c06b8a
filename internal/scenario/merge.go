package scenario

import (
	"fmt"

	"hitl/internal/sim"
)

// Shard merging: a spec over N subjects can be sliced into shard specs —
// identical except for Offset and N — that partition [0, N), executed
// anywhere, and reassembled here. Raw aggregates merge through
// sim.MergeResults (the same fold the engine applies to its per-worker
// shards); derived per-point metrics are ratios and means, which do not
// merge linearly, so they are recomputed from the merged aggregate via the
// scenario's Rederiver.

// Rederiver recomputes a point's derived metric map from its raw
// aggregate. Implementations must be pure functions of (label, run) that
// reproduce exactly the Values map the scenario's Run attaches to the
// point with that label — Rederive over the merged aggregate of a full
// shard cover is then bit-identical to a single-node run's Values.
// Scenarios that do not implement Rederiver can only be merged when their
// points carry no metrics beyond the generic heed_rate.
type Rederiver interface {
	Rederive(label string, run *sim.Result) (map[string]float64, error)
}

// MergeShardResults reassembles the Result of parent from the Results of
// shard specs partitioning its subject range. Shards must be passed in
// ascending Offset order (sim.MergeResults concatenates metric
// observations in part order). The merge is deterministic and — for a
// complete, in-order cover — bit-identical to running parent on one node.
//
// An incomplete cover (failed shards dropped under a partial-completion
// policy) still merges: each merged point's Run.N is overwritten with the
// parent subject count, so Run.Completed < Run.N records the missing
// subjects exactly like the engine's own partial results.
//
// Analytic shard points (Run == nil: the closed form needed no Monte
// Carlo) must agree exactly across shards — the analytic answer is a
// probability law independent of the subject range — and merge to that
// shared point.
func MergeShardResults(parent Spec, shards []*Result) (*Result, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("scenario: merging zero shard results")
	}
	norm, err := Normalize(parent)
	if err != nil {
		return nil, err
	}
	sc, err := Get(norm.Scenario)
	if err != nil {
		return nil, err
	}

	first := shards[0]
	out := &Result{Scenario: norm.Scenario, Spec: norm}
	for _, sh := range shards {
		if sh == nil {
			return nil, fmt.Errorf("scenario: merging nil shard result")
		}
		if len(sh.Points) != len(first.Points) {
			return nil, fmt.Errorf("scenario: shard point counts differ (%d vs %d)",
				len(sh.Points), len(first.Points))
		}
		out.EnginePath = foldEnginePath(out.EnginePath, sh.EnginePath)
	}

	for j := range first.Points {
		runs := make([]*sim.Result, 0, len(shards))
		analytic := 0
		for _, sh := range shards {
			p := &sh.Points[j]
			if p.Label != first.Points[j].Label || p.Param != first.Points[j].Param {
				return nil, fmt.Errorf("scenario: shard point %d mismatch (%q vs %q)",
					j, p.Label, first.Points[j].Label)
			}
			if p.Run == nil {
				analytic++
				continue
			}
			runs = append(runs, p.Run)
		}
		switch {
		case analytic == len(shards):
			// Closed-form points carry no aggregate and are subject-range
			// independent; every shard must have produced the same values.
			base := first.Points[j]
			for _, sh := range shards[1:] {
				if !equalValues(base.Values, sh.Points[j].Values) {
					return nil, fmt.Errorf("scenario: analytic shard values differ at point %q", base.Label)
				}
			}
			out.Points = append(out.Points, Point{
				Label:  base.Label,
				Param:  base.Param,
				Values: cloneValues(base.Values),
			})
		case analytic > 0:
			return nil, fmt.Errorf("scenario: point %q mixes analytic and simulated shards",
				first.Points[j].Label)
		default:
			merged, err := sim.MergeResults(runs)
			if err != nil {
				return nil, err
			}
			// Partial covers keep full-run accounting: Completed < N marks
			// the missing subjects. For a complete cover the sum of shard Ns
			// already equals the parent N and this is a no-op.
			merged.N = norm.N
			vals, err := rederive(sc, first.Points[j], merged)
			if err != nil {
				return nil, err
			}
			out.Points = append(out.Points, Point{
				Label:  first.Points[j].Label,
				Param:  first.Points[j].Param,
				Run:    merged,
				Values: vals,
			})
		}
	}
	return out, nil
}

// ShardSpecs slices a normalized parent spec into count shard specs
// partitioning its subject range: contiguous, ascending, sizes differing
// by at most one (the first N mod count shards take the extra subject).
// Everything except Offset and N — seed, parameters, sweep axis, workers —
// is inherited, so per-condition and per-sweep-step derived seeds match
// the parent run exactly. count is clamped to [1, N]: a shard must hold at
// least one subject.
func ShardSpecs(parent Spec, count int) ([]Spec, error) {
	norm, err := Normalize(parent)
	if err != nil {
		return nil, err
	}
	if norm.Offset != 0 {
		return nil, specErrf("offset", "cannot shard a spec that is already a shard (offset %d)", norm.Offset)
	}
	if norm.Rounds > 0 {
		// Episodes shard within rounds, never across them: materialize
		// round r with RoundSpec and shard that.
		return nil, specErrf("rounds", "cannot shard an episodic spec; shard its round specs instead")
	}
	if count < 1 {
		count = 1
	}
	if count > norm.N {
		count = norm.N
	}
	base, extra := norm.N/count, norm.N%count
	out := make([]Spec, count)
	off := 0
	for i := range out {
		n := base
		if i < extra {
			n++
		}
		sh := norm
		sh.Offset = off
		sh.N = n
		out[i] = sh
		off += n
	}
	return out, nil
}

// rederive recomputes a point's metric map from a raw aggregate: a merged
// shard cover, or a compiled run. Scenarios implementing Rederiver own the
// computation; otherwise only the generic heed_rate — the one metric the
// engine itself derives — can be reproduced, and any richer point refuses
// to merge rather than silently averaging wrong.
func rederive(sc Scenario, shardPoint Point, merged *sim.Result) (map[string]float64, error) {
	if rd, ok := sc.(Rederiver); ok {
		return rd.Rederive(shardPoint.Label, merged)
	}
	for k := range shardPoint.Values {
		if k != "heed_rate" {
			return nil, fmt.Errorf("scenario: %s derives metric %q but does not implement Rederiver; cannot merge shards",
				sc.Name(), k)
		}
	}
	return map[string]float64{"heed_rate": merged.HeedRate()}, nil
}

// equalValues reports exact equality of two metric maps. Bitwise float
// equality is the right bar: shards of a deterministic analytic answer
// must agree to the last bit, or the merge would not be bit-identical.
func equalValues(a, b map[string]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		w, ok := b[k]
		if !ok || v != w {
			return false
		}
	}
	return true
}

// cloneValues copies a metric map so merged results never alias shard
// responses.
func cloneValues(v map[string]float64) map[string]float64 {
	if v == nil {
		return nil
	}
	out := make(map[string]float64, len(v))
	for k, x := range v {
		out[k] = x
	}
	return out
}
