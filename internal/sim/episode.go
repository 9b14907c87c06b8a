package sim

// Episode bookkeeping shared by the scenario layer's multi-round loop and
// the reports that describe it. Each round is one ordinary engine run —
// bit-identical at any worker count, shardable within the round through
// the WithSubjectOffset/MergeResults contract — and the only state that
// crosses rounds is the aggregate summaries an adaptive policy sees.

// RoundParams is the attacker-controlled parameter overrides for one
// round, keyed by scenario parameter name.
type RoundParams map[string]float64

// RoundAggregate is what one completed round exposes to the adaptive
// policy (and to reports): its index, the derived seed it ran under, the
// parameter overrides it ran with, and the aggregate metrics it produced.
// No per-subject state crosses the round boundary — that is what keeps
// rounds individually shardable and re-runnable.
type RoundAggregate struct {
	Round  int                `json:"round"`
	Seed   int64              `json:"seed"`
	Params RoundParams        `json:"params,omitempty"`
	Values map[string]float64 `json:"values,omitempty"`
}

// RoundSeed derives round r's engine seed from the episode's master seed.
// The stride constant is disjoint from the sweep-point stride (1_000_003)
// and the scenario-layer strides, so episode rounds never collide with
// sweep points of the same master seed.
func RoundSeed(seed int64, round int) int64 {
	return splitmix64(seed, 2_000_003+round)
}
