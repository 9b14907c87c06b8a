// Package cluster shards scenario runs across a pool of hitl-serve
// workers and merges the shard aggregates back into the exact result a
// single node would have produced.
//
// The split leans entirely on the engine's determinism contract: subject
// i's random stream is a pure function of (run seed, global subject
// index), so a normalized Spec over N subjects can be sliced into shard
// specs — identical except for Offset and N — that partition [0, N), run
// anywhere, and reassemble bit-identically through the deterministic
// merge (scenario.MergeShardResults). Correctness never depends on which
// node ran a shard, how often it was retried, or where it failed over;
// placement and scheduling affect only latency and cache locality.
//
// Placement uses a consistent hash ring keyed by each shard spec's
// canonical digest: the same shard of the same spec lands on the same
// worker across runs, so worker-side result caches and stores stay warm,
// and losing one node only reassigns that node's arc. Robustness is
// layered on top: per-shard timeouts, retries with exponential backoff
// and jitter (honoring Retry-After from 429/503 sheds), health probing of
// /v1/healthz (draining nodes leave the ring, recovered nodes rejoin),
// failover of a dead node's shards to the next ring position, and —
// when allowed — partial completion with exact missing-shard accounting.
package cluster

import (
	"fmt"

	"hitl/internal/scenario"
	"hitl/internal/sim"
)

// ShardRequest is the coordinator→worker wire form of one shard: just the
// shard spec (Offset and N select the subrange) plus the parent's
// canonical digest so worker logs and flight events can be correlated to
// the run they belong to.
type ShardRequest struct {
	Spec scenario.Spec `json:"spec"`
	// Parent is the parent spec's canonical digest (informational).
	Parent string `json:"parent,omitempty"`
	// Shard and Shards locate this slice within the run (informational).
	Shard  int `json:"shard"`
	Shards int `json:"shards,omitempty"`
}

// ShardPoint is one scenario point with its raw aggregate included.
// scenario.Point deliberately omits Run from JSON (client responses don't
// need per-subject observation vectors); the shard protocol is the one
// place the raw aggregate must cross the wire, because merging happens on
// the coordinator. JSON transports it exactly: every field is integer
// counts or float64 slices, and Go's encoder round-trips float64 values
// bit-for-bit.
type ShardPoint struct {
	Label  string             `json:"label"`
	Param  float64            `json:"param,omitempty"`
	Run    *sim.Result        `json:"run,omitempty"`
	Values map[string]float64 `json:"values,omitempty"`
}

// ShardResponse is the worker→coordinator wire form of a completed shard.
type ShardResponse struct {
	// Digest is the shard spec's canonical digest, echoed so the
	// coordinator can detect a response answering the wrong question.
	Digest string `json:"digest"`
	// Engine is the engine path that produced the points.
	Engine string `json:"engine"`
	// Faulted marks a shard computed under fault injection. The
	// coordinator treats faulted responses as retryable failures: a
	// perturbed aggregate must never reach the merge.
	Faulted bool `json:"faulted,omitempty"`
	// Degraded marks a shard computed by a degraded worker. Workers shed
	// shard requests instead of clamping them, so this should never be
	// set; the coordinator rejects it defensively all the same.
	Degraded bool         `json:"degraded,omitempty"`
	Points   []ShardPoint `json:"points"`
}

// ResponseFromResult packages a shard run's scenario result for the wire.
func ResponseFromResult(res *scenario.Result, digest string, faulted bool) ShardResponse {
	out := ShardResponse{Digest: digest, Engine: res.EnginePath, Faulted: faulted}
	out.Points = make([]ShardPoint, len(res.Points))
	for i, p := range res.Points {
		out.Points[i] = ShardPoint{Label: p.Label, Param: p.Param, Run: p.Run, Values: p.Values}
	}
	return out
}

// ScenarioResult reconstructs the shard's scenario.Result from the wire
// form, under the shard spec it answered.
func (r ShardResponse) ScenarioResult(spec scenario.Spec) *scenario.Result {
	out := &scenario.Result{Scenario: spec.Scenario, Spec: spec, EnginePath: r.Engine}
	out.Points = make([]scenario.Point, len(r.Points))
	for i, p := range r.Points {
		out.Points[i] = scenario.Point{Label: p.Label, Param: p.Param, Run: p.Run, Values: p.Values}
	}
	return out
}

// Health is the JSON body of /v1/healthz. Status distinguishes a healthy
// worker ("ok") from one draining ahead of shutdown ("draining"); the
// HTTP status carries the same information (200 vs 503), the body lets a
// prober tell draining apart from dead without a second request and adds
// build identity for fleet audits.
type Health struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_seconds,omitempty"`
	GoVersion     string  `json:"go_version,omitempty"`
	Revision      string  `json:"revision,omitempty"`
}

// Health states.
const (
	StatusOK       = "ok"
	StatusDraining = "draining"
)

// RunStats is the coordinator's accounting of one distributed run.
type RunStats struct {
	// Shards is how many shards the run was split into; Dispatched counts
	// every attempt handed to a worker (first tries and retries alike).
	Shards     int `json:"shards"`
	Dispatched int `json:"dispatched"`
	// Retries counts re-dispatches after retryable failures; Failovers
	// counts shards moved off their preferred node.
	Retries   int `json:"retries"`
	Failovers int `json:"failovers"`
	// Partial marks a run completed with shards missing; Missing lists
	// the missing shard indices (subject subranges are recoverable from
	// the shard plan, which is deterministic in the spec and shard count).
	Partial bool  `json:"partial,omitempty"`
	Missing []int `json:"missing,omitempty"`
	// Nodes counts shards served per worker URL.
	Nodes map[string]int `json:"nodes,omitempty"`
	// Rounds is the episode round count for episodic runs (0 otherwise);
	// the shard/dispatch counters then sum over every round.
	Rounds int `json:"rounds,omitempty"`
}

// add folds one round's stats into s.
func (s *RunStats) add(r RunStats) {
	s.Shards += r.Shards
	s.Dispatched += r.Dispatched
	s.Retries += r.Retries
	s.Failovers += r.Failovers
	s.Partial = s.Partial || r.Partial
	s.Missing = append(s.Missing, r.Missing...)
	for node, n := range r.Nodes {
		s.Nodes[node] += n
	}
}

func (s RunStats) String() string {
	return fmt.Sprintf("shards=%d dispatched=%d retries=%d failovers=%d partial=%v",
		s.Shards, s.Dispatched, s.Retries, s.Failovers, s.Partial)
}
