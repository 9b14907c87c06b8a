package report

import (
	"encoding/json"
	"io"
	"sort"

	"hitl/internal/sim"
)

// RunReport is the self-contained diagnostic account of one scenario,
// experiment, or job run — the artifact that answers "what happened in
// this run" after the fact: what was asked for, what actually executed,
// where the wall time went, which C-HIP stages failures were attributed
// to, which fault rules fired, and whether the run was degraded, partial,
// timed out, or contained a panic. It is assembled from the engine's
// per-run EngineReports (sim.ReportCollector) and enriched by each layer
// above: scenario metadata, fault statistics, cache disposition, and
// degraded state. Every count in it comes from the run's own collector,
// never from process-wide counters, so concurrent runs cannot leak into
// each other's reports.
//
// Persisted reports are canonicalized first (see Canonical): like the
// canonical spec digest, the stored bytes zero every scheduling-dependent
// field (worker counts, wall times) so the same spec produces
// bit-identical report bytes at any worker count. Inline reports
// (?report=1, -report) keep full fidelity.
type RunReport struct {
	// Version numbers the schema so future shard workers and coordinators
	// can negotiate changes.
	Version int `json:"version"`
	// JobID is the job identity for job runs (equals SpecDigest except for
	// faulted variants); empty for inline runs.
	JobID string `json:"job_id,omitempty"`
	// SpecDigest is the canonical spec digest (scenario.Canonical).
	SpecDigest string `json:"spec_digest,omitempty"`
	Scenario   string `json:"scenario,omitempty"`
	// EnginePath records which engine answered the run: "interpreted",
	// "compiled", "analytic" (closed form, no engine runs at all), or
	// "mixed" when folded engine runs took different paths. FromEngine
	// derives it from the engine reports; layers that know the
	// scenario-level path (which covers analytic runs, invisible to the
	// collector) overwrite it with that. Engine selection is deterministic
	// in the spec, so the field survives canonicalization.
	EnginePath string `json:"engine_path,omitempty"`
	Seed       int64  `json:"seed"`
	// N is the subject count per engine run that executed; RequestedN is
	// the pre-clamp count when degraded mode reduced it (0 otherwise).
	N          int `json:"n"`
	RequestedN int `json:"requested_n,omitempty"`
	// Workers is the requested parallelism; EffectiveWorkers what the
	// engine resolved it to. Zeroed in canonical form.
	Workers          int `json:"workers,omitempty"`
	EffectiveWorkers int `json:"effective_workers,omitempty"`
	// EngineRuns counts the engine runs folded into this report (a sweep
	// contributes one per point); Subjects sums their completed subjects.
	EngineRuns int `json:"engine_runs"`
	Subjects   int `json:"subjects"`
	// Phases sums per-phase wall time across engine runs. Zeroed in
	// canonical form.
	Phases sim.PhaseTimes `json:"phases"`
	// StageFailures attributes subject failures to framework stages,
	// summed across engine runs.
	StageFailures  map[string]int `json:"stage_failures,omitempty"`
	TimedOut       bool           `json:"timed_out,omitempty"`
	Canceled       bool           `json:"canceled,omitempty"`
	Partial        bool           `json:"partial,omitempty"`
	PanicRecovered bool           `json:"panic_recovered,omitempty"`
	Errors         []string       `json:"errors,omitempty"`
	// Degraded marks a run admitted under post-shed degraded mode;
	// DegradedClamp is the subject cap that was applied.
	Degraded      bool `json:"degraded,omitempty"`
	DegradedClamp int  `json:"degraded_clamp,omitempty"`
	// FaultSpec is the injected fault specification; FaultRules lists each
	// rule with how many times its trigger decision fired (deterministic in
	// the run seed at any worker count).
	FaultSpec  string      `json:"fault_spec,omitempty"`
	FaultRules []FaultRule `json:"fault_rules,omitempty"`
	// Cache records the serving layer's disposition: "hit", "miss",
	// "bypass", or empty when no cache was in play.
	Cache string `json:"cache,omitempty"`
	// Cluster is the coordinator's accounting for distributed runs (nil
	// for single-node runs). Scheduling-dependent fields are zeroed in
	// canonical form.
	Cluster *ClusterReport `json:"cluster,omitempty"`
	// Rounds is the per-round history of an episodic run, in round order
	// (empty for round-free runs). Round seeds, applied parameters, and
	// aggregate values are all deterministic in the master seed, so the
	// section survives canonicalization intact.
	Rounds []RoundReport `json:"rounds,omitempty"`
}

// RoundReport is one episode round: the seed it ran under, the parameter
// overrides the adaptive policy applied, and the aggregate metrics the
// next round's policy decision saw. Plain fields keep the report envelope
// decoupled from the scenario package.
type RoundReport struct {
	Round      int                `json:"round"`
	Seed       int64              `json:"seed"`
	Params     map[string]float64 `json:"params,omitempty"`
	Values     map[string]float64 `json:"values,omitempty"`
	EnginePath string             `json:"engine_path,omitempty"`
}

// ClusterReport is the distributed-execution section of a RunReport: how
// the run was sharded and what it took to bring every shard home.
type ClusterReport struct {
	// Shards is the shard count (deterministic in the request); the rest
	// is execution history: attempts dispatched, retries, failovers, and
	// shards served per worker URL.
	Shards     int            `json:"shards"`
	Dispatched int            `json:"dispatched,omitempty"`
	Retries    int            `json:"retries,omitempty"`
	Failovers  int            `json:"failovers,omitempty"`
	Nodes      map[string]int `json:"nodes,omitempty"`
	// Partial and Missing record an incomplete cover: the merged result
	// omits these shard indices, and its Completed < N. They stay in
	// canonical form — unlike scheduling detail, missing subjects change
	// the result bytes.
	Partial bool  `json:"partial,omitempty"`
	Missing []int `json:"missing,omitempty"`
}

// FaultRule pairs a fault rule's description with its fired count. Plain
// strings keep the report envelope decoupled from the faults package.
type FaultRule struct {
	Rule  string `json:"rule"`
	Fired int64  `json:"fired"`
}

// ReportVersion is the current RunReport schema version.
const ReportVersion = 1

// FromEngine aggregates the engine runs a sim.ReportCollector gathered
// into one RunReport. Seed and worker fields are taken from the first
// engine run (sweep points derive their seeds from it); flags and stage
// counts fold across all runs order-independently, so a parallel sweep
// yields the same report as a serial one.
func FromEngine(runs []sim.EngineReport) RunReport {
	r := RunReport{Version: ReportVersion, EngineRuns: len(runs)}
	for i, er := range runs {
		if i == 0 {
			r.Seed = er.Seed
			r.N = er.N
			r.Workers = er.RequestedWorkers
			r.EffectiveWorkers = er.EffectiveWorkers
			r.EnginePath = er.Path
		} else if er.Path != r.EnginePath {
			r.EnginePath = "mixed"
		}
		r.Subjects += er.Completed
		r.Phases.Add(er.Phases)
		for stage, n := range er.StageFailures {
			if r.StageFailures == nil {
				r.StageFailures = make(map[string]int)
			}
			r.StageFailures[stage] += n
		}
		r.TimedOut = r.TimedOut || er.TimedOut
		r.Canceled = r.Canceled || er.Canceled
		r.Partial = r.Partial || er.Partial
		r.PanicRecovered = r.PanicRecovered || er.PanicRecovered
		if er.Error != "" {
			r.Errors = append(r.Errors, er.Error)
		}
	}
	sort.Strings(r.Errors)
	return r
}

// Canonical returns a copy with every scheduling-dependent field zeroed —
// requested and effective workers (like the canonical spec digest), phase
// wall times, and the cluster's dispatch history — so the persisted
// report bytes are bit-identical at any worker count.
func (r RunReport) Canonical() RunReport {
	r.Workers = 0
	r.EffectiveWorkers = 0
	r.Phases = sim.PhaseTimes{}
	if r.Cluster != nil {
		// Which nodes served which shards, and how many tries it took,
		// is scheduling; the shard count and any gaps in the cover are
		// not — they are visible in the result bytes.
		cl := ClusterReport{Shards: r.Cluster.Shards, Partial: r.Cluster.Partial}
		cl.Missing = append(cl.Missing, r.Cluster.Missing...)
		r.Cluster = &cl
	}
	return r
}

// MarshalIndented renders the report as indented JSON with a trailing
// newline — the persisted wire form, matching the job result envelope.
func (r RunReport) MarshalIndented() ([]byte, error) {
	body, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(body, '\n'), nil
}

// WriteJSON writes the indented wire form to w.
func (r RunReport) WriteJSON(w io.Writer) error {
	body, err := r.MarshalIndented()
	if err != nil {
		return err
	}
	_, err = w.Write(body)
	return err
}
