package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"hitl/internal/sim"
	"hitl/internal/telemetry"
)

// perLayer computes the per-layer metrics. Timings are per-op medians of
// the spans of the traced ops in the median class (see medianClass);
// engine rates and response sizes cover every traced op; counts come from
// the window's counter deltas and responses. A layer the workload's front
// door never calls reads 0.
func (o *outcome) perLayer() map[string]metric {
	obs := o.traced.obs
	class := o.medianClass()
	n := float64(o.ops)
	m := make(map[string]metric)
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	med := func(span string) float64 { return median(opValues(class, span)) }
	perOp := func(counter string) float64 { return float64(o.counters[counter]) / n }

	set("scenario.parse_s", med("scenario.parse"), "s")
	set("scenario.normalize_s", med("scenario.normalize"), "s")
	set("scenario.canonical_s", med("scenario.canonical"), "s")

	set("sim.run_s", med("sim.run"), "s")
	var setup, compute, merge []float64
	for _, ob := range class {
		if len(ob.reports) == 0 {
			continue
		}
		var ph sim.PhaseTimes
		for _, er := range ob.reports {
			ph.Add(er.Phases)
		}
		setup = append(setup, ph.SetupSeconds)
		compute = append(compute, ph.ComputeSeconds)
		merge = append(merge, ph.MergeSeconds)
	}
	subjects := map[string]float64{}
	busy := map[string]float64{}
	for _, ob := range obs {
		for _, er := range ob.reports {
			subjects[er.Path] += float64(er.Completed)
			busy[er.Path] += er.Phases.SetupSeconds + er.Phases.ComputeSeconds + er.Phases.MergeSeconds
		}
	}
	set("sim.setup_s", median(setup), "s")
	set("sim.compute_s", median(compute), "s")
	set("sim.merge_s", median(merge), "s")
	for _, path := range []string{sim.EngineInterpreted, sim.EngineCompiled} {
		rate := 0.0
		if busy[path] > 0 {
			rate = subjects[path] / busy[path]
		}
		set("sim."+path+".subjects_per_s", rate, "1/s")
	}
	set("sim.subjects_per_op", perOp("hitl_sim_subjects_total"), "count")
	set("sim.runs_per_op", perOp("hitl_sim_runs_total"), "count")
	paths := map[uint8]float64{}
	var hits float64
	var bytes []float64
	for _, r := range o.recs {
		paths[r.engine]++
		if r.hit {
			hits++
		}
		bytes = append(bytes, float64(r.bytes))
	}
	set("sim.path.interpreted", paths[engInterpreted]/n, "ratio")
	set("sim.path.compiled", paths[engCompiled]/n, "ratio")
	set("sim.path.analytic", paths[engAnalytic]/n, "ratio")

	set("report.render_s", med("report.render"), "s")

	dec := o.decomposition()
	overhead := func(name string) float64 {
		if dec.Residual == name {
			return dec.Rest
		}
		return 0
	}
	set("server.cache_hit_ratio", hits/n, "ratio")
	set("server.overhead_s", overhead("server.overhead_s"), "s")
	set("server.response_bytes", median(bytes), "B")
	set("server.shed", float64(o.counters["hitl_server_shed_total"]), "count")

	set("telemetry.recorder_s", median(recorderCost(class)), "s")
	set("telemetry.trace_overhead_s", o.traceOverhead(), "s")

	set("jobs.submit_s", med("jobs.submit"), "s")
	set("jobs.encode_s", med("jobs.encode"), "s")
	set("jobs.reread_s", med("jobs.reread"), "s")
	set("jobs.overhead_s", overhead("jobs.overhead_s"), "s")
	set("jobs.coalesced", float64(o.counters["hitl_jobs_coalesced_total"]), "count")

	var puts []float64
	for _, ob := range class {
		for _, b := range ob.putBytes {
			puts = append(puts, float64(b))
		}
	}
	set("store.put_s", med("store.put"), "s")
	set("store.get_s", med("store.get"), "s")
	set("store.bytes_per_put", median(puts), "B")
	set("store.writes_per_op", perOp("hitl_store_writes_total"), "count")
	set("store.hits", float64(o.counters["hitl_store_hits_total"]), "count")

	var shardBytes []float64
	for _, ob := range obs {
		if len(ob.shardBytes) > 0 {
			total := 0
			for _, b := range ob.shardBytes {
				total += b
			}
			shardBytes = append(shardBytes, float64(total))
		}
	}
	set("cluster.shard_specs_s", med("cluster.shard_specs"), "s")
	set("cluster.dispatch_s", med("cluster.dispatch"), "s")
	set("cluster.shard_rtt_s", median(spanValues(class, "cluster.shard_rtt")), "s")
	set("cluster.merge_s", med("cluster.merge"), "s")
	set("cluster.shard_response_bytes", median(shardBytes), "B")
	set("cluster.dispatched_per_op", perOp("hitl_cluster_shards_dispatched_total"), "count")
	set("cluster.retries_per_op", perOp("hitl_cluster_shard_retries_total"), "count")
	return m
}

// medianExample names the example the window's median-latency op ran.
func (o *outcome) medianExample() string {
	order := make([]int, len(o.recs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return o.recs[order[a]].lat < o.recs[order[b]].lat })
	return o.cfg.w.example(order[(len(order)-1)/2])
}

// medianClass returns the traced ops that ran medianExample. Examples
// differ in cost by orders of magnitude, and a sum of layer medians taken
// across examples is the cost of no op; taken within one example, it is
// that example's path.
func (o *outcome) medianClass() []traceObs {
	example := o.medianExample()
	var out []traceObs
	for _, ob := range o.traced.obs {
		if ob.example == example {
			out = append(out, ob)
		}
	}
	return out
}

// decomposition splits the median front-door latency of the traced ops
// of the median example along the same ops' traced path. Each op's
// front-door request and its layer calls run moments apart, so the split
// does not depend on how the machine's speed drifted since the window.
func (o *outcome) decomposition() decomposition {
	class := o.medianClass()
	var fronts []float64
	for _, ob := range class {
		fronts = append(fronts, ob.front)
	}
	medians := make(map[string]float64)
	for _, name := range pathSpans[o.cfg.w.door] {
		medians[name] = median(opValues(class, name))
	}
	dec := decompose(median(fronts), o.cfg.w.door, medians)
	dec.Example = o.medianExample()
	return dec
}

// recorderCost is, per jobs op, the engine run with the job manager's
// trace recorder minus the same run without it.
func recorderCost(obs []traceObs) []float64 {
	var out []float64
	for _, ob := range obs {
		with := opValues([]traceObs{ob}, "sim.run")
		without := opValues([]traceObs{ob}, "probe.run_no_recorder")
		if len(with) == 1 && len(without) == 1 {
			out = append(out, with[0]-without[0])
		}
	}
	return out
}

// traceOverhead is the median over ops of each op's time in the traced
// pass minus its time in the untraced one. Both passes replay the same ops
// on fresh scratch state, so the difference is what recording the spans
// cost; the median of the pairs, unlike a difference of pass totals, is
// not decided by the few most expensive ops.
func (o *outcome) traceOverhead() float64 {
	n := min(len(o.traced.opWall), len(o.untraced.opWall))
	diffs := make([]float64, n)
	for i := range diffs {
		diffs[i] = o.traced.opWall[i] - o.untraced.opWall[i]
	}
	return median(diffs)
}

// finding is one expected first finding, confirmed or refuted with the
// numbers the run measured.
type finding struct {
	Claim    string `json:"claim"`
	Verdict  string `json:"verdict"`
	Evidence string `json:"evidence"`
}

func verdict(ok bool) string {
	if ok {
		return "confirmed"
	}
	return "refuted"
}

// findings checks the expected first finding of the run's workload.
func (o *outcome) findings() []finding {
	obs := o.traced.obs
	med := func(span string) float64 { return median(opValues(o.medianClass(), span)) }
	switch o.cfg.w.name {
	case "sync-miss":
		byPath := map[string]float64{}
		total := 0.0
		for _, ob := range obs {
			for _, v := range opValues([]traceObs{ob}, "sim.run") {
				byPath[ob.engine] += v
				total += v
			}
		}
		share := byPath[sim.EngineInterpreted] / total
		return []finding{{
			Claim:   "sync-miss: the interpreted path dominates engine time",
			Verdict: verdict(share > 0.5),
			Evidence: fmt.Sprintf("interpreted %.1f%%, compiled %.1f%%, analytic %.1f%% of %.3fs traced engine time",
				100*share, 100*byPath[sim.EngineCompiled]/total, 100*byPath[sim.EngineAnalytic]/total, total),
		}}
	case "sync-hit":
		parse, norm, canon, digest := med("scenario.parse"), med("scenario.normalize"), med("scenario.canonical"), med("probe.digest_only")
		decode := parse + norm + canon
		p50 := median(o.latencies())
		return []finding{{
			Claim:   "sync-hit: spec decode/normalize/digest takes tens of µs of a hit, and Canonical normalizes again",
			Verdict: verdict(decode >= 10e-6 && canon-digest >= norm/2),
			Evidence: fmt.Sprintf("parse %.1fµs + normalize %.1fµs + canonical %.1fµs = %.1fµs of a %.1fµs p50 hit (%.0f%%); canonical minus digest-only %.1fµs vs normalize %.1fµs",
				parse*1e6, norm*1e6, canon*1e6, decode*1e6, p50*1e6, 100*decode/p50, (canon-digest)*1e6, norm*1e6),
		}}
	case "jobs-persist":
		jobPaths := map[string]int{}
		for i, r := range o.recs {
			if o.cfg.w.example(i) == exStudy && r.fail == failNone {
				jobPaths[engineNames[r.engine]]++
			}
		}
		syncPaths := map[string]int{}
		var studyOps []traceObs
		for _, ob := range obs {
			if ob.example == exStudy {
				syncPaths[ob.probeEngine]++
				studyOps = append(studyOps, ob)
			}
		}
		ok := len(jobPaths) == 1 && jobPaths[sim.EngineInterpreted] > 0 &&
			len(syncPaths) == 1 && syncPaths[sim.EngineCompiled] > 0
		return []finding{{
			Claim:   "jobs-persist: phishing-study answers interpreted through /v1/jobs but compiled through /v1/scenarios/run",
			Verdict: verdict(ok),
			Evidence: fmt.Sprintf("job engine paths %v; same specs without the job's trace recorder %v; the recorder costs %.1fµs per phishing-study op",
				jobPaths, syncPaths, median(recorderCost(studyOps))*1e6),
		}}
	case "cluster-2worker":
		full, half := 0, 0
		for _, ob := range obs {
			if ob.halfBytes > 0 {
				full, half = ob.shardBytes[0], ob.halfBytes
			}
		}
		ratio := float64(full) / float64(half)
		return []finding{{
			Claim:   "cluster-2worker: shard responses carry per-subject vectors, so their bytes and the op's allocation grow with n",
			Verdict: verdict(ratio > 1.5),
			Evidence: fmt.Sprintf("a campaign shard response is %d B at n=%d and %d B at half that (x%.2f); %.1f MB allocated per op",
				full, o.cfg.w.n/shards, half, ratio, float64(o.alloc)/float64(o.ops)/1e6),
		}}
	}
	return nil
}

// traceFile is the span dump written when the run ends.
type traceFile struct {
	Workload       string             `json:"workload"`
	Seed           int64              `json:"seed"`
	Env            env                `json:"env"`
	Decomposition  decomposition      `json:"decomposition"`
	SelfMedians    map[string]float64 `json:"self_time_medians_s"`
	TraceOverheadS float64            `json:"trace_overhead_s_per_op"`
	Findings       []finding          `json:"findings"`
	Ops            []traceOp          `json:"ops"`
}

type traceOp struct {
	Example string     `json:"example"`
	Spans   []spanSelf `json:"spans"`
}

type spanSelf struct {
	telemetry.SpanRecord
	SelfSeconds float64 `json:"self_seconds"`
}

// writeTrace writes the traced pass's spans, with self times, the latency
// decomposition and the findings, and prints the summary to log.
func (o *outcome) writeTrace(log io.Writer) error {
	tf := traceFile{
		Workload: o.cfg.w.name, Seed: o.cfg.seed, Env: o.env,
		Decomposition:  o.decomposition(),
		SelfMedians:    make(map[string]float64),
		TraceOverheadS: o.traceOverhead(),
		Findings:       o.findings(),
	}
	selfByName := make(map[string][]float64)
	for _, ob := range o.traced.obs {
		self := selfTimes(ob.spans)
		op := traceOp{Example: ob.example}
		for _, s := range ob.spans {
			op.Spans = append(op.Spans, spanSelf{s, self[s.ID]})
			selfByName[s.Name] = append(selfByName[s.Name], self[s.ID])
		}
		tf.Ops = append(tf.Ops, op)
	}
	for name, v := range selfByName {
		tf.SelfMedians[name] = median(v)
	}
	dir := filepath.Join(o.cfg.out, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	body, err := json.MarshalIndent(tf, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", o.cfg.w.name, o.cfg.seed))
	if err := os.WriteFile(path, body, 0o644); err != nil {
		return err
	}
	d := tf.Decomposition
	fmt.Fprintf(log, "e2ebench: window p50 %.6fs falls on %s, whose median %.6fs = path %.6fs + %s %.6fs\n",
		median(o.latencies()), d.Example, d.Latency, d.Sum, d.Residual, d.Rest)
	for _, name := range pathSpans[o.cfg.w.door] {
		fmt.Fprintf(log, "e2ebench:   %-20s %.6fs\n", name, d.Layers[name])
	}
	for _, name := range sortedKeys(tf.SelfMedians) {
		fmt.Fprintf(log, "e2ebench:   self %-22s %.6fs\n", name, tf.SelfMedians[name])
	}
	fmt.Fprintf(log, "e2ebench: tracing overhead %.6fs per op\n", tf.TraceOverheadS)
	for _, f := range tf.Findings {
		fmt.Fprintf(log, "e2ebench: finding %s: %s (%s)\n", f.Verdict, f.Claim, f.Evidence)
	}
	fmt.Fprintf(log, "e2ebench: spans written to %s\n", path)
	return nil
}
