package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"hitl/internal/cluster"
	"hitl/internal/jobs"
	"hitl/internal/report"
	"hitl/internal/scenario"
	"hitl/internal/server"
	"hitl/internal/sim"
	"hitl/internal/store"
	"hitl/internal/telemetry"
)

// The traced pass makes, from the benchmark, the public calls of each
// layer in the order the workload's front door makes them, each inside a
// telemetry span named after the layer; the engine's own spans nest under
// "sim.run". Spans stay in memory until the run ends.

// pathSpans lists, per front door, the spans that lie one after another
// on an op's critical path. Their medians plus the door's residual make
// up the median front-door latency of the same ops. Other spans are
// probes: they attribute time inside a path span (render inside encode,
// the engine inside a shard round trip) or compare two variants of a call.
var pathSpans = map[door][]string{
	doorSync:    {"scenario.parse", "scenario.normalize", "scenario.canonical", "sim.run", "report.render"},
	doorJobs:    {"scenario.parse", "scenario.normalize", "scenario.canonical", "jobs.submit", "sim.run", "jobs.encode", "store.put", "jobs.reread"},
	doorCluster: {"scenario.parse", "scenario.normalize", "scenario.canonical", "cluster.shard_specs", "cluster.dispatch", "cluster.merge", "report.render"},
}

// residualName names what is left of the median op latency once the path
// spans are taken away: HTTP, middleware, admission and JSON encoding for
// the synchronous doors, plus the job hand-off and streaming for jobs.
func residualName(d door) string {
	if d == doorJobs {
		return "jobs.overhead_s"
	}
	return "server.overhead_s"
}

// traceObs is what the traced pass keeps of one op.
type traceObs struct {
	example     string
	front       float64 // the same op through the front door, seconds
	spans       []telemetry.SpanRecord
	engine      string             // engine path of the traced run
	reports     []sim.EngineReport // engine runs of the traced run
	probeEngine string             // jobs: engine path without the recorder
	putBytes    []int
	shardBytes  []int
	halfBytes   int // cluster: one shard response at half the subjects
}

// traceRig is the scratch state one pass's direct calls share: a job
// manager and store on the same filesystem as the served store, and for
// the cluster door two shard workers of its own. Each pass gets a fresh
// one, so the untraced and the traced pass can replay the same ops
// without the second finding the first's jobs or cached shards.
type traceRig struct {
	r       *rig
	workers []string
	st      *store.Store
	mgr     *jobs.Manager
	history jobHistory
}

// layer times one public call as a span named name under ctx's span.
func layer(ctx context.Context, name string, fn func(ctx context.Context) error) error {
	ctx, sp := telemetry.StartSpan(ctx, name)
	defer sp.End()
	return fn(ctx)
}

// passResult is one run of the traced (or untraced) pass.
type passResult struct {
	obs    []traceObs // recorded ops only
	opWall []float64  // seconds each op took, warm-up included
}

// runPass executes warmOps+traceOps ops of the traced stream through the
// layer calls on a fresh traceRig under dir, with the workload's client
// count. When traced it records spans, and first sends each recorded op
// through the front door of the timed rig r, untimed by the pass, so that
// the op's latency and its layers are measured moments apart.
func (b *bench) runPass(r *rig, dir string, traced bool) (passResult, error) {
	tr, err := b.newTraceRig(dir)
	if err != nil {
		return passResult{}, err
	}
	defer tr.r.close()
	warm := 0
	if b.w.door == doorJobs {
		warm = b.w.warmOps
	}
	total := warm + b.w.traceOps
	obs := make([]traceObs, total)
	errs := make([]error, total)
	opWall := make([]float64, total)
	callers, fronts := b.callers(tr.r), b.callers(r)
	n, _ := closedLoop(clients, 0, total, total, func(c, i int) {
		if traced && i >= warm {
			var rec opRec
			if b.do(r, fronts[c], streamTraced, i, &rec); rec.fail != failNone {
				errs[i] = fmt.Errorf("front-door op failed")
				return
			}
			obs[i].front = rec.lat
		}
		start := time.Now()
		ctx := context.Background()
		var tracer *telemetry.Tracer
		if traced {
			tracer = telemetry.NewTracer(nil)
			ctx = telemetry.WithTracer(ctx, tracer)
		}
		ctx, root := telemetry.StartSpan(ctx, "op")
		errs[i] = b.traceOp(ctx, tr, callers[c], i, i >= warm, &obs[i])
		root.End()
		obs[i].example = b.w.example(i)
		if tracer != nil {
			obs[i].spans = tracer.Spans()
		}
		opWall[i] = time.Since(start).Seconds()
	})
	for i, err := range errs[:n] {
		if err != nil {
			return passResult{}, fmt.Errorf("traced op %d (%s): %w", i, b.w.example(i), err)
		}
	}
	return passResult{obs: obs[warm:n], opWall: opWall[:n]}, nil
}

// traceOp runs op i of the traced stream through the layer calls;
// recorded is false for the jobs warm-up ops, which only queue jobs for
// later re-reads.
func (b *bench) traceOp(ctx context.Context, tr *traceRig, c *caller, i int, recorded bool, o *traceObs) error {
	body, err := b.body(streamTraced, i)
	if err != nil {
		return err
	}
	var sp, norm scenario.Spec
	var digest string
	if err := layer(ctx, "scenario.parse", func(context.Context) (err error) {
		sp, err = scenario.ParseSpec(bytes.NewReader(body))
		return err
	}); err != nil {
		return err
	}
	if err := layer(ctx, "scenario.normalize", func(context.Context) (err error) {
		norm, err = scenario.Normalize(sp)
		norm.Workers = 0
		return err
	}); err != nil {
		return err
	}
	if err := layer(ctx, "scenario.canonical", func(context.Context) (err error) {
		digest, err = scenario.Canonical(norm)
		return err
	}); err != nil {
		return err
	}
	switch {
	case b.w.hitSlots != nil:
		// Everything past the digest is the cache: not a public call.
		// The probe times the digest alone, without Canonical's second
		// Normalize, to show what that second pass costs.
		return layer(ctx, "probe.digest_only", func(context.Context) error {
			raw, err := json.Marshal(norm)
			sum := sha256.Sum256(raw)
			_ = hex.EncodeToString(sum[:])
			return err
		})
	case b.w.door == doorSync:
		return b.traceSync(ctx, norm, o)
	case b.w.door == doorJobs:
		return b.traceJobs(ctx, tr, norm, digest, recorded, o)
	default:
		return b.traceCluster(ctx, tr, c, norm, i, o)
	}
}

// runEngine is the "sim.run" span: scenario.Run under a report collector,
// whose engine reports give the setup/compute/merge split.
func runEngine(ctx context.Context, norm scenario.Spec, rec *telemetry.Recorder, o *traceObs) (*scenario.Result, error) {
	var res *scenario.Result
	col := sim.NewReportCollector()
	err := layer(ctx, "sim.run", func(ctx context.Context) (err error) {
		ctx = sim.WithReportCollector(ctx, col)
		if rec != nil {
			ctx = telemetry.WithRecorder(ctx, rec)
		}
		res, err = scenario.Run(ctx, norm)
		return err
	})
	if err != nil {
		return nil, err
	}
	o.engine = res.EnginePath
	o.reports = append(o.reports, col.Reports()...)
	return res, nil
}

func render(ctx context.Context, res *scenario.Result) error {
	return layer(ctx, "report.render", func(context.Context) error {
		var text strings.Builder
		return res.Table().WriteText(&text)
	})
}

func (b *bench) traceSync(ctx context.Context, norm scenario.Spec, o *traceObs) error {
	res, err := runEngine(ctx, norm, nil, o)
	if err != nil {
		return err
	}
	return render(ctx, res)
}

// traceJobs follows the job manager's path: submit, the engine run with
// the manager's trace recorder, result encoding, the two store writes,
// and a re-read of an earlier job that has left the table.
func (b *bench) traceJobs(ctx context.Context, tr *traceRig, norm scenario.Spec, id string, reread bool, o *traceObs) error {
	var job *jobs.Job
	if err := layer(ctx, "jobs.submit", func(context.Context) (err error) {
		job, _, err = tr.mgr.Submit(norm, id, jobs.SubmitOptions{})
		return err
	}); err != nil {
		return err
	}
	// The scratch manager's own run is not timed: the calls below repeat
	// its steps one by one.
	if err := waitJob(job); err != nil {
		return err
	}
	_, meta, _ := job.Result()

	rec := telemetry.NewRecorder(jobTraceSample, norm.Seed)
	res, err := runEngine(ctx, norm, rec, o)
	if err != nil {
		return err
	}
	if err := layer(ctx, "probe.run_no_recorder", func(ctx context.Context) error {
		bare, err := scenario.Run(ctx, norm)
		if err == nil {
			o.probeEngine = bare.EnginePath
		}
		return err
	}); err != nil {
		return err
	}
	if err := render(ctx, res); err != nil {
		return err
	}
	var body []byte
	if err := layer(ctx, "jobs.encode", func(context.Context) (err error) {
		body, _, err = jobs.EncodeResult(id, res, rec.Traces())
		return err
	}); err != nil {
		return err
	}
	rep := report.FromEngine(o.reports)
	rep.JobID, rep.SpecDigest, rep.Scenario = id, id, norm.Scenario
	rep.EnginePath, rep.Seed, rep.N = res.EnginePath, norm.Seed, norm.N
	repBody, err := rep.Canonical().MarshalIndented()
	if err != nil {
		return err
	}
	for _, put := range []struct {
		key  string
		body []byte
	}{{scratchKey(id, "result"), body}, {scratchKey(id, "report"), repBody}} {
		if err := layer(ctx, "store.put", func(context.Context) error {
			_, err := tr.st.Put(put.key, put.body)
			return err
		}); err != nil {
			return err
		}
		o.putBytes = append(o.putBytes, len(put.body))
	}
	if reread {
		old, ok := tr.history.take()
		if !ok {
			return fmt.Errorf("jobs re-read: no queued job")
		}
		if err := layer(ctx, "jobs.reread", func(context.Context) error {
			j, err := tr.mgr.Get(old.id)
			if err != nil {
				return err
			}
			if _, m, ok := j.Result(); !ok || m.ETag() != old.etag {
				return fmt.Errorf("re-read of %s: not the stored result", old.id)
			}
			return nil
		}); err != nil {
			return err
		}
		if err := layer(ctx, "store.get", func(context.Context) error {
			_, _, err := tr.st.Get(old.id)
			return err
		}); err != nil {
			return err
		}
	}
	tr.history.add(jobRef{id: id, etag: meta.ETag()})
	return nil
}

// scratchKey derives a store key next to a job's own, so the timed puts
// write fresh entries as the job's first write does.
func scratchKey(id, what string) string {
	sum := sha256.Sum256([]byte(id + "|trace|" + what))
	return hex.EncodeToString(sum[:])
}

// waitJob blocks until a job is terminal and reports its failure.
func waitJob(j *jobs.Job) error {
	from := 0
	for {
		evs, changed, finished := j.Watch(from)
		from += len(evs)
		if finished {
			break
		}
		<-changed
	}
	if st := j.Status(); st.State != jobs.StateComplete {
		return fmt.Errorf("scratch job %s: %s %s", j.ID, st.State, st.Error)
	}
	return nil
}

// traceCluster follows the coordinator: shard the spec, post the shards
// to the workers concurrently, merge and render. The direct engine runs
// of the shards are a probe inside the shard round trips.
func (b *bench) traceCluster(ctx context.Context, tr *traceRig, c *caller, norm scenario.Spec, i int, o *traceObs) error {
	var specs []scenario.Spec
	if err := layer(ctx, "cluster.shard_specs", func(context.Context) (err error) {
		specs, err = scenario.ShardSpecs(norm, shards)
		return err
	}); err != nil {
		return err
	}
	workers := tr.workers
	results := make([]*scenario.Result, len(specs))
	o.shardBytes = make([]int, len(specs))
	if err := layer(ctx, "cluster.dispatch", func(ctx context.Context) error {
		errs := make([]error, len(specs))
		var wg sync.WaitGroup
		for k := range specs {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				errs[k] = layer(ctx, "cluster.shard_rtt", func(context.Context) (err error) {
					results[k], o.shardBytes[k], err = postShard(c.hc, workers[k%len(workers)], specs[k])
					return err
				})
			}(k)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	var merged *scenario.Result
	if err := layer(ctx, "cluster.merge", func(context.Context) (err error) {
		merged, err = scenario.MergeShardResults(norm, results)
		return err
	}); err != nil {
		return err
	}
	if err := render(ctx, merged); err != nil {
		return err
	}
	o.engine = merged.EnginePath
	for _, sh := range specs {
		if _, err := runEngine(ctx, sh, nil, o); err != nil {
			return err
		}
	}
	// Once per pass, a campaign shard at half the subjects shows how the
	// response grows with n.
	if b.w.example(i) == exCampaign && i < len(b.w.mix) {
		half := specs[0]
		half.N /= 2
		var err error
		if _, o.halfBytes, err = postShard(c.hc, workers[0], half); err != nil {
			return err
		}
	}
	return nil
}

// postShard is one POST /v1/cluster/shard, as the coordinator sends it.
func postShard(hc *http.Client, worker string, spec scenario.Spec) (*scenario.Result, int, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, 0, err
	}
	resp, err := hc.Post(worker+cluster.ShardPath, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, 0, err
	}
	if err := expect(resp.StatusCode, http.StatusOK, "cluster/shard", buf.Bytes()); err != nil {
		return nil, 0, err
	}
	var sr cluster.ShardResponse
	if err := json.Unmarshal(buf.Bytes(), &sr); err != nil {
		return nil, 0, fmt.Errorf("decoding shard response: %w", err)
	}
	return sr.ScenarioResult(spec), buf.Len(), nil
}

// newTraceRig prepares one pass's scratch state under dir.
func (b *bench) newTraceRig(dir string) (*traceRig, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	tr := &traceRig{r: &rig{hc: newHTTPClient(clients)}, st: st,
		mgr: jobs.NewManager(jobs.Config{Store: st, MaxJobs: jobTable})}
	if b.w.door == doorCluster {
		for k := 0; k < shards; k++ {
			tr.workers = append(tr.workers, tr.r.add(server.Config{}))
		}
	}
	return tr, nil
}

// selfTimes returns each span's duration minus the part of its interval
// its children cover; concurrent children (worker batches, shard round
// trips) are merged before subtracting.
func selfTimes(spans []telemetry.SpanRecord) map[uint64]float64 {
	type iv struct{ lo, hi time.Time }
	children := make(map[uint64][]iv)
	for _, s := range spans {
		if s.Parent != 0 {
			end := s.Start.Add(time.Duration(s.DurationSeconds * float64(time.Second)))
			children[s.Parent] = append(children[s.Parent], iv{s.Start, end})
		}
	}
	out := make(map[uint64]float64, len(spans))
	for _, s := range spans {
		lo := s.Start
		hi := lo.Add(time.Duration(s.DurationSeconds * float64(time.Second)))
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].lo.Before(kids[b].lo) })
		var covered time.Duration
		cur := lo
		for _, k := range kids {
			a, z := k.lo, k.hi
			if a.Before(cur) {
				a = cur
			}
			if z.After(hi) {
				z = hi
			}
			if z.After(a) {
				covered += z.Sub(a)
				cur = z
			}
		}
		out[s.ID] = s.DurationSeconds - covered.Seconds()
	}
	return out
}

// opValues returns, for each recorded op that has at least one span named
// name, the total duration of those spans.
func opValues(obs []traceObs, name string) []float64 {
	var out []float64
	for _, o := range obs {
		total, found := 0.0, false
		for _, s := range o.spans {
			if s.Name == name {
				total += s.DurationSeconds
				found = true
			}
		}
		if found {
			out = append(out, total)
		}
	}
	return out
}

// spanValues returns the duration of every span named name.
func spanValues(obs []traceObs, name string) []float64 {
	var out []float64
	for _, o := range obs {
		for _, s := range o.spans {
			if s.Name == name {
				out = append(out, s.DurationSeconds)
			}
		}
	}
	return out
}

// decomposition splits a median op latency into the medians of the
// door's path spans and the residual the path does not cover.
type decomposition struct {
	Example  string             `json:"median_example"`
	Latency  float64            `json:"median_latency_s"`
	Layers   map[string]float64 `json:"path_medians_s"`
	Sum      float64            `json:"path_sum_s"`
	Residual string             `json:"residual"`
	Rest     float64            `json:"residual_s"`
}

func decompose(latency float64, d door, medians map[string]float64) decomposition {
	dec := decomposition{Latency: latency, Layers: make(map[string]float64), Residual: residualName(d)}
	for _, name := range pathSpans[d] {
		dec.Layers[name] = medians[name]
		dec.Sum += medians[name]
	}
	dec.Rest = latency - dec.Sum
	return dec
}
