package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"hitl/internal/cluster"
	"hitl/internal/scenario"
	"hitl/internal/server"
	"hitl/internal/sim"
	"hitl/internal/telemetry"
)

// door is the front door a workload's ops go through.
type door int

const (
	doorSync    door = iota // POST /v1/scenarios/run
	doorJobs                // POST /v1/jobs, stream, result, conditional re-read
	doorCluster             // POST /v1/cluster/run on a coordinator
)

// hitSlot is one entry of the sync-hit working set: an example spelled
// plainly or respelled.
type hitSlot struct {
	example   string
	respelled bool
}

// clients is every workload's closed-loop client count. One client keeps
// an op's latency its own; with two, a mixed workload's latency also
// depends on which op of the mix the other client overlaps, which on a
// 2-CPU box doubled the run-to-run spread of every timing; on sync-hit's
// single P two clients could only take turns.
const clients = 1

// workload is one traffic mix. Every op is a closed-loop request from one
// of clients goroutines; its spec is a pure function of the workload
// seed, the op's stream and its index.
type workload struct {
	name string
	door door
	// procs, when set, is the GOMAXPROCS the run uses. A cache hit is a
	// serial request path of about 0.1 ms; spread over two Ps it also
	// hands each request between the CPUs, and on a shared VM host it ran
	// 60-130 µs from second to second as the host loaded either CPU. On
	// one P the hit path is the whole op, and the run's fastest stretches
	// read within a few percent of each other from run to run.
	procs int
	// mix lists the example each op runs, cycled by op index. Costs
	// differ by an order of magnitude between examples, so each mix is
	// weighted to keep p50 and p95 away from the boundary between two
	// examples' cost classes (see the comment on each).
	mix []string
	// n overrides the examples' subject counts; 0 keeps their own.
	n int
	// hitSlots, when set, makes ops cycle a warmed working set of
	// len(hitSlots) × hitSeeds bodies instead of sending fresh specs.
	hitSlots []hitSlot
	// warmOps is how many ops one warm-up pass sends (0: one pass of mix
	// or the whole working set).
	warmOps int
	// traceOps is how many ops the traced pass records.
	traceOps int
	// maxRate bounds ops/s, only to size the op record before the window.
	maxRate int
}

// hitSeeds is how many seeds of each example the sync-hit working set
// holds.
const hitSeeds = 8

// jobBacklog is how many completed jobs the jobs-persist warm-up queues
// for re-reads, and jobTable the job-table bound. Every later op re-reads
// the oldest queued job and queues its own, so a re-read job is at least
// jobBacklog-clients completions old; those completions' submissions and
// re-reads have pushed it out of a table of jobTable entries, and the
// re-read goes through the store.
const (
	jobBacklog = 48
	jobTable   = 32
)

// clusterWorkers are the names the coordinator knows its two workers by.
// It places shards on a hash ring of worker URLs, and httptest listens on
// a fresh port every run; under fixed names the placement, and so which
// shards each worker's result cache holds when live_heap_bytes is read,
// depends on the seed alone. These two split the ring 52:48, so both
// caches fill.
var clusterWorkers = []string{"worker-east", "worker-west"}

// jobTraceSample matches the job manager's default trace reservoir, which
// the reference run must reproduce to take the same engine path.
const jobTraceSample = 8

var workloads = []workload{
	{
		name: "sync-miss", door: doorSync, n: 5000,
		// Cost order at n=5000: analytic < compiled < portfolio <
		// campaign < sweep < adaptive. Sending campaign twice puts it at
		// 43-71% of ops, so p50 lands inside it; adaptive holds the top
		// 14%, so p95 lands inside it.
		mix:      []string{exExpirySweep, exCampaign, exPortfolio, exAdaptive, exCampaign, exStudyMean, exStudy},
		traceOps: 28, maxRate: 2000,
	},
	{
		name: "sync-hit", door: doorSync, procs: 1,
		// 13 bodies per seed: an odd count keeps p50 off a class boundary
		// whatever the hit costs' order.
		hitSlots: []hitSlot{
			{exExpirySweep, false}, {exExpirySweep, true},
			{exPortfolio, false}, {exPortfolio, true},
			{exAdaptive, false}, {exAdaptive, true},
			{exCampaign, false}, {exCampaign, true}, {exCampaign, false},
			{exStudyMean, false}, {exStudyMean, true},
			{exStudy, false}, {exStudy, true},
		},
		traceOps: 104, maxRate: 40000,
	},
	{
		name: "jobs-persist", door: doorJobs, n: 200,
		// Two portfolio jobs per study job: p50 falls inside the cheaper
		// portfolio class (0-67% of ops), p95 inside the study class.
		mix:     []string{exStudy, exPortfolio, exPortfolio},
		warmOps: jobBacklog, traceOps: 24, maxRate: 2000,
	},
	{
		name: "cluster-2worker", door: doorCluster, n: 20000,
		// Six compiled study runs per interpreted campaign run: p50 falls
		// inside the study class (0-86% of ops), p95 inside the campaign
		// class. A campaign op costs about eight study ops, so the 200 ops
		// the p95 needs, and their reference runs, take 40% less time than
		// with a campaign in every three ops.
		mix:      []string{exStudy, exStudy, exStudy, exCampaign, exStudy, exStudy, exStudy},
		traceOps: 14, maxRate: 500,
	},
}

func workloadNamed(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// bench is one benchmark run: a workload, its seed and generated inputs.
type bench struct {
	w        workload
	seed     int64
	examples map[string]scenario.Spec
	tmp      string // scratch directory inside the checkout

	// workingSet holds the sync-hit bodies, by slot.
	workingSet [][]byte

	errMu sync.Mutex
	errs  []string // first few failure messages, for stderr
}

// buildWorkingSet renders the sync-hit bodies: every hit slot for every
// working-set seed.
func (b *bench) buildWorkingSet() error {
	for s := 0; s < hitSeeds; s++ {
		seed := opSeed(b.seed, streamWorkingSet, s)
		for _, slot := range b.w.hitSlots {
			sp := specOf(b.examples, slot.example, seed, b.w.n)
			var body []byte
			var err error
			if slot.respelled {
				body, err = respell(sp)
			} else {
				body, err = json.Marshal(sp)
			}
			if err != nil {
				return fmt.Errorf("working set %s: %w", slot.example, err)
			}
			b.workingSet = append(b.workingSet, body)
		}
	}
	return nil
}

// example names the example op i runs.
func (w workload) example(i int) string {
	if w.hitSlots != nil {
		return w.hitSlots[i%len(w.hitSlots)].example
	}
	return w.mix[i%len(w.mix)]
}

// body returns the request body of op i of a stream.
func (b *bench) body(stream, i int) ([]byte, error) {
	if b.w.hitSlots != nil {
		return b.workingSet[i%len(b.workingSet)], nil
	}
	return json.Marshal(specOf(b.examples, b.w.example(i), opSeed(b.seed, stream, i), b.w.n))
}

// normalized parses and normalizes a request body the way the server's
// decode path does.
func normalized(body []byte) (scenario.Spec, error) {
	sp, err := scenario.ParseSpec(bytes.NewReader(body))
	if err != nil {
		return scenario.Spec{}, err
	}
	norm, err := scenario.Normalize(sp)
	if err != nil {
		return scenario.Spec{}, err
	}
	norm.Workers = 0
	return norm, nil
}

func (b *bench) noteErr(what string, err error) {
	b.errMu.Lock()
	defer b.errMu.Unlock()
	if len(b.errs) < 5 {
		b.errs = append(b.errs, what+": "+err.Error())
	}
}

// rig is one set-up of the system under test: the in-process servers on
// real loopback listeners, and the client side's HTTP client.
type rig struct {
	front   string   // URL of the server the clients call
	urls    []string // every server, front first, for scraping
	servers []*server.Server
	https   []*httptest.Server
	hc      *http.Client
	history jobHistory
	// warm holds, for sync-hit, the body served for each working-set slot
	// during warm-up; timed ops must be served the same bytes.
	warm [][]byte
}

func quietLogger() *slog.Logger { return slog.New(slog.NewTextHandler(io.Discard, nil)) }

// newRig builds the servers of one set-up. k numbers the set-up, so each
// gets a fresh store directory.
func (b *bench) newRig(k int) *rig {
	r := &rig{hc: newHTTPClient(clients)}
	switch b.w.door {
	case doorSync:
		r.front = r.add(server.Config{})
		r.urls = []string{r.front}
	case doorJobs:
		r.front = r.add(server.Config{
			StoreDir: filepath.Join(b.tmp, fmt.Sprintf("store-%d", k)),
			MaxJobs:  jobTable,
		})
		r.urls = []string{r.front}
	case doorCluster:
		var workers, names []string
		addrs := make(map[string]string)
		for _, name := range clusterWorkers {
			u := r.add(server.Config{})
			workers = append(workers, u)
			names = append(names, "http://"+name)
			addrs[name+":80"] = strings.TrimPrefix(u, "http://")
		}
		r.front = r.add(server.Config{Cluster: cluster.Config{Workers: names, Client: dialByName(addrs)}})
		r.urls = append([]string{r.front}, workers...)
	}
	if b.w.hitSlots != nil {
		r.warm = make([][]byte, len(b.workingSet))
	}
	return r
}

// add starts an in-process server on a loopback listener and returns its
// URL.
func (r *rig) add(cfg server.Config) string {
	cfg.Logger = quietLogger()
	s := server.New(cfg)
	ts := httptest.NewServer(s)
	r.servers = append(r.servers, s)
	r.https = append(r.https, ts)
	return ts.URL
}

// close shuts the rig down, front door first, and waits for its
// goroutines' requests to end.
func (r *rig) close() {
	for i := len(r.https) - 1; i >= 0; i-- {
		r.https[i].Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		_ = r.servers[i].WaitJobs(ctx) // every op already waited for its job
		cancel()
		r.servers[i].Close()
	}
	r.hc.CloseIdleConnections()
}

// warm runs one warm-up pass through the closed loop. It fails on any
// failed op: a set-up that cannot serve its own mix measures nothing.
func (b *bench) warm(r *rig) error {
	n := b.w.warmOps
	switch {
	case n > 0:
	case b.w.hitSlots != nil:
		n = len(b.workingSet)
	default:
		n = len(b.w.mix)
	}
	recs := make([]opRec, n)
	callers := b.callers(r)
	closedLoop(clients, 0, n, n, func(c, i int) { b.do(r, callers[c], streamWarm, i, &recs[i]) })
	for i := range recs {
		if recs[i].fail != 0 {
			return fmt.Errorf("warm-up op %d (%s) failed", i, b.w.example(i))
		}
	}
	return nil
}

func (b *bench) callers(r *rig) []*caller {
	out := make([]*caller, clients)
	for i := range out {
		out[i] = &caller{hc: r.hc}
	}
	return out
}

// Failure classes of an op.
const (
	failNone uint8 = iota
	failTransport
	failStatus
	failShed
	failBody
	failMismatch
)

// Engine paths as recorded per op.
const (
	engUnknown uint8 = iota
	engInterpreted
	engCompiled
	engAnalytic
	engMixed
)

var engineNames = []string{"", sim.EngineInterpreted, sim.EngineCompiled, sim.EngineAnalytic, scenario.EngineMixed}

func engineCode(s string) uint8 {
	for i, n := range engineNames {
		if i > 0 && n == s {
			return uint8(i)
		}
	}
	return engUnknown
}

// statusFail classifies an unexpected status; 429 is a shed.
func statusFail(status int) uint8 {
	if status == http.StatusTooManyRequests {
		return failShed
	}
	return failStatus
}

// do runs op i of a stream through the workload's front door and records
// it in rec. Only the requests are timed; checking the answer happens
// after the latency is taken.
func (b *bench) do(r *rig, c *caller, stream, i int, rec *opRec) {
	body, err := b.body(stream, i)
	if err != nil {
		rec.fail = failBody
		b.noteErr("generating op", err)
		return
	}
	var fail uint8
	switch b.w.door {
	case doorSync:
		fail, err = b.doSync(r, c, body, rec)
	case doorJobs:
		fail, err = b.doJobs(r, c, body, stream != streamWarm, rec)
	case doorCluster:
		fail, err = b.doCluster(r, c, body, rec)
	}
	if err != nil {
		rec.fail = fail
		b.noteErr(fmt.Sprintf("op %d (%s)", i, b.w.example(i)), err)
		return
	}
	rec.bytes = int32(c.buf.Len())
	if b.w.hitSlots == nil {
		sum, engine, err := resultSum(c.buf.Bytes())
		if err != nil {
			rec.fail = failBody
			b.noteErr(fmt.Sprintf("op %d (%s)", i, b.w.example(i)), err)
			return
		}
		rec.sum, rec.engine = sum, engineCode(engine)
		return
	}
	slot := i % len(b.workingSet)
	rec.slot = int32(slot)
	if r.warm[slot] == nil {
		r.warm[slot] = append([]byte(nil), c.buf.Bytes()...)
		return
	}
	if !bytes.Equal(c.buf.Bytes(), r.warm[slot]) {
		rec.fail = failBody
		b.noteErr(fmt.Sprintf("op %d (%s)", i, b.w.example(i)), fmt.Errorf("hit body differs from the warm-up body"))
	}
}

func (b *bench) doSync(r *rig, c *caller, body []byte, rec *opRec) (uint8, error) {
	start := time.Now()
	status, hdr, err := c.call(http.MethodPost, r.front+"/v1/scenarios/run", body, "", &c.buf)
	rec.lat = time.Since(start).Seconds()
	if err != nil {
		return failTransport, err
	}
	if err := expect(status, http.StatusOK, "scenarios/run", c.buf.Bytes()); err != nil {
		return statusFail(status), err
	}
	rec.hit = hdr.Get("X-Cache") == "hit"
	return failNone, nil
}

func (b *bench) doCluster(r *rig, c *caller, body []byte, rec *opRec) (uint8, error) {
	start := time.Now()
	status, _, err := c.call(http.MethodPost, r.front+"/v1/cluster/run", body, "", &c.buf)
	rec.lat = time.Since(start).Seconds()
	if err != nil {
		return failTransport, err
	}
	if err := expect(status, http.StatusOK, "cluster/run", c.buf.Bytes()); err != nil {
		return statusFail(status), err
	}
	return failNone, nil
}

// doJobs submits a job, follows its stream to the done event, reads the
// result, then, unless warming up, re-reads an earlier job's result
// conditionally. That job has left the job table, so the 304 is answered
// through the store.
func (b *bench) doJobs(r *rig, c *caller, body []byte, reread bool, rec *opRec) (uint8, error) {
	start := time.Now()
	status, _, err := c.call(http.MethodPost, r.front+"/v1/jobs", body, "", &c.aux)
	if err != nil {
		return failTransport, err
	}
	if err := expect(status, http.StatusAccepted, "jobs submit", c.aux.Bytes()); err != nil {
		return statusFail(status), err
	}
	var st struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(c.aux.Bytes(), &st); err != nil || st.ID == "" {
		return failBody, fmt.Errorf("jobs submit: no job id in %q", c.aux.String())
	}
	jobURL := r.front + "/v1/jobs/" + st.ID
	status, _, err = c.call(http.MethodGet, jobURL+"/stream", nil, "", &c.aux)
	if err != nil {
		return failTransport, err
	}
	if err := expect(status, http.StatusOK, "jobs stream", c.aux.Bytes()); err != nil {
		return statusFail(status), err
	}
	if err := streamDone(c.aux.Bytes()); err != nil {
		return failBody, err
	}
	status, hdr, err := c.call(http.MethodGet, jobURL+"/result", nil, "", &c.buf)
	if err != nil {
		return failTransport, err
	}
	if err := expect(status, http.StatusOK, "jobs result", c.buf.Bytes()); err != nil {
		return statusFail(status), err
	}
	ref := jobRef{id: st.ID, etag: hdr.Get("ETag")}
	if reread {
		old, ok := r.history.take()
		if !ok {
			return failBody, fmt.Errorf("jobs re-read: no queued job")
		}
		status, _, err = c.call(http.MethodGet, r.front+"/v1/jobs/"+old.id+"/result", nil, old.etag, &c.aux)
		if err != nil {
			return failTransport, err
		}
		if err := expect(status, http.StatusNotModified, "jobs re-read", c.aux.Bytes()); err != nil {
			return statusFail(status), err
		}
	}
	rec.lat = time.Since(start).Seconds()
	r.history.add(ref)
	return failNone, nil
}

// streamDone checks that a job's JSONL stream ended with its done event.
func streamDone(stream []byte) error {
	lines := strings.Split(strings.TrimSpace(string(stream)), "\n")
	var last struct {
		Type  string `json:"type"`
		Error string `json:"error"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		return fmt.Errorf("jobs stream: last line: %w", err)
	}
	if last.Type != "done" {
		return fmt.Errorf("jobs stream ended with %q %s", last.Type, last.Error)
	}
	return nil
}

// jobRef names a completed job and the ETag of its result.
type jobRef struct{ id, etag string }

// jobHistory queues completed jobs for re-reads, oldest first.
type jobHistory struct {
	mu   sync.Mutex
	done []jobRef
}

func (h *jobHistory) add(r jobRef) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.done = append(h.done, r)
}

// take removes and returns the oldest queued job.
func (h *jobHistory) take() (jobRef, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.done) == 0 {
		return jobRef{}, false
	}
	r := h.done[0]
	h.done = append(h.done[:0], h.done[1:]...)
	return r, true
}

// reference is what a direct scenario.Run of an op's spec says the op
// must answer, and the engine work it takes.
type reference struct {
	sum      [32]byte
	engine   uint8
	runs     int
	subjects int
}

// reference runs norm directly, with the context the front door's engine
// run gets: the job manager attaches its trace recorder, which decides
// the engine path.
func (b *bench) reference(norm scenario.Spec) (reference, error) {
	col := sim.NewReportCollector()
	ctx := sim.WithReportCollector(context.Background(), col)
	if b.w.door == doorJobs {
		ctx = telemetry.WithRecorder(ctx, telemetry.NewRecorder(jobTraceSample, norm.Seed))
	}
	res, err := scenario.Run(ctx, norm)
	if err != nil {
		return reference{}, err
	}
	sum, err := referenceSum(res)
	if err != nil {
		return reference{}, err
	}
	ref := reference{sum: sum, engine: engineCode(res.EnginePath)}
	for _, er := range col.Reports() {
		ref.runs++
		ref.subjects += er.Completed
	}
	return ref, nil
}

// shards is the shard count the coordinator uses: one per worker.
const shards = 2

// expectedCounters derives every counter delta the window's ops imply.
// refs holds the reference of each op that computed (nil for sync-hit,
// whose ops are all cache hits).
func (b *bench) expectedCounters(ops int, refs []reference) map[string]int64 {
	var runs, subjects int64
	for _, r := range refs {
		runs += int64(r.runs)
		subjects += int64(r.subjects)
	}
	want := make(map[string]int64, len(counterNames))
	for _, name := range counterNames {
		want[name] = 0
	}
	n := int64(ops)
	switch {
	case b.w.hitSlots != nil:
		want["hitl_server_cache_hits"] = n
	case b.w.door == doorSync:
		want["hitl_server_cache_misses"] = n
		want["hitl_sim_runs_total"] = runs
		want["hitl_sim_subjects_total"] = subjects
	case b.w.door == doorJobs:
		want["hitl_sim_runs_total"] = runs
		want["hitl_sim_subjects_total"] = subjects
		want["hitl_store_writes_total"] = 2 * n // result and report
		want["hitl_store_hits_total"] = 2 * n   // re-read result and report
	case b.w.door == doorCluster:
		want["hitl_sim_runs_total"] = shards * runs // every shard runs every condition
		want["hitl_sim_subjects_total"] = subjects
		want["hitl_server_cache_misses"] = shards * n // each shard misses its worker's cache
		want["hitl_cluster_shards_dispatched_total"] = shards * n
	}
	return want
}
