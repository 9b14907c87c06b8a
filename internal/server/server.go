// Package server exposes the hitl library over a JSON HTTP API, so that
// non-Go tooling (dashboards, CI checks, design linters) can submit system
// specs for checklist analysis, run the mitigation process, ask for design
// patterns, and regenerate experiments.
//
// Endpoints (all JSON unless noted):
//
//	GET  /v1/healthz          liveness probe
//	GET  /v1/metrics          Prometheus text-format runtime telemetry
//	GET  /v1/components       the Table 1 component registry
//	GET  /v1/patterns         the §5 design-pattern catalog (metadata)
//	GET  /v1/experiments      the experiment registry
//	GET  /v1/scenarios        the scenario registry with parameter schemas
//	GET  /v1/populations      the population presets with trait dimensions
//	POST /v1/analyze          SystemSpec -> findings + reliability
//	POST /v1/process          SystemSpec -> Figure 2 process result
//	POST /v1/recommend        SystemSpec -> gain-ranked pattern advice
//	POST /v1/experiments/run  {id, seed, n} -> metrics + rendered text;
//	     ?trace_sample=K inlines K sampled per-subject stage traces and
//	     ?spans=1 inlines the request's telemetry span tree
//	POST /v1/scenarios/run    declarative scenario spec -> points + metrics;
//	     validation failures are 400 with the offending field's JSON path,
//	     ?trace_sample / ?spans / ?faults work as on /v1/experiments/run,
//	     and ?report=1 inlines a RunReport (phase wall times, stage
//	     attribution, fault stats — all from this run's own engine runs)
//	POST /v1/jobs             scenario spec -> async job keyed by the spec's
//	     canonical digest; identical concurrent submissions coalesce onto
//	     one computation (singleflight); ?faults= (gated) runs a fault
//	     variant under its own derived job ID
//	GET  /v1/jobs/{id}         job status and sweep progress
//	GET  /v1/jobs/{id}/result  completed result; strong ETag, If-None-Match
//	     answers 304, and with Config.StoreDir results survive restarts
//	GET  /v1/jobs/{id}/report  the job's persisted RunReport (canonicalized:
//	     bit-identical at any worker count); same ETag/304 discipline
//	GET  /v1/jobs/{id}/stream  chunked JSONL of points and sampled traces
//	GET  /v1/debug/events      the in-process flight recorder ring (JSON),
//	     filterable with ?kind=a,b and pageable with ?since=<seq>
//	POST /v1/cluster/shard     one shard spec -> raw aggregates for a
//	     coordinator to merge; every server is a shard worker
//	POST /v1/cluster/run       scenario spec -> a run sharded across the
//	     worker pool (Config.Cluster), bit-identical to a local run;
//	     ?shards=K, ?partial=1, ?report=1; complete results are adopted
//	     by the job store unless a job already owns the digest
//	GET  /v1/cluster/nodes     the coordinator's health view of its pool
//
// Every scenario door — sync run, job, cluster run and shard — decodes and
// normalizes its spec once and digests it once (decodeScenarioSpec), then
// runs it through the one execution seam, scenario.Execute, which wires
// faults, trace sampling, spans and the run report into the run.
//
// Experiment and process runs are deterministic in their inputs, so their
// 200 responses are kept in a bounded LRU result cache (Config.CacheSize;
// disabled with a negative size). Responses to cacheable requests carry an
// X-Cache: hit|miss header, requests that inline per-request telemetry
// (?trace_sample, ?spans=1) bypass the cache, and /v1/metrics exposes
// hitl_server_cache_{hits,misses,evictions}.
//
// Requests are size-limited and run with a per-request subject-count cap so
// a single call cannot monopolize the process. Every response carries an
// X-Request-ID header (honoring a client-supplied one) that also appears in
// the structured access log. Handlers run under the request context:
// a client that disconnects or times out cancels its in-flight Monte Carlo
// work, reported as HTTP 499 in logs and metrics.
//
// Overload protection: compute endpoints (the POST handlers) pass through
// bounded admission — Config.MaxInFlight concurrent requests, at most
// Config.MaxQueue waiters, each waiting at most Config.QueueTimeout.
// Requests beyond those bounds are shed with 429 + Retry-After instead of
// queuing unboundedly. Admitted requests run under a per-request compute
// deadline (Config.ComputeTimeout, 503 on expiry). Any shed latches
// degraded mode for Config.DegradeWindow: experiment subject counts are
// clamped to Config.DegradedMaxSubjects and responses carry X-Degraded.
// Degraded responses never enter the result cache. /v1/metrics exposes
// hitl_server_shed_total, queue_depth, degraded, and compute-deadline
// counters; /v1/healthz reports 503 draining after SetDraining so load
// balancers stop routing before graceful shutdown's drain deadline.
//
// When Config.AllowFaults is set, every compute door that runs Monte Carlo
// work — /v1/experiments/run, /v1/scenarios/run, /v1/jobs and
// /v1/cluster/shard — accepts a ?faults=<spec> parameter (internal/faults
// grammar) that perturbs the run deterministically, for chaos drills
// against a real server. Faulted responses carry X-Faults and bypass the
// cache; faulted jobs run under their own variant ID.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"hitl/internal/cluster"
	"hitl/internal/core"
	"hitl/internal/experiments"
	"hitl/internal/faults"
	"hitl/internal/jobs"
	"hitl/internal/patterns"
	"hitl/internal/scenario"
	"hitl/internal/store"
	"hitl/internal/telemetry"
)

// statusClientClosedRequest is the non-standard (nginx-convention) status
// for "the client went away before we finished". It keeps abandoned work
// distinguishable from real failures in logs and metrics.
const statusClientClosedRequest = 499

// defaultProcessPasses mirrors core.ProcessOptions' documented default so
// the handler can report the effective pass count when none was requested.
const defaultProcessPasses = 2

// Config bounds the server's work.
type Config struct {
	// MaxBodyBytes caps request bodies; default 1 MiB.
	MaxBodyBytes int64
	// MaxSubjects caps the per-arm subject count for experiment runs;
	// default 20000.
	MaxSubjects int
	// MaxProcessPasses caps the Figure 2 iteration count; default 4.
	MaxProcessPasses int
	// MaxTraceSample caps the ?trace_sample=K reservoir size on experiment
	// runs, bounding the inline trace payload; default 50.
	MaxTraceSample int
	// CacheSize bounds the deterministic result cache (entries). Repeated
	// /v1/experiments/run and /v1/process requests with identical inputs
	// are answered from memory; responses carry an X-Cache hit/miss
	// header. 0 means the default (128); negative disables caching.
	CacheSize int
	// CacheMaxBytes bounds the total bytes of cached response bodies, so
	// one multi-megabyte sweep body cannot masquerade as a single cheap
	// entry. 0 means the default (64 MiB); negative disables the byte
	// bound (entry count only).
	CacheMaxBytes int64
	// MaxInFlight caps concurrently executing compute (POST) requests.
	// 0 means the default (2x GOMAXPROCS, at least 4); negative disables
	// admission control entirely.
	MaxInFlight int
	// MaxQueue caps compute requests waiting for an in-flight slot. 0 means
	// the default (4x MaxInFlight); negative means no queue — saturated
	// slots shed immediately.
	MaxQueue int
	// QueueTimeout bounds how long a compute request may wait for a slot
	// before being shed with 429; default 2s.
	QueueTimeout time.Duration
	// ComputeTimeout is the per-request compute deadline for admitted
	// requests; expiry reports 503. 0 means the default (60s); negative
	// disables the deadline.
	ComputeTimeout time.Duration
	// DegradeWindow is how long degraded mode persists after the most
	// recent shed; default 10s.
	DegradeWindow time.Duration
	// DegradedMaxSubjects clamps experiment subject counts while degraded.
	// 0 means the default (MaxSubjects/8, at least 1).
	DegradedMaxSubjects int
	// AllowFaults enables the ?faults= query parameter on experiment runs.
	// Off by default: fault injection is an operator drill, not a public
	// API surface.
	AllowFaults bool
	// StoreDir roots the persistent content-addressed result store backing
	// the async job API. Empty means memory-only: jobs work, but completed
	// results do not survive a restart.
	StoreDir string
	// JobWorkers caps concurrently executing jobs; 0 means the manager
	// default (2).
	JobWorkers int
	// JobTimeout bounds one job's compute; 0 means the manager default
	// (10 minutes), negative disables.
	JobTimeout time.Duration
	// JobTraceSample is how many subject traces each job samples into its
	// stream and stored result; 0 means the manager default (8), negative
	// disables.
	JobTraceSample int
	// MaxJobs bounds the in-memory job table; 0 means the manager default
	// (256). Overflow of live (pending/running) jobs is shed with 429.
	MaxJobs int
	// Cluster configures the coordinator role. When Cluster.Workers is
	// non-empty the server builds a cluster.Coordinator over that pool,
	// starts its health prober, and mounts POST /v1/cluster/run; without
	// workers the endpoint answers 503. Every server is always a shard
	// worker (POST /v1/cluster/shard), coordinator or not.
	Cluster cluster.Config
	// Logger receives structured access logs; default logs to stderr.
	Logger *slog.Logger
}

func (c *Config) setDefaults() {
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.MaxSubjects == 0 {
		c.MaxSubjects = 20000
	}
	if c.MaxProcessPasses == 0 {
		c.MaxProcessPasses = 4
	}
	if c.MaxTraceSample == 0 {
		c.MaxTraceSample = 50
	}
	if c.CacheSize == 0 {
		c.CacheSize = 128
	}
	if c.CacheMaxBytes == 0 {
		c.CacheMaxBytes = 64 << 20
	}
	if c.MaxInFlight == 0 {
		c.MaxInFlight = 2 * runtime.GOMAXPROCS(0)
		if c.MaxInFlight < 4 {
			c.MaxInFlight = 4
		}
	}
	if c.MaxQueue == 0 && c.MaxInFlight > 0 {
		c.MaxQueue = 4 * c.MaxInFlight
	}
	if c.QueueTimeout == 0 {
		c.QueueTimeout = 2 * time.Second
	}
	if c.ComputeTimeout == 0 {
		c.ComputeTimeout = 60 * time.Second
	}
	if c.DegradeWindow == 0 {
		c.DegradeWindow = 10 * time.Second
	}
	if c.DegradedMaxSubjects == 0 {
		c.DegradedMaxSubjects = c.MaxSubjects / 8
		if c.DegradedMaxSubjects < 1 {
			c.DegradedMaxSubjects = 1
		}
	}
}

// Server is the HTTP handler set.
type Server struct {
	cfg        Config
	mux        *http.ServeMux
	metrics    *metricsRegistry
	cache      *resultCache // nil when disabled
	overload   *overload
	store      *store.Store // nil when StoreDir is empty or unopenable
	jobs       *jobs.Manager
	coord      *cluster.Coordinator // nil unless Cluster.Workers configured
	retryAfter string               // Retry-After seconds advertised on shed
	draining   atomic.Bool
	log        *slog.Logger
}

// New creates a server with the config.
func New(cfg Config) *Server {
	cfg.setDefaults()
	log := cfg.Logger
	if log == nil {
		log = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	s := &Server{cfg: cfg, mux: http.NewServeMux(), metrics: newMetricsRegistry(), log: log}
	if cfg.CacheSize > 0 {
		s.cache = newResultCache(cfg.CacheSize, cfg.CacheMaxBytes)
	}
	s.overload = newOverload(cfg.MaxInFlight, cfg.MaxQueue, cfg.QueueTimeout, cfg.DegradeWindow)
	if cfg.StoreDir != "" {
		st, err := store.Open(cfg.StoreDir)
		if err != nil {
			// A broken store directory degrades to memory-only jobs rather
			// than refusing to serve: the synchronous API is unaffected and
			// the job API still works, just without restart survival.
			log.Warn("result store unavailable; jobs run memory-only",
				slog.String("dir", cfg.StoreDir), slog.String("error", err.Error()))
		} else {
			s.store = st
		}
	}
	s.jobs = jobs.NewManager(jobs.Config{
		Store:       s.store,
		Workers:     cfg.JobWorkers,
		Timeout:     cfg.JobTimeout,
		TraceSample: cfg.JobTraceSample,
		MaxJobs:     cfg.MaxJobs,
	})
	// A shed client retrying after the queue deadline has a fresh full
	// wait ahead of it; round the hint up to whole seconds, at least 1.
	retrySecs := int64((cfg.QueueTimeout + time.Second - 1) / time.Second)
	if retrySecs < 1 {
		retrySecs = 1
	}
	s.retryAfter = strconv.FormatInt(retrySecs, 10)
	s.route("/v1/healthz", s.handleHealthz, http.MethodGet)
	s.route("/v1/metrics", s.handleMetrics, http.MethodGet)
	s.route("/v1/components", s.handleComponents, http.MethodGet)
	s.route("/v1/patterns", s.handlePatterns, http.MethodGet)
	s.route("/v1/experiments", s.handleExperimentList, http.MethodGet)
	s.route("/v1/experiments/run", s.limited(s.handleExperimentRun), http.MethodPost)
	s.route("/v1/scenarios", s.handleScenarioList, http.MethodGet)
	s.route("/v1/populations", s.handlePopulationList, http.MethodGet)
	s.route("/v1/scenarios/run", s.limited(s.handleScenarioRun), http.MethodPost)
	s.route("/v1/analyze", s.limited(s.handleAnalyze), http.MethodPost)
	s.route("/v1/process", s.limited(s.handleProcess), http.MethodPost)
	s.route("/v1/recommend", s.limited(s.handleRecommend), http.MethodPost)
	s.route("/v1/jobs", s.handleJobSubmit, http.MethodPost)
	s.route("/v1/jobs/{id}", s.handleJobStatus, http.MethodGet)
	s.route("/v1/jobs/{id}/result", s.handleJobResult, http.MethodGet)
	s.route("/v1/jobs/{id}/report", s.handleJobReport, http.MethodGet)
	s.route("/v1/jobs/{id}/stream", s.handleJobStream, http.MethodGet)
	s.route("/v1/debug/events", s.handleDebugEvents, http.MethodGet)
	s.route("/v1/cluster/shard", s.limited(s.handleClusterShard), http.MethodPost)
	s.route("/v1/cluster/run", s.limited(s.handleClusterRun), http.MethodPost)
	s.route("/v1/cluster/nodes", s.handleClusterNodes, http.MethodGet)
	if len(cfg.Cluster.Workers) > 0 {
		coord, err := cluster.New(cfg.Cluster)
		if err != nil {
			// A bad pool config degrades to worker-only rather than
			// refusing to serve: every other endpoint is unaffected.
			log.Warn("cluster coordinator disabled", slog.String("error", err.Error()))
		} else {
			s.coord = coord
			coord.Start()
		}
	}
	return s
}

// Close releases background resources — today the cluster coordinator's
// health prober. The HTTP handler itself holds no connections.
func (s *Server) Close() {
	if s.coord != nil {
		s.coord.Close()
	}
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// SetDraining flips /v1/healthz to 503 "draining" so load balancers stop
// routing new work here, and stops accepting new job submissions. Call it
// when graceful shutdown begins, before the drain deadline starts
// counting; in-flight and queued requests — and already-accepted jobs —
// still finish normally.
func (s *Server) SetDraining() {
	s.draining.Store(true)
	s.jobs.Drain()
}

// WaitJobs blocks until every accepted job has reached a terminal state,
// or ctx expires. Pair with SetDraining during graceful shutdown so a
// persisted store holds every result the API acknowledged with 202.
func (s *Server) WaitJobs(ctx context.Context) error { return s.jobs.Wait(ctx) }

// computeDeadlineKey marks request contexts that run under the
// per-request compute deadline, so handlers can tell deadline expiry (503)
// apart from a client that went away (499).
const computeDeadlineKey ctxKey = 1

// computeDeadlineExpired reports whether ctx carries the compute deadline
// and that deadline has passed.
func computeDeadlineExpired(ctx context.Context) bool {
	return ctx.Value(computeDeadlineKey) != nil && errors.Is(ctx.Err(), context.DeadlineExceeded)
}

// limited wraps a compute handler with admission control and the
// per-request compute deadline. Shed requests get 429 + Retry-After and
// never reach the handler; clients that disconnect while queued get 499.
func (s *Server) limited(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		release, err := s.overload.acquire(r.Context())
		switch {
		case errors.Is(err, errShed):
			telemetry.Flight.Record(telemetry.EventRequestShed, r.Method+" "+r.URL.Path)
			w.Header().Set("Retry-After", s.retryAfter)
			writeErr(w, http.StatusTooManyRequests, err)
			return
		case err != nil:
			writeErr(w, statusClientClosedRequest, err)
			return
		}
		defer release()
		telemetry.Flight.Record(telemetry.EventRequestAdmitted, r.Method+" "+r.URL.Path)
		if s.cfg.ComputeTimeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), s.cfg.ComputeTimeout)
			defer cancel()
			r = r.WithContext(context.WithValue(ctx, computeDeadlineKey, true))
		}
		h(w, r)
	}
}

// errorBody is the error envelope.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // response already committed; nothing useful to do on error
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorBody{Error: err.Error()})
}

// decodeSpec reads a SystemSpec request body. Method enforcement happens
// in the route middleware.
func (s *Server) decodeSpec(w http.ResponseWriter, r *http.Request) (core.SystemSpec, bool) {
	var spec core.SystemSpec
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeErr(w, decodeStatus(err), fmt.Errorf("decoding spec: %w", err))
		return spec, false
	}
	if err := spec.Validate(); err != nil {
		writeErr(w, http.StatusUnprocessableEntity, err)
		return spec, false
	}
	return spec, true
}

// faultsFromQuery resolves the ?faults= query parameter for a compute
// handler: it enforces the Config.AllowFaults gate (403), rejects
// malformed specs (400), and advertises active injection via X-Faults.
// ok=false means a response has already been written.
func (s *Server) faultsFromQuery(w http.ResponseWriter, r *http.Request) (*faults.Set, bool) {
	q := r.URL.Query().Get("faults")
	if q == "" {
		return nil, true
	}
	if !s.cfg.AllowFaults {
		writeErr(w, http.StatusForbidden,
			errors.New("fault injection is disabled on this server (Config.AllowFaults)"))
		return nil, false
	}
	set, err := faults.Parse(q)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return nil, false
	}
	if set.Empty() {
		return nil, true
	}
	w.Header().Set("X-Faults", set.String())
	return set, true
}

// runOptions decodes the run attachments the synchronous compute doors
// (/v1/scenarios/run, /v1/experiments/run) take from the query: ?faults=
// (see faultsFromQuery) and ?trace_sample=K, K >= 1, capped at
// MaxTraceSample. Spans are always recorded — they feed
// hitl_span_duration_seconds — whether or not ?spans=1 inlines them.
// ok=false means a response has already been written.
func (s *Server) runOptions(w http.ResponseWriter, r *http.Request) (scenario.Options, bool) {
	set, ok := s.faultsFromQuery(w, r)
	if !ok {
		return scenario.Options{}, false
	}
	opts := scenario.Options{Faults: set, Spans: true}
	if q := r.URL.Query().Get("trace_sample"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 1 {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("invalid trace_sample %q", q))
			return scenario.Options{}, false
		}
		opts.TraceSample = min(v, s.cfg.MaxTraceSample)
	}
	return opts, true
}

// clampDegraded applies degraded mode to a requested subject count: while
// the server is degraded, n is capped at DegradedMaxSubjects, the response
// carries X-Degraded, and the degraded-run counter ticks. It never raises
// n: n=0 (an experiment's own default) stays 0, and the experiment door
// caps the defaults through experiments.Config.MaxN. Degraded runs must
// never enter the result cache: a clamped run must not be replayed as the
// real answer once the server recovers.
func (s *Server) clampDegraded(w http.ResponseWriter, n int) (int, bool) {
	if !s.overload.degraded() {
		return n, false
	}
	n = min(n, s.cfg.DegradedMaxSubjects)
	w.Header().Set("X-Degraded", "subjects-clamped")
	s.overload.degradedRuns.Add(1)
	return n, true
}

// writeRunErr maps a failed run to its status: a spec error is 400 with
// the field's JSON path, the server's own compute deadline 503 (a capacity
// signal), a client that went away 499, and anything else the door's own
// failure status — 500 for a local run, 502 when a cluster's workers
// failed it, 404 for an unknown experiment. Only the request's own
// context decides 499: a run that failed on a canceled or timed-out
// context of its own making (a shard attempt's deadline, a sibling
// stopped by a failure) is a failure of the run, not of the client.
func (s *Server) writeRunErr(w http.ResponseWriter, r *http.Request, err error, status int) {
	switch {
	case writeSpecErr(w, err):
	case computeDeadlineExpired(r.Context()):
		s.overload.deadlineExpired.Add(1)
		writeErr(w, http.StatusServiceUnavailable,
			fmt.Errorf("compute deadline (%s) exceeded: %w", s.cfg.ComputeTimeout, err))
	case r.Context().Err() != nil:
		writeErr(w, statusClientClosedRequest, err)
	default:
		writeErr(w, status, err)
	}
}

// decodeStatus maps a request-body decode error to its HTTP status: an
// http.MaxBytesError means the body blew past MaxBodyBytes (413, the
// client must shrink the request), anything else is a malformed body
// (400).
func decodeStatus(err error) int {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// handleHealthz answers liveness probes. The status code alone decides
// routing (200 take traffic, 503 stop routing); the JSON body lets a
// cluster coordinator distinguish a draining worker from a dead one in
// the same request, and carries build identity for fleet audits.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := cluster.Health{
		Status:        cluster.StatusOK,
		UptimeSeconds: telemetry.Uptime().Seconds(),
		GoVersion:     runtime.Version(),
		Revision:      telemetry.BuildRevision(),
	}
	if s.draining.Load() {
		h.Status = cluster.StatusDraining
		writeJSON(w, http.StatusServiceUnavailable, h)
		return
	}
	writeJSON(w, http.StatusOK, h)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.metrics.writePrometheus(w); err != nil {
		s.log.LogAttrs(r.Context(), slog.LevelWarn, "metrics write failed",
			slog.String("error", err.Error()))
		return
	}
	// Result-cache counters follow the HTTP metrics.
	if s.cache != nil {
		if err := s.cache.writeMetrics(w); err != nil {
			s.log.LogAttrs(r.Context(), slog.LevelWarn, "cache metrics write failed",
				slog.String("error", err.Error()))
			return
		}
	}
	// Overload-protection counters: shed, queue depth, degraded mode,
	// compute-deadline expirations.
	if err := s.overload.writeMetrics(w); err != nil {
		s.log.LogAttrs(r.Context(), slog.LevelWarn, "overload metrics write failed",
			slog.String("error", err.Error()))
		return
	}
	// Async-job and persistent-store counters.
	if err := s.jobs.WriteMetrics(w); err != nil {
		s.log.LogAttrs(r.Context(), slog.LevelWarn, "jobs metrics write failed",
			slog.String("error", err.Error()))
		return
	}
	if s.store != nil {
		if err := s.store.WriteMetrics(w); err != nil {
			s.log.LogAttrs(r.Context(), slog.LevelWarn, "store metrics write failed",
				slog.String("error", err.Error()))
			return
		}
	}
	// Engine telemetry (Monte Carlo counters, stage failures, run-duration
	// histograms, span summaries) follows the HTTP metrics so one scrape
	// covers the whole process.
	if err := telemetry.WriteMetrics(w); err != nil {
		s.log.LogAttrs(r.Context(), slog.LevelWarn, "engine metrics write failed",
			slog.String("error", err.Error()))
	}
}

func (s *Server) handleComponents(w http.ResponseWriter, r *http.Request) {
	type componentDTO struct {
		ID        int      `json:"id"`
		Group     string   `json:"group"`
		Name      string   `json:"name"`
		Questions []string `json:"questions"`
		Factors   []string `json:"factors"`
	}
	var out []componentDTO
	for _, c := range core.Components() {
		out = append(out, componentDTO{
			ID: int(c.ID), Group: c.Group, Name: c.Name,
			Questions: c.Questions, Factors: c.Factors,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handlePatterns(w http.ResponseWriter, r *http.Request) {
	type patternDTO struct {
		Name      string   `json:"name"`
		Category  string   `json:"category"`
		Intent    string   `json:"intent"`
		Addresses []string `json:"addresses"`
		Reference string   `json:"reference"`
	}
	var out []patternDTO
	for _, p := range patterns.Catalog() {
		dto := patternDTO{
			Name: p.Name, Category: p.Category.String(),
			Intent: p.Intent, Reference: p.Reference,
		}
		for _, c := range p.Addresses {
			dto.Addresses = append(dto.Addresses, c.String())
		}
		out = append(out, dto)
	}
	writeJSON(w, http.StatusOK, out)
}

// findingDTO serializes a checklist finding with names, not enum ints.
type findingDTO struct {
	Task           string  `json:"task"`
	Component      string  `json:"component"`
	Severity       string  `json:"severity"`
	Issue          string  `json:"issue"`
	Recommendation string  `json:"recommendation"`
	Estimate       float64 `json:"estimate,omitempty"`
}

func toFindingDTOs(fs []core.Finding) []findingDTO {
	out := make([]findingDTO, len(fs))
	for i, f := range fs {
		out[i] = findingDTO{
			Task: f.TaskID, Component: f.Component.String(),
			Severity: f.Severity.String(), Issue: f.Issue,
			Recommendation: f.Recommendation, Estimate: f.Estimate,
		}
	}
	return out
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	spec, ok := s.decodeSpec(w, r)
	if !ok {
		return
	}
	rep, err := core.Analyze(spec)
	if err != nil {
		writeErr(w, http.StatusUnprocessableEntity, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"system":      rep.System,
		"findings":    toFindingDTOs(rep.Findings),
		"reliability": rep.Reliability,
		"maxSeverity": rep.MaxSeverity().String(),
	})
}

func (s *Server) handleProcess(w http.ResponseWriter, r *http.Request) {
	spec, ok := s.decodeSpec(w, r)
	if !ok {
		return
	}
	// strconv.Atoi rejects trailing garbage ("3junk") that Sscanf used to
	// accept silently.
	effective := defaultProcessPasses
	if p := r.URL.Query().Get("passes"); p != "" {
		v, err := strconv.Atoi(p)
		if err != nil || v < 1 {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("invalid passes %q", p))
			return
		}
		effective = v
	}
	if effective > s.cfg.MaxProcessPasses {
		effective = s.cfg.MaxProcessPasses
	}
	// The process run is deterministic in (spec, passes): answer repeats
	// from the result cache. Keying happens after clamping so a request
	// for passes=100 shares the entry with the effective cap. An
	// unkeyable spec (ok=false) skips the cache entirely rather than
	// sharing a sentinel entry with every other unkeyable spec.
	cacheKey, keyable := processCacheKey(spec, effective)
	if !keyable {
		cacheKey = ""
	}
	if s.serveCached(w, cacheKey) {
		return
	}
	res, err := core.RunProcess(spec, core.ProcessOptions{MaxPasses: effective})
	if err != nil {
		writeErr(w, http.StatusUnprocessableEntity, err)
		return
	}
	type passDTO struct {
		Number      int                       `json:"number"`
		Identified  []string                  `json:"identified"`
		Automation  []core.AutomationDecision `json:"automation"`
		Findings    []findingDTO              `json:"findings,omitempty"`
		Mitigations []map[string]any          `json:"mitigations,omitempty"`
	}
	var pd []passDTO
	for _, p := range res.Passes {
		d := passDTO{Number: p.Number, Identified: p.Identified, Automation: p.Automation}
		if p.Analysis != nil {
			d.Findings = toFindingDTOs(p.Analysis.Findings)
		}
		for _, m := range p.Mitigations {
			d.Mitigations = append(d.Mitigations, map[string]any{
				"task": m.TaskID, "component": m.Component.String(),
				"action": m.Action, "before": m.Before, "after": m.After,
			})
		}
		pd = append(pd, d)
	}
	s.writeCacheableJSON(w, cacheKey, "", map[string]any{
		"passes":           pd,
		"effectivePasses":  effective,
		"finalReliability": res.FinalReliability,
		"automated":        res.Automated,
	})
}

func (s *Server) handleRecommend(w http.ResponseWriter, r *http.Request) {
	spec, ok := s.decodeSpec(w, r)
	if !ok {
		return
	}
	rep, err := core.Analyze(spec)
	if err != nil {
		writeErr(w, http.StatusUnprocessableEntity, err)
		return
	}
	recs, err := patterns.Recommend(spec, rep, core.SeverityMedium)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	type recDTO struct {
		Pattern string  `json:"pattern"`
		Task    string  `json:"task"`
		Intent  string  `json:"intent"`
		Before  float64 `json:"before"`
		After   float64 `json:"after"`
		Delta   float64 `json:"delta"`
	}
	out := make([]recDTO, len(recs))
	for i, rc := range recs {
		out[i] = recDTO{
			Pattern: rc.Pattern.Name, Task: rc.TaskID, Intent: rc.Pattern.Intent,
			Before: rc.Before, After: rc.After, Delta: rc.Delta(),
		}
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleExperimentList(w http.ResponseWriter, r *http.Request) {
	type expDTO struct {
		ID   string `json:"id"`
		Name string `json:"name"`
	}
	var out []expDTO
	for _, e := range experiments.Registry() {
		out = append(out, expDTO{ID: e.ID, Name: e.Name})
	}
	writeJSON(w, http.StatusOK, out)
}

// experimentRunRequest is the POST /v1/experiments/run body.
type experimentRunRequest struct {
	ID   string `json:"id"`
	Seed int64  `json:"seed"`
	N    int    `json:"n"`
}

func (s *Server) handleExperimentRun(w http.ResponseWriter, r *http.Request) {
	var req experimentRunRequest
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeErr(w, decodeStatus(err), err)
		return
	}
	if req.ID == "" {
		writeErr(w, http.StatusBadRequest, errors.New("missing experiment id"))
		return
	}
	if req.N < 0 || req.N > s.cfg.MaxSubjects {
		writeErr(w, http.StatusBadRequest,
			fmt.Errorf("n=%d out of [0, %d]", req.N, s.cfg.MaxSubjects))
		return
	}
	if req.Seed == 0 {
		req.Seed = 20080124
	}
	// ?faults=<spec> (internal/faults grammar) perturbs the run
	// deterministically — a chaos drill, gated behind Config.AllowFaults;
	// ?trace_sample=K samples up to K per-subject stage traces into the
	// response; ?spans=1 returns the request's span tree.
	opts, ok := s.runOptions(w, r)
	if !ok {
		return
	}
	wantSpans := r.URL.Query().Get("spans") == "1"
	// Under sustained overload the server trades fidelity for liveness:
	// subject counts, the experiments' own defaults included, are capped
	// until the degraded window clears.
	var degraded bool
	req.N, degraded = s.clampDegraded(w, req.N)
	cfg := experiments.Config{Seed: req.Seed, N: req.N}
	if degraded {
		cfg.MaxN = s.cfg.DegradedMaxSubjects
	}

	// Runs are deterministic in (id, seed, n), so identical requests can be
	// answered from the result cache — but only full-fidelity ones: no
	// per-request telemetry (?trace_sample / ?spans, always produced
	// fresh), no injected faults, and not while degraded.
	cacheKey := ""
	if opts.TraceSample == 0 && !wantSpans && opts.Faults == nil && !degraded {
		cacheKey = experimentCacheKey(req.ID, req.Seed, req.N)
		if s.serveCached(w, cacheKey) {
			return
		}
	}

	// The request context cancels the Monte Carlo workers when the client
	// disconnects or the server drains, so abandoned runs stop burning CPU.
	ctx, ex := scenario.Attach(r.Context(), req.Seed, opts)
	out, err := experiments.Run(ctx, req.ID, cfg)
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, experiments.ErrUnknown) {
			status = http.StatusNotFound
		}
		s.writeRunErr(w, r, err, status)
		return
	}
	var text strings.Builder
	if err := out.WriteText(&text); err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	// seed and n echo the parameters the run actually executed with — n in
	// particular may have been clamped by degraded mode (0 still means the
	// experiment's own default, capped while degraded).
	resp := map[string]any{
		"id":         out.ID,
		"seed":       req.Seed,
		"n":          req.N,
		"title":      out.Title,
		"paperShape": out.PaperShape,
		"metrics":    out.Metrics,
		"notes":      out.Notes,
		"text":       text.String(),
	}
	if ex.Recorder != nil {
		resp["trace"] = ex.Recorder.Traces()
	}
	if wantSpans {
		resp["spans"] = ex.Tracer.Spans()
	}
	if cacheKey != "" {
		s.writeCacheableJSON(w, cacheKey, "", resp)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}
