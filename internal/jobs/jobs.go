// Package jobs runs scenario specs asynchronously: a submitted spec
// becomes a Job identified by the spec's canonical sha256 digest, executes
// off-request on a bounded worker pool, reports progress, streams sweep
// points and sampled subject traces as they complete, and persists its
// rendered result into a content-addressed store (internal/store) so it
// survives restarts.
//
// The digest-keyed identity is what makes the whole thing cheap at scale:
//
//   - Singleflight coalescing. Concurrent submissions of the same
//     normalized spec all attach to one Job, so a stampede of identical
//     sweeps computes the Monte Carlo work exactly once. (The engine is
//     deterministic in the normalized spec, so one result is THE result.)
//   - Restart survival. A completed job's envelope lives in the store
//     under its digest; after a restart, a status or result read for that
//     digest is synthesized from disk without re-running the engine.
//   - Worker independence. Results, stream order, and the stored bytes are
//     bit-identical at any engine worker count: sweep steps execute
//     sequentially (parallelism lives inside each step), and the trace
//     reservoir samples by subject identity, not arrival order.
//
// Streaming is an event log per job: every state change, completed point,
// and sampled trace appends an Event, and any number of subscribers replay
// the log from the start and then follow it live. The server renders the
// log as chunked JSONL.
package jobs

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hitl/internal/faults"
	"hitl/internal/report"
	"hitl/internal/scenario"
	"hitl/internal/store"
	"hitl/internal/telemetry"
)

// State is a job's lifecycle phase.
type State string

// Job states. Pending jobs wait for a worker slot; Running jobs are
// executing Monte Carlo work; Complete and Failed are terminal.
const (
	StatePending  State = "pending"
	StateRunning  State = "running"
	StateComplete State = "complete"
	StateFailed   State = "failed"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool { return s == StateComplete || s == StateFailed }

// Event is one entry in a job's append-only event log — and one line of
// the JSONL stream.
type Event struct {
	// Type is "status", "point", "round", "trace", "done", or "error".
	Type string `json:"type"`
	// State accompanies status events.
	State State `json:"state,omitempty"`
	// Done/Total report sweep-step progress on status events (Total is 1
	// for non-sweep runs).
	Done  int `json:"done,omitempty"`
	Total int `json:"total,omitempty"`
	// Index is the point's position in the final point order (0-based) on
	// point events.
	Index int `json:"index,omitempty"`
	// Point carries one completed sweep point.
	Point *scenario.Point `json:"point,omitempty"`
	// Round carries one completed episode round's aggregate.
	Round *scenario.RoundSummary `json:"round,omitempty"`
	// Trace carries one sampled subject trace.
	Trace *telemetry.SubjectTrace `json:"trace,omitempty"`
	// ID and ETag identify the stored result on done events.
	ID   string `json:"id,omitempty"`
	ETag string `json:"etag,omitempty"`
	// Error carries the failure message on error events.
	Error string `json:"error,omitempty"`
}

// ResultEnvelope is the rendered result of a completed job: the bytes
// stored under the job's digest and served on result reads. Spec always
// has Workers zeroed — parallelism cannot change results, so content
// addressed by digest means byte-identical at any worker count.
type ResultEnvelope struct {
	ID       string        `json:"id"`
	Scenario string        `json:"scenario"`
	Spec     scenario.Spec `json:"spec"`
	// Engine records which engine path produced the points (interpreted,
	// compiled, or analytic). Engine selection is deterministic in the
	// normalized spec, so the field is part of the content-addressed
	// bytes like everything else. Absent in envelopes stored before
	// engine paths existed.
	Engine string           `json:"engine,omitempty"`
	Points []scenario.Point `json:"points"`
	// Rounds carries the per-round aggregates of an episodic run, in
	// round order. Absent for round-free runs.
	Rounds  []scenario.RoundSummary  `json:"rounds,omitempty"`
	Metrics map[string]float64       `json:"metrics"`
	Text    string                   `json:"text"`
	Trace   []telemetry.SubjectTrace `json:"trace,omitempty"`
}

// Status is a job's externally visible state snapshot.
type Status struct {
	ID        string    `json:"id"`
	Scenario  string    `json:"scenario"`
	State     State     `json:"state"`
	Done      int       `json:"done"`
	Total     int       `json:"total"`
	Error     string    `json:"error,omitempty"`
	ETag      string    `json:"etag,omitempty"`
	CreatedAt time.Time `json:"created_at"`
}

// Job is one asynchronous scenario execution (or the restart-synthesized
// record of a previous one).
type Job struct {
	// ID is the canonical spec digest.
	ID string
	// Scenario names the registered scenario the spec runs.
	Scenario string
	// CreatedAt is when this process first saw the job.
	CreatedAt time.Time

	mu         sync.Mutex
	state      State
	done       int
	total      int
	err        error
	meta       store.Meta
	body       []byte
	reportBody []byte
	reportMeta store.Meta
	events     []Event
	updated    chan struct{} // closed and replaced on every append/state change
}

func newJob(id, scenarioName string) *Job {
	return &Job{
		ID:        id,
		Scenario:  scenarioName,
		CreatedAt: time.Now().UTC(),
		state:     StatePending,
		updated:   make(chan struct{}),
	}
}

// Status returns a consistent snapshot.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID: j.ID, Scenario: j.Scenario, State: j.state,
		Done: j.done, Total: j.total, CreatedAt: j.CreatedAt,
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	if j.state == StateComplete {
		st.ETag = j.meta.ETag()
	}
	return st
}

// Result returns the completed job's body and meta. ok=false while the
// job is not complete.
func (j *Job) Result() (body []byte, meta store.Meta, ok bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateComplete {
		return nil, store.Meta{}, false
	}
	return j.body, j.meta, true
}

// Report returns the job's canonical RunReport bytes and meta. ok=false
// while the job is still pending or running, or when no report exists
// (e.g. a job synthesized from a store written before reports existed).
// Completed jobs' reports are persisted; failed jobs carry an in-memory
// report for the lifetime of the process.
func (j *Job) Report() (body []byte, meta store.Meta, ok bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.state.Terminal() || len(j.reportBody) == 0 {
		return nil, store.Meta{}, false
	}
	return j.reportBody, j.reportMeta, true
}

// signal wakes every watcher. Callers hold j.mu.
func (j *Job) signal() {
	close(j.updated)
	j.updated = make(chan struct{})
}

// append adds events to the log and wakes watchers. Callers hold j.mu.
func (j *Job) append(evs ...Event) {
	j.events = append(j.events, evs...)
	j.signal()
}

// Watch returns the events from index `from` onward, plus a channel that
// closes on the next change and whether the log is finished (terminal
// state reached and every event returned). Subscribers loop: drain,
// then wait on the channel (or their context) when not finished.
func (j *Job) Watch(from int) (evs []Event, changed <-chan struct{}, finished bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if from < len(j.events) {
		evs = make([]Event, len(j.events)-from)
		copy(evs, j.events[from:])
	}
	return evs, j.updated, j.state.Terminal() && from+len(evs) == len(j.events)
}

// ErrDraining reports a submission rejected because the manager is
// draining for shutdown.
var ErrDraining = errors.New("jobs: draining, not accepting new jobs")

// ErrBusy reports a submission rejected because the in-memory job table is
// full of non-evictable (still pending or running) jobs.
var ErrBusy = errors.New("jobs: job table full, retry later")

// ErrNotFound reports an unknown job ID.
var ErrNotFound = errors.New("jobs: unknown job")

// Config bounds a Manager.
type Config struct {
	// Store is the persistent cold tier; nil keeps results in memory only
	// (they die with the process).
	Store *store.Store
	// Workers caps concurrently executing jobs; 0 means 2. Each job's
	// internal engine parallelism is governed by its spec (and clamped to
	// GOMAXPROCS by the engine).
	Workers int
	// Timeout bounds one job's compute; 0 means 10 minutes, negative
	// disables.
	Timeout time.Duration
	// TraceSample is how many subject traces each job samples into its
	// stream and stored envelope; 0 means 8, negative disables. The
	// reservoir is deterministic in the spec seed, so sampled traces are
	// part of the content-addressed result.
	TraceSample int
	// MaxJobs bounds the in-memory job table; 0 means 256. When the table
	// is full, terminal jobs are evicted oldest-first (their results stay
	// readable through the store); if every tracked job is still pending
	// or running, Submit fails with ErrBusy.
	MaxJobs int
}

func (c *Config) setDefaults() {
	if c.Workers == 0 {
		c.Workers = 2
	}
	if c.Timeout == 0 {
		c.Timeout = 10 * time.Minute
	}
	if c.TraceSample == 0 {
		c.TraceSample = 8
	}
	if c.TraceSample < 0 {
		c.TraceSample = 0
	}
	if c.MaxJobs == 0 {
		c.MaxJobs = 256
	}
}

// Manager owns the job table, the worker pool, and the store integration.
type Manager struct {
	cfg      Config
	sem      chan struct{}
	draining atomic.Bool
	wg       sync.WaitGroup

	mu    sync.Mutex
	jobs  map[string]*Job
	order []string // insertion order, for oldest-first eviction

	submitted atomic.Int64
	coalesced atomic.Int64
	completed atomic.Int64
	failed    atomic.Int64
	running   atomic.Int64
	storeHits atomic.Int64
}

// NewManager creates a manager.
func NewManager(cfg Config) *Manager {
	cfg.setDefaults()
	return &Manager{
		cfg:  cfg,
		sem:  make(chan struct{}, cfg.Workers),
		jobs: make(map[string]*Job),
	}
}

// Store returns the manager's persistent tier (nil when memory-only).
func (m *Manager) Store() *store.Store { return m.cfg.Store }

// SubmitOptions carries the request-level context a job's RunReport needs
// and the optional fault injection. The zero value is a plain submission.
type SubmitOptions struct {
	// Faults, when non-empty, deterministically perturbs every engine run
	// of the job. The caller must fold the fault spec into the job ID (see
	// VariantID) so faulted results never alias the clean result of the
	// same spec in the content-addressed store.
	Faults *faults.Set
	// SpecDigest is the canonical spec digest, carried to the run's
	// profile tag and report. Empty means the job ID is the digest (the
	// unfaulted common case).
	SpecDigest string
	// Degraded marks a job admitted under the server's post-shed degraded
	// mode; RequestedN is the pre-clamp subject count (norm.N already holds
	// the clamped value the job will run).
	Degraded   bool
	RequestedN int
}

// VariantID derives the job ID for a spec digest plus a fault spec.
// Faulted runs are deterministic too, so they are content-addressable —
// just under their own identity.
func VariantID(digest, faultSpec string) string {
	sum := sha256.Sum256([]byte(digest + "|faults|" + faultSpec))
	return hex.EncodeToString(sum[:])
}

// ReportKey derives the store key a job's RunReport persists under —
// content-addressed next to the result, one deterministic derivation away
// from the job ID.
func ReportKey(jobID string) string {
	sum := sha256.Sum256([]byte(jobID + "|report"))
	return hex.EncodeToString(sum[:])
}

// Submit registers (or attaches to) the job for a normalized spec; the
// job runs norm as given, without normalizing it again. id is the job
// identity and store key: the spec's canonical digest (scenario.Digest),
// or VariantID of it for faulted submissions.
// created reports whether this call started new work: false means the
// submission coalesced onto an existing job or a stored result. A
// previously failed job is replaced by a fresh attempt (failures are often
// transient — timeouts, cancellations), preserving exactly-once execution
// only for work that succeeded.
func (m *Manager) Submit(norm scenario.Spec, id string, opts SubmitOptions) (job *Job, created bool, err error) {
	if m.draining.Load() {
		return nil, false, ErrDraining
	}
	if opts.SpecDigest == "" {
		opts.SpecDigest = id
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if j, ok := m.jobs[id]; ok && j.Status().State != StateFailed {
		m.coalesced.Add(1)
		telemetry.Flight.Record(telemetry.EventJobCoalesced, id)
		return j, false, nil
	}
	if j := m.loadLocked(id); j != nil {
		m.coalesced.Add(1)
		telemetry.Flight.Record(telemetry.EventJobCoalesced, id)
		return j, false, nil
	}
	if err := m.evictLocked(); err != nil {
		return nil, false, err
	}
	j := newJob(id, norm.Scenario)
	m.trackLocked(j)
	m.submitted.Add(1)
	telemetry.Flight.Record(telemetry.EventJobSubmit, id)
	m.wg.Add(1)
	go m.run(j, norm, opts)
	return j, true, nil
}

// Get returns the job for an ID, synthesizing a completed job from the
// store when this process has never seen the digest (restart survival).
func (m *Manager) Get(id string) (*Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if j, ok := m.jobs[id]; ok {
		return j, nil
	}
	if j := m.loadLocked(id); j != nil {
		return j, nil
	}
	return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
}

// trackLocked inserts a job into the table. Callers hold m.mu.
func (m *Manager) trackLocked(j *Job) {
	if _, ok := m.jobs[j.ID]; !ok {
		m.order = append(m.order, j.ID)
	}
	m.jobs[j.ID] = j
}

// evictLocked makes room for one more job, evicting the oldest terminal
// job if the table is at its bound. Results already persisted stay
// readable (Get re-synthesizes them from the store). Callers hold m.mu.
func (m *Manager) evictLocked() error {
	if len(m.jobs) < m.cfg.MaxJobs {
		return nil
	}
	for i, id := range m.order {
		j, ok := m.jobs[id]
		if !ok || !j.Status().State.Terminal() {
			continue
		}
		delete(m.jobs, id)
		m.order = append(m.order[:i], m.order[i+1:]...)
		return nil
	}
	return ErrBusy
}

// loadLocked synthesizes a completed job from the store, installing it in
// the table so repeat reads are cheap. Returns nil when the store has no
// (valid) entry. Callers hold m.mu.
func (m *Manager) loadLocked(digest string) *Job {
	if m.cfg.Store == nil {
		return nil
	}
	body, meta, err := m.cfg.Store.Get(digest)
	if err != nil {
		return nil // not found, or corrupt (already quarantined): recompute
	}
	var env ResultEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		return nil
	}
	j := synthesize(&env, body, meta)
	// The report persists next to the result; absence (pre-report stores,
	// or a quarantined report) degrades to a 404 on the report endpoint,
	// never to a failed result read.
	if rbody, rmeta, err := m.cfg.Store.Get(ReportKey(digest)); err == nil {
		j.reportBody, j.reportMeta = rbody, rmeta
	}
	if err := m.evictLocked(); err != nil {
		// Table full of live jobs; serve the synthesized job without
		// tracking it rather than failing the read.
		return j
	}
	m.trackLocked(j)
	m.storeHits.Add(1)
	return j
}

// synthesize rebuilds a completed job — including its replayable event
// log, byte-for-byte what a live run would have streamed — from a stored
// envelope.
func synthesize(env *ResultEnvelope, body []byte, meta store.Meta) *Job {
	j := newJob(env.ID, env.Scenario)
	total := 1
	if env.Spec.Sweep != nil {
		total = len(env.Spec.Sweep.Values)
	} else if env.Spec.Rounds > 0 {
		total = env.Spec.Rounds
	}
	j.state = StateComplete
	j.done, j.total = total, total
	j.body, j.meta = body, meta
	j.events = replayEvents(env, total, meta)
	return j
}

// replayEvents renders the event log a live run of env would have
// produced.
func replayEvents(env *ResultEnvelope, total int, meta store.Meta) []Event {
	evs := make([]Event, 0, len(env.Points)+len(env.Rounds)+len(env.Trace)+2)
	evs = append(evs, Event{Type: "status", State: StateRunning, Done: 0, Total: total})
	for i := range env.Points {
		evs = append(evs, Event{Type: "point", Index: i, Point: &env.Points[i]})
	}
	for i := range env.Rounds {
		evs = append(evs, Event{Type: "round", Index: i, Round: &env.Rounds[i]})
	}
	for i := range env.Trace {
		evs = append(evs, Event{Type: "trace", Trace: &env.Trace[i]})
	}
	return append(evs, Event{Type: "done", ID: env.ID, ETag: meta.ETag()})
}

// run executes one job on a worker slot.
func (m *Manager) run(j *Job, norm scenario.Spec, opts SubmitOptions) {
	defer m.wg.Done()
	m.sem <- struct{}{}
	defer func() { <-m.sem }()
	m.running.Add(1)
	defer m.running.Add(-1)

	total := 1
	if norm.Sweep != nil {
		total = len(norm.Sweep.Values)
	} else if norm.Rounds > 0 {
		total = norm.Rounds
	}
	j.mu.Lock()
	j.state = StateRunning
	j.total = total
	j.append(Event{Type: "status", State: StateRunning, Done: 0, Total: total})
	j.mu.Unlock()
	telemetry.Flight.Record(telemetry.EventJobRunning, j.ID)

	ctx := context.Background()
	if m.cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, m.cfg.Timeout)
		defer cancel()
	}

	// The observer appends each step's points as they complete; sweep
	// steps run sequentially, so the streamed point order is the final
	// point order at any engine worker count.
	index := 0
	obs := func(done, tot int, pts []scenario.Point) {
		j.mu.Lock()
		j.done = done
		for i := range pts {
			j.append(Event{Type: "point", Index: index, Point: &pts[i]})
			index++
		}
		j.mu.Unlock()
	}
	ex, err := scenario.Execute(ctx, norm, opts.SpecDigest, scenario.Options{
		Faults:      opts.Faults,
		TraceSample: m.cfg.TraceSample,
		Report:      true,
		Observe:     obs,
	})
	// Every job keeps a report, canonicalized so the persisted bytes are
	// bit-identical at any worker count (like the result envelope's zeroed
	// Spec.Workers). Failed jobs still explain themselves: the report, with
	// per-run errors and flags, stays in memory but is not persisted — a
	// failed job is replaced by the next submission attempt.
	rep := *ex.Report
	rep.JobID = j.ID
	if opts.Degraded {
		rep.Degraded = true
		rep.DegradedClamp = norm.N
		rep.RequestedN = opts.RequestedN
	}
	reportBody, reportMeta := encodeReport(rep.Canonical())
	trace := ex.Recorder.Traces()
	var body []byte
	var meta store.Meta
	if err == nil {
		body, meta, err = EncodeResult(j.ID, ex.Result, trace)
	}
	if err != nil {
		m.failed.Add(1)
		telemetry.Flight.Record(telemetry.EventJobFailed, j.ID+": "+err.Error())
		j.mu.Lock()
		j.state = StateFailed
		j.err = err
		j.reportBody, j.reportMeta = reportBody, reportMeta
		j.append(Event{Type: "error", Error: err.Error()})
		j.mu.Unlock()
		return
	}

	if m.cfg.Store != nil {
		// Persist before announcing completion, so a client that sees
		// "complete" can always read the result — even across a restart
		// that happens a millisecond later. The report follows the same
		// discipline under its derived key.
		if pm, err := m.cfg.Store.Put(j.ID, body); err == nil {
			meta = pm
		}
		if len(reportBody) > 0 {
			if pm, err := m.cfg.Store.Put(ReportKey(j.ID), reportBody); err == nil {
				reportMeta = pm
			}
		}
		// A store write failure degrades to memory-only; the job still
		// completes (the result is valid, just not durable).
	}

	rounds := ex.Result.Rounds
	m.completed.Add(1)
	telemetry.Flight.Record(telemetry.EventJobComplete, j.ID)
	j.mu.Lock()
	j.state = StateComplete
	j.done = total
	j.body, j.meta = body, meta
	j.reportBody, j.reportMeta = reportBody, reportMeta
	evs := make([]Event, 0, len(rounds)+len(trace)+1)
	for i := range rounds {
		evs = append(evs, Event{Type: "round", Index: i, Round: &rounds[i]})
	}
	for i := range trace {
		evs = append(evs, Event{Type: "trace", Trace: &trace[i]})
	}
	evs = append(evs, Event{Type: "done", ID: j.ID, ETag: meta.ETag()})
	j.append(evs...)
	j.mu.Unlock()
}

// Adopt persists a result computed outside the manager — a cluster
// coordinator's merged run — and its run report under id, but only when
// id has neither a tracked job nor a stored entry. The manager is the one
// writer of result envelopes: whichever door computes a digest first
// fixes its body, report and ETag, and a later door never replaces them,
// live or after a restart. The report is canonicalized like a job's.
// Without a store Adopt does nothing.
func (m *Manager) Adopt(id string, res *scenario.Result, rep report.RunReport) {
	if m.cfg.Store == nil {
		return
	}
	// Holding m.mu across the writes keeps Submit from starting a job for
	// id, and a read from loading it, between the check and the puts.
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.jobs[id]; ok || m.cfg.Store.Has(id) {
		return
	}
	body, _, err := EncodeResult(id, res, nil)
	if err != nil {
		return
	}
	if _, err := m.cfg.Store.Put(id, body); err != nil {
		return
	}
	rep.JobID = id
	if rbody, _ := encodeReport(rep.Canonical()); len(rbody) > 0 {
		// A failed report write leaves the result served, and /report 404.
		_, _ = m.cfg.Store.Put(ReportKey(id), rbody)
	}
}

// encodeReport renders a report to its wire form plus an in-memory meta;
// an encode failure yields an absent report, never a failed job.
func encodeReport(rep report.RunReport) ([]byte, store.Meta) {
	body, err := rep.MarshalIndented()
	if err != nil {
		return nil, store.Meta{}
	}
	return body, store.Meta{Key: ReportKey(rep.JobID), SHA256: bodySHA(body), Size: int64(len(body))}
}

// bodySHA is the hex checksum the store would assign, used for the
// in-memory meta when no store is configured.
func bodySHA(body []byte) string {
	sum := sha256.Sum256(body)
	return hex.EncodeToString(sum[:])
}

// EncodeResult renders a completed scenario result as the persisted
// result envelope — indented JSON with a trailing newline — plus the
// store metadata (content SHA, size) addressing those bytes under id.
// It is the single encoding every stored result shares: job runs and
// adopted cluster results (Adopt) alike.
func EncodeResult(id string, res *scenario.Result, trace []telemetry.SubjectTrace) ([]byte, store.Meta, error) {
	env := ResultEnvelope{
		ID:       id,
		Scenario: res.Scenario,
		Spec:     res.Spec,
		Engine:   res.EnginePath,
		Points:   res.Points,
		Rounds:   res.Rounds,
		Metrics:  res.Metrics(),
		Text:     res.Table().String(),
		Trace:    trace,
	}
	// Workers cannot change results; zeroing it keeps the stored bytes —
	// and therefore the ETag — identical however the run was parallelized.
	env.Spec.Workers = 0
	body, err := json.MarshalIndent(env, "", "  ")
	if err != nil {
		return nil, store.Meta{}, fmt.Errorf("jobs: encoding result: %w", err)
	}
	body = append(body, '\n')
	return body, store.Meta{Key: id, SHA256: bodySHA(body), Size: int64(len(body))}, nil
}

// Drain stops accepting new submissions. In-flight jobs keep running;
// pair with Wait to let them finish.
func (m *Manager) Drain() { m.draining.Store(true) }

// Wait blocks until every accepted job has reached a terminal state, or
// ctx expires.
func (m *Manager) Wait(ctx context.Context) error {
	done := make(chan struct{})
	go func() { m.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Tracked returns how many jobs the in-memory table holds.
func (m *Manager) Tracked() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.jobs)
}

// WriteMetrics appends the job counters to a Prometheus text scrape.
func (m *Manager) WriteMetrics(w io.Writer) error {
	var b strings.Builder
	b.WriteString("# HELP hitl_jobs_submitted_total Jobs that started new Monte Carlo work.\n")
	b.WriteString("# TYPE hitl_jobs_submitted_total counter\n")
	fmt.Fprintf(&b, "hitl_jobs_submitted_total %d\n", m.submitted.Load())
	b.WriteString("# HELP hitl_jobs_coalesced_total Submissions answered by an existing job or stored result (singleflight).\n")
	b.WriteString("# TYPE hitl_jobs_coalesced_total counter\n")
	fmt.Fprintf(&b, "hitl_jobs_coalesced_total %d\n", m.coalesced.Load())
	b.WriteString("# HELP hitl_jobs_completed_total Jobs that finished successfully.\n")
	b.WriteString("# TYPE hitl_jobs_completed_total counter\n")
	fmt.Fprintf(&b, "hitl_jobs_completed_total %d\n", m.completed.Load())
	b.WriteString("# HELP hitl_jobs_failed_total Jobs that ended in an error.\n")
	b.WriteString("# TYPE hitl_jobs_failed_total counter\n")
	fmt.Fprintf(&b, "hitl_jobs_failed_total %d\n", m.failed.Load())
	b.WriteString("# HELP hitl_jobs_running Jobs currently executing Monte Carlo work.\n")
	b.WriteString("# TYPE hitl_jobs_running gauge\n")
	fmt.Fprintf(&b, "hitl_jobs_running %d\n", m.running.Load())
	b.WriteString("# HELP hitl_jobs_tracked In-memory job table size.\n")
	b.WriteString("# TYPE hitl_jobs_tracked gauge\n")
	fmt.Fprintf(&b, "hitl_jobs_tracked %d\n", m.Tracked())
	_, err := io.WriteString(w, b.String())
	return err
}
