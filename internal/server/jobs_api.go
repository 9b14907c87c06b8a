package server

import (
	"encoding/json"
	"errors"
	"net/http"
	"strings"

	"hitl/internal/jobs"
)

// The async job API. A POST /v1/jobs body is a scenario.Spec — validated
// by exactly the same path as the synchronous /v1/scenarios/run — but the
// Monte Carlo work runs off-request on the job manager's bounded worker
// pool. The job ID is the spec's canonical sha256 digest, which buys three
// things at once: concurrent submissions of the same spec coalesce onto
// one computation (singleflight), the completed result is content-
// addressed in the persistent store and survives restarts, and the
// result's ETag is stable across processes and replicas.
//
//	POST /v1/jobs              spec -> 202 (new) or 200 (coalesced/stored)
//	GET  /v1/jobs/{id}         status/progress snapshot
//	GET  /v1/jobs/{id}/result  completed envelope; ETag + If-None-Match/304
//	GET  /v1/jobs/{id}/report  canonical run report; ETag + If-None-Match/304
//	GET  /v1/jobs/{id}/stream  chunked JSONL: status, points, traces, done
//
// A ?faults= submission (gated by Config.AllowFaults, same as the
// synchronous endpoints) runs under deterministic fault injection. Its job
// ID is a variant digest — jobs.VariantID(digest, faultSpec) — so a
// faulted run never collides with (or poisons) the clean entry for the
// same spec, while identical faulted submissions still coalesce.
//
// Admission control for jobs is the manager itself: the worker pool bounds
// concurrent engine runs, the job table bounds tracked jobs (overflow of
// live jobs is shed as 429 + Retry-After), and draining rejects new
// submissions with 503 while letting in-flight jobs finish.

// jobSubmitResponse is the POST /v1/jobs envelope: the job's status
// snapshot plus whether this submission started new work.
type jobSubmitResponse struct {
	jobs.Status
	Created bool `json:"created"`
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeErr(w, http.StatusServiceUnavailable, errors.New("server is draining"))
		return
	}
	norm, digest, ok := s.decodeScenarioSpec(w, r)
	if !ok {
		return
	}
	faultSet, ok := s.faultsFromQuery(w, r)
	if !ok {
		return
	}
	requestedN, degraded := s.degradeSpec(w, &norm, &digest)
	id := digest
	if faultSet != nil {
		id = jobs.VariantID(digest, faultSet.String())
	}
	job, created, err := s.jobs.Submit(norm, id, jobs.SubmitOptions{
		Faults:     faultSet,
		SpecDigest: digest,
		Degraded:   degraded,
		RequestedN: requestedN,
	})
	switch {
	case errors.Is(err, jobs.ErrDraining):
		writeErr(w, http.StatusServiceUnavailable, err)
		return
	case errors.Is(err, jobs.ErrBusy):
		w.Header().Set("Retry-After", s.retryAfter)
		writeErr(w, http.StatusTooManyRequests, err)
		return
	case err != nil:
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+job.ID)
	status := http.StatusOK
	if created {
		status = http.StatusAccepted
	}
	writeJSON(w, status, jobSubmitResponse{Status: job.Status(), Created: created})
}

// jobFromPath resolves {id} to a job, writing 404 (unknown) or 400 (bad
// ID shape) itself. ok=false means a response has been written.
func (s *Server) jobFromPath(w http.ResponseWriter, r *http.Request) (*jobs.Job, bool) {
	id := r.PathValue("id")
	job, err := s.jobs.Get(id)
	if errors.Is(err, jobs.ErrNotFound) {
		writeErr(w, http.StatusNotFound, err)
		return nil, false
	}
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return nil, false
	}
	return job, true
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobFromPath(w, r)
	if !ok {
		return
	}
	st := job.Status()
	if st.ETag != "" {
		w.Header().Set("ETag", st.ETag)
	}
	writeJSON(w, http.StatusOK, st)
}

// etagMatches implements If-None-Match: a "*" or any listed tag matching
// the entity tag (weak-comparison: a W/ prefix is ignored, since the
// stored body is byte-exact anyway).
func etagMatches(header, etag string) bool {
	for _, part := range strings.Split(header, ",") {
		part = strings.TrimSpace(part)
		if part == "*" || strings.TrimPrefix(part, "W/") == etag {
			return true
		}
	}
	return false
}

func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobFromPath(w, r)
	if !ok {
		return
	}
	body, meta, done := job.Result()
	if !done {
		st := job.Status()
		if st.State == jobs.StateFailed {
			writeJSON(w, http.StatusInternalServerError, st)
			return
		}
		// Not finished yet: answer with the status snapshot and a retry
		// hint, so a poller can use one URL for both phases.
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusAccepted, st)
		return
	}
	etag := meta.ETag()
	w.Header().Set("ETag", etag)
	if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatches(inm, etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// handleJobReport serves the job's persisted canonical run report: the
// structured diagnostic artifact (engine runs and subjects, per-stage
// failure attribution, fired fault rules, degraded clamp) assembled from
// the job's own collector when the run finished. Reports are canonicalized — worker
// counts and wall times zeroed — so the body and its ETag are
// byte-identical at any engine parallelism and across restarts.
func (s *Server) handleJobReport(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobFromPath(w, r)
	if !ok {
		return
	}
	body, meta, ok := job.Report()
	if !ok {
		st := job.Status()
		switch st.State {
		case jobs.StateFailed:
			// Failed without even an in-memory report (should not happen —
			// failure builds one — but a replayed pre-report store entry
			// could get here).
			writeJSON(w, http.StatusInternalServerError, st)
		case jobs.StateComplete:
			writeErr(w, http.StatusNotFound, errors.New("no report recorded for this job"))
		default:
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusAccepted, st)
		}
		return
	}
	etag := meta.ETag()
	w.Header().Set("ETag", etag)
	if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatches(inm, etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// handleJobStream renders the job's event log as chunked JSONL
// (application/x-ndjson): everything so far immediately, then live events
// as the run produces them, ending with a "done" (or "error") line. The
// stream is deterministic in the spec — point order is the final point
// order at any engine worker count — so two streams of the same digest are
// byte-identical, including a replay served from the store after a
// restart. Intentionally not behind the compute admission gate: streaming
// is I/O-bound waiting, and holding a compute slot (or its deadline) for
// the life of a long job would starve real work.
func (s *Server) handleJobStream(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobFromPath(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	enc := json.NewEncoder(w)
	from := 0
	for {
		evs, changed, finished := job.Watch(from)
		for i := range evs {
			if err := enc.Encode(&evs[i]); err != nil {
				return // client went away
			}
		}
		from += len(evs)
		if len(evs) > 0 {
			_ = rc.Flush()
		}
		if finished {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-changed:
		}
	}
}
