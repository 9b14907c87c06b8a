package server

import (
	"errors"
	"fmt"
	"net/http"

	"hitl/internal/scenario"
	_ "hitl/internal/scenario/all" // register the built-in scenarios
)

// maxSweepValues caps the sweep axis length on /v1/scenarios/run: a sweep
// runs the whole Monte Carlo once per value, so the axis multiplies the
// request's cost the same way N does.
const maxSweepValues = 32

// writeSpecErr writes a spec validation failure as HTTP 400 with the JSON
// path of the offending field, reporting whether err was one.
func writeSpecErr(w http.ResponseWriter, err error) bool {
	var se *scenario.SpecError
	if !errors.As(err, &se) {
		return false
	}
	writeJSON(w, http.StatusBadRequest, map[string]string{
		"error": se.Error(),
		"field": se.Field,
	})
	return true
}

// handleScenarioList serves the scenario registry with full parameter
// schemas, so clients can discover knobs, ranges, and enums without reading
// Go.
func (s *Server) handleScenarioList(w http.ResponseWriter, r *http.Request) {
	type scenarioDTO struct {
		Name     string            `json:"name"`
		Doc      string            `json:"doc"`
		Defaults scenario.Defaults `json:"defaults"`
		Params   []scenario.Param  `json:"params"`
	}
	out := make([]scenarioDTO, 0)
	for _, sc := range scenario.All() {
		out = append(out, scenarioDTO{
			Name: sc.Name(), Doc: sc.Doc(), Defaults: sc.Defaults(), Params: sc.Params(),
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// decodeScenarioSpec reads, normalizes, and bounds-checks a scenario spec
// request body, and digests the normalized spec. It is the single
// validation path shared by every scenario door — the synchronous run, the
// async job, and the cluster run and shard endpoints — so a spec one door
// accepts is exactly a spec the others accept, and each request normalizes
// and digests its spec once. The returned spec always has Workers zeroed:
// the server owns its parallelism, and a client-picked worker count could
// not change results anyway. ok=false means a response has already been
// written.
func (s *Server) decodeScenarioSpec(w http.ResponseWriter, r *http.Request) (norm scenario.Spec, digest string, ok bool) {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	spec, err := scenario.ParseSpec(body)
	if err != nil {
		writeErr(w, decodeStatus(err), err)
		return scenario.Spec{}, "", false
	}
	norm, err = scenario.Normalize(spec)
	if err != nil {
		if !writeSpecErr(w, err) {
			writeErr(w, http.StatusBadRequest, err)
		}
		return scenario.Spec{}, "", false
	}
	if norm.N > s.cfg.MaxSubjects {
		writeJSON(w, http.StatusBadRequest, map[string]string{
			"error": fmt.Sprintf("n=%d above the server cap %d", norm.N, s.cfg.MaxSubjects),
			"field": "n",
		})
		return scenario.Spec{}, "", false
	}
	if norm.Sweep != nil && len(norm.Sweep.Values) > maxSweepValues {
		writeJSON(w, http.StatusBadRequest, map[string]string{
			"error": fmt.Sprintf("sweep of %d values above the server cap %d", len(norm.Sweep.Values), maxSweepValues),
			"field": "sweep.values",
		})
		return scenario.Spec{}, "", false
	}
	norm.Workers = 0
	if digest, err = scenario.Digest(norm); err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return scenario.Spec{}, "", false
	}
	return norm, digest, true
}

// degradeSpec applies degraded mode (clampDegraded) to a decoded spec. A
// clamped spec is a different run, so it is re-digested: a degraded run
// gets its own identity rather than masquerading as the full-fidelity run
// of the original spec. It returns the pre-clamp subject count.
func (s *Server) degradeSpec(w http.ResponseWriter, norm *scenario.Spec, digest *string) (requestedN int, degraded bool) {
	requestedN = norm.N
	if norm.N, degraded = s.clampDegraded(w, norm.N); norm.N != requestedN {
		*digest, _ = scenario.Digest(*norm) // cannot fail: norm stays normalized
	}
	return requestedN, degraded
}

// scenarioResponse is the body the scenario doors answer with. spec echoes
// the normalized spec the run actually executed — n in particular may
// have been clamped by degraded mode. X-Engine reports which engine path
// answered (interpreted, compiled, or analytic) — diagnostic only:
// interpreted and compiled bodies are bit-identical, and analytic specs
// always resolve analytic.
func scenarioResponse(w http.ResponseWriter, res *scenario.Result) map[string]any {
	w.Header().Set("X-Engine", res.EnginePath)
	resp := map[string]any{
		"scenario": res.Scenario,
		"spec":     res.Spec,
		"engine":   res.EnginePath,
		"points":   res.Points,
		"metrics":  res.Metrics(),
		"text":     res.Table().String(),
	}
	if len(res.Rounds) > 0 {
		resp["rounds"] = res.Rounds
	}
	return resp
}

// handleScenarioRun executes a declarative scenario spec. The body is a
// scenario.Spec; validation failures come back as 400 with the offending
// field's JSON path. Runs are deterministic in the normalized spec (Workers
// excluded — it cannot change results), so full-fidelity 200s are served
// from the result cache under the spec's canonical digest, subject to the
// same bypass rules as /v1/experiments/run: per-request telemetry
// (?trace_sample / ?spans=1), injected faults (?faults=, gated by
// Config.AllowFaults), and degraded mode all skip the cache.
func (s *Server) handleScenarioRun(w http.ResponseWriter, r *http.Request) {
	norm, digest, ok := s.decodeScenarioSpec(w, r)
	if !ok {
		return
	}
	opts, ok := s.runOptions(w, r)
	if !ok {
		return
	}
	wantSpans := r.URL.Query().Get("spans") == "1"
	// ?report=1 attaches a full-fidelity run report (real worker counts and
	// phase wall times, unlike the canonicalized job reports). Reports are
	// per-execution observations, so they bypass the cache like traces do.
	opts.Report = r.URL.Query().Get("report") == "1"
	// Under sustained overload the server trades fidelity for liveness.
	requestedN, degraded := s.degradeSpec(w, &norm, &digest)

	cacheKey := ""
	if opts.TraceSample == 0 && !wantSpans && opts.Faults == nil && !degraded && !opts.Report {
		cacheKey = "scenarios/run|" + digest
		if s.serveCached(w, cacheKey) {
			return
		}
	}

	ex, err := scenario.Execute(r.Context(), norm, digest, opts)
	if err != nil {
		s.writeRunErr(w, r, err, http.StatusInternalServerError)
		return
	}
	resp := scenarioResponse(w, ex.Result)
	if ex.Recorder != nil {
		resp["trace"] = ex.Recorder.Traces()
	}
	if wantSpans {
		resp["spans"] = ex.Tracer.Spans()
	}
	if rep := ex.Report; rep != nil {
		if degraded {
			rep.Degraded = true
			rep.DegradedClamp = norm.N
			rep.RequestedN = requestedN
		}
		rep.Cache = "bypass"
		resp["report"] = rep
	}
	if cacheKey != "" {
		s.writeCacheableJSON(w, cacheKey, ex.Result.EnginePath, resp)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}
