package server

import (
	"net/http"
	"strconv"
	"strings"
	"testing"

	"hitl/internal/report"
	"hitl/internal/telemetry"
)

// TestMetricsEndpointLints exercises enough of the server to populate
// every metrics section — HTTP registry, cache, overload, jobs, store,
// engine, process — then structurally lints the full /v1/metrics scrape.
func TestMetricsEndpointLints(t *testing.T) {
	cfg := quietConfig()
	cfg.StoreDir = t.TempDir()
	_, ts := scenarioServer(t, cfg)

	// One cached scenario run (engine + cache series) and one async job
	// (jobs + store series).
	resp := postJSON(t, ts.URL+"/v1/scenarios/run", map[string]any{"scenario": "password", "seed": 3, "n": 50})
	resp.Body.Close()
	st, _, _ := submitJob(t, ts.URL, jobTestSpec(21))
	awaitJob(t, ts.URL, st.ID)

	scrape, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer scrape.Body.Close()
	if problems := telemetry.LintPrometheus(scrape.Body); len(problems) != 0 {
		t.Errorf("/v1/metrics fails lint:\n  %s", strings.Join(problems, "\n  "))
	}
}

// TestJobReportEndpoint drives GET /v1/jobs/{id}/report: 200 with a strong
// ETag, 304 on If-None-Match, and a canonical body naming the fired fault
// rules.
func TestJobReportEndpoint(t *testing.T) {
	cfg := quietConfig()
	cfg.StoreDir = t.TempDir()
	cfg.AllowFaults = true
	_, ts := scenarioServer(t, cfg)

	resp := postJSON(t, ts.URL+"/v1/jobs?faults=fail:stage=comprehension,p=0.2", jobTestSpec(31))
	var submitted struct {
		ID string `json:"id"`
	}
	decodeBody(t, resp, &submitted)
	awaitJob(t, ts.URL, submitted.ID)

	rr, err := http.Get(ts.URL + "/v1/jobs/" + submitted.ID + "/report")
	if err != nil {
		t.Fatal(err)
	}
	etag := rr.Header.Get("ETag")
	if rr.StatusCode != http.StatusOK || etag == "" {
		t.Fatalf("report = %d with ETag %q, want 200 with a strong ETag", rr.StatusCode, etag)
	}
	var rep report.RunReport
	decodeBody(t, rr, &rep)
	if rep.JobID != submitted.ID || rep.Scenario != "phishing-campaign" {
		t.Errorf("report identity = %s / %s", rep.JobID, rep.Scenario)
	}
	if len(rep.FaultRules) != 1 || rep.FaultRules[0].Fired == 0 {
		t.Errorf("fault rules = %+v, want one fired rule", rep.FaultRules)
	}
	if rep.Workers != 0 || rep.EffectiveWorkers != 0 {
		t.Errorf("served report not canonical: workers %d/%d", rep.Workers, rep.EffectiveWorkers)
	}

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/"+submitted.ID+"/report", nil)
	req.Header.Set("If-None-Match", etag)
	cond, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	cond.Body.Close()
	if cond.StatusCode != http.StatusNotModified {
		t.Errorf("If-None-Match = %d, want 304", cond.StatusCode)
	}
}

// TestDebugEventsEndpoint checks the flight recorder surfaces the job
// lifecycle at /v1/debug/events and that the since/kind filters (and the
// 400 on a bad since) behave.
func TestDebugEventsEndpoint(t *testing.T) {
	cfg := quietConfig()
	cfg.StoreDir = t.TempDir()
	_, ts := scenarioServer(t, cfg)
	st, _, _ := submitJob(t, ts.URL, jobTestSpec(41))
	awaitJob(t, ts.URL, st.ID)

	var body struct {
		Total    uint64                  `json:"total"`
		Capacity int                     `json:"capacity"`
		Events   []telemetry.FlightEvent `json:"events"`
	}
	resp, err := http.Get(ts.URL + "/v1/debug/events")
	if err != nil {
		t.Fatal(err)
	}
	decodeBody(t, resp, &body)
	if body.Total == 0 || body.Capacity != telemetry.DefaultFlightCapacity {
		t.Errorf("total %d capacity %d", body.Total, body.Capacity)
	}
	var complete *telemetry.FlightEvent
	for i := range body.Events {
		if body.Events[i].Kind == telemetry.EventJobComplete && body.Events[i].Detail == st.ID {
			complete = &body.Events[i]
		}
	}
	if complete == nil {
		t.Fatalf("no job-complete event for %s in %+v", st.ID, body.Events)
	}

	resp, err = http.Get(ts.URL + "/v1/debug/events?kind=" + telemetry.EventJobComplete)
	if err != nil {
		t.Fatal(err)
	}
	decodeBody(t, resp, &body)
	for _, ev := range body.Events {
		if ev.Kind != telemetry.EventJobComplete {
			t.Errorf("kind filter leaked %q", ev.Kind)
		}
	}

	resp, err = http.Get(ts.URL + "/v1/debug/events?since=" + strconv.FormatUint(complete.Seq, 10))
	if err != nil {
		t.Fatal(err)
	}
	decodeBody(t, resp, &body)
	for _, ev := range body.Events {
		if ev.Seq <= complete.Seq {
			t.Errorf("since filter returned seq %d <= %d", ev.Seq, complete.Seq)
		}
	}

	bad, err := http.Get(ts.URL + "/v1/debug/events?since=nope")
	if err != nil {
		t.Fatal(err)
	}
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Errorf("bad since = %d, want 400", bad.StatusCode)
	}
}

// TestScenarioRunInlineReport checks ?report=1 returns a full-fidelity
// report inline and bypasses the result cache.
func TestScenarioRunInlineReport(t *testing.T) {
	_, ts := scenarioServer(t, Config{})
	spec := map[string]any{"scenario": "password", "seed": 9, "n": 80}

	resp := postJSON(t, ts.URL+"/v1/scenarios/run?report=1", spec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run = %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Cache"); got != "" {
		t.Errorf("?report=1 touched the cache: X-Cache %q", got)
	}
	var body struct {
		Report *report.RunReport `json:"report"`
	}
	decodeBody(t, resp, &body)
	if body.Report == nil {
		t.Fatal("response has no report")
	}
	rep := body.Report
	if rep.EngineRuns < 1 || rep.Subjects != 80 || rep.N != 80 || rep.Seed != 9 {
		t.Errorf("report = %d runs, %d subjects, n %d, seed %d", rep.EngineRuns, rep.Subjects, rep.N, rep.Seed)
	}
	if rep.SpecDigest == "" || rep.Cache != "bypass" {
		t.Errorf("digest %q cache %q, want digest with cache=bypass", rep.SpecDigest, rep.Cache)
	}
	// Inline reports keep full fidelity: real worker counts and wall time.
	if rep.EffectiveWorkers < 1 {
		t.Errorf("effective workers = %d, want >= 1", rep.EffectiveWorkers)
	}
	if rep.Phases.ComputeSeconds <= 0 {
		t.Errorf("compute phase = %g, want > 0", rep.Phases.ComputeSeconds)
	}
	if rep.EngineRuns != 1 || rep.EnginePath == "" {
		t.Errorf("report = %d engine runs on path %q, want this run's one", rep.EngineRuns, rep.EnginePath)
	}

	// A plain repeat of the same spec is a cache miss then hit — ?report=1
	// left no cache entry behind.
	first := postJSON(t, ts.URL+"/v1/scenarios/run", spec)
	first.Body.Close()
	if first.Header.Get("X-Cache") != "miss" {
		t.Errorf("plain run after ?report=1: X-Cache %q, want miss", first.Header.Get("X-Cache"))
	}
}
