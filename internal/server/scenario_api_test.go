package server

import (
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"hitl/internal/report"
	"hitl/internal/scenario"
)

// scenarioServer builds a test server exposing its internals, so tests can
// force degraded mode and inspect the cache.
func scenarioServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = quietConfig().Logger
	}
	srv := New(cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

func TestScenarioList(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/scenarios")
	if err != nil {
		t.Fatal(err)
	}
	var body []struct {
		Name     string `json:"name"`
		Doc      string `json:"doc"`
		Defaults struct {
			Population string `json:"population"`
			N          int    `json:"n"`
		} `json:"defaults"`
		Params []struct {
			Name string `json:"name"`
			Type string `json:"type"`
		} `json:"params"`
	}
	decodeBody(t, resp, &body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list: %d", resp.StatusCode)
	}
	var names []string
	for _, sc := range body {
		names = append(names, sc.Name)
		if sc.Doc == "" || sc.Defaults.Population == "" || sc.Defaults.N == 0 || len(sc.Params) == 0 {
			t.Errorf("scenario %s: incomplete listing: %+v", sc.Name, sc)
		}
	}
	want := scenario.Names()
	if !reflect.DeepEqual(names, want) {
		t.Errorf("listed %v, registry has %v", names, want)
	}
}

// scenarioRunBody is the decoded POST /v1/scenarios/run success envelope.
type scenarioRunBody struct {
	Scenario string `json:"scenario"`
	Spec     struct {
		Population string `json:"population"`
		N          int    `json:"n"`
	} `json:"spec"`
	Points []struct {
		Label  string             `json:"label"`
		Values map[string]float64 `json:"values"`
	} `json:"points"`
	Metrics map[string]float64 `json:"metrics"`
	Text    string             `json:"text"`
}

func TestScenarioRun(t *testing.T) {
	ts := newTestServer(t)
	spec := map[string]any{
		"scenario": "phishing-campaign", "seed": 7, "n": 300,
		"params": map[string]any{"days": 10},
	}
	resp := postJSON(t, ts.URL+"/v1/scenarios/run", spec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run: %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("X-Cache = %q, want miss", got)
	}
	var body scenarioRunBody
	decodeBody(t, resp, &body)
	if body.Scenario != "phishing-campaign" || len(body.Points) != 1 {
		t.Fatalf("unexpected body: %+v", body)
	}
	// The normalized spec echoes applied defaults.
	if body.Spec.Population != "general-public" || body.Spec.N != 300 {
		t.Errorf("normalized spec: %+v", body.Spec)
	}
	if _, ok := body.Metrics["victim_rate"]; !ok {
		t.Errorf("metrics missing victim_rate: %v", body.Metrics)
	}
	if !strings.Contains(body.Text, "firefox-active") {
		t.Errorf("rendered text missing condition label:\n%s", body.Text)
	}

	// An identical respelled spec (explicit defaults) hits the cache.
	spec["population"] = "general-public"
	spec["workers"] = 3 // workers never splits the key
	resp2 := postJSON(t, ts.URL+"/v1/scenarios/run", spec)
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK || resp2.Header.Get("X-Cache") != "hit" {
		t.Errorf("repeat run: status %d, X-Cache %q, want 200 hit",
			resp2.StatusCode, resp2.Header.Get("X-Cache"))
	}
}

func TestScenarioRunSweep(t *testing.T) {
	ts := newTestServer(t)
	resp := postJSON(t, ts.URL+"/v1/scenarios/run", map[string]any{
		"scenario": "password", "seed": 3, "n": 200,
		"sweep": map[string]any{"param": "accounts", "values": []float64{2, 20}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep run: %d", resp.StatusCode)
	}
	var body scenarioRunBody
	decodeBody(t, resp, &body)
	if len(body.Points) != 2 {
		t.Fatalf("want 2 sweep points, got %+v", body.Points)
	}
	if !strings.HasPrefix(body.Points[0].Label, "accounts=2") {
		t.Errorf("sweep label: %q", body.Points[0].Label)
	}
	// Portfolio pressure must show up across the axis.
	if body.Metrics["accounts=2/compliance"] < body.Metrics["accounts=20/compliance"] {
		t.Errorf("compliance should not rise with portfolio size: %v", body.Metrics)
	}
}

func TestScenarioRunValidation(t *testing.T) {
	ts := newTestServer(t)
	cases := []struct {
		name  string
		body  map[string]any
		field string
	}{
		{"unknown scenario", map[string]any{"scenario": "nope"}, "scenario"},
		{"unknown population", map[string]any{"scenario": "password", "population": "martians"}, "population"},
		{"unknown param", map[string]any{"scenario": "password",
			"params": map[string]any{"acounts": 5}}, "params.acounts"},
		{"out-of-range param", map[string]any{"scenario": "phishing-campaign",
			"params": map[string]any{"tpr": 1.5}}, "params.tpr"},
		{"wrong param type", map[string]any{"scenario": "password",
			"params": map[string]any{"accounts": 2.5}}, "params.accounts"},
		{"bad enum value", map[string]any{"scenario": "password",
			"params": map[string]any{"policy": "draconian"}}, "params.policy"},
		{"sweep over unknown param", map[string]any{"scenario": "password",
			"sweep": map[string]any{"param": "nope", "values": []float64{1}}}, "sweep.param"},
		{"sweep over non-numeric param", map[string]any{"scenario": "password",
			"sweep": map[string]any{"param": "sso", "values": []float64{1}}}, "sweep.param"},
		{"empty sweep", map[string]any{"scenario": "password",
			"sweep": map[string]any{"param": "accounts", "values": []float64{}}}, "sweep.values"},
		{"out-of-range sweep value", map[string]any{"scenario": "password",
			"sweep": map[string]any{"param": "accounts", "values": []float64{2, 5, 9999}}}, "sweep.values[2]"},
		{"negative n", map[string]any{"scenario": "password", "n": -1}, "n"},
		{"oversized n", map[string]any{"scenario": "password", "n": 1 << 30}, "n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := postJSON(t, ts.URL+"/v1/scenarios/run", tc.body)
			var body struct {
				Error string `json:"error"`
				Field string `json:"field"`
			}
			decodeBody(t, resp, &body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400 (%v)", resp.StatusCode, body)
			}
			if body.Field != tc.field {
				t.Errorf("field %q, want %q (error: %s)", body.Field, tc.field, body.Error)
			}
			if body.Error == "" {
				t.Error("empty error message")
			}
		})
	}

	// Unknown top-level fields are rejected at decode time (plain 400).
	resp := postJSON(t, ts.URL+"/v1/scenarios/run", map[string]any{
		"scenario": "password", "subjects": 100,
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown top-level field: %d, want 400", resp.StatusCode)
	}
}

func TestScenarioRunSweepCap(t *testing.T) {
	ts := newTestServer(t)
	values := make([]float64, maxSweepValues+1)
	for i := range values {
		values[i] = float64(i + 1)
	}
	resp := postJSON(t, ts.URL+"/v1/scenarios/run", map[string]any{
		"scenario": "password", "n": 10,
		"sweep": map[string]any{"param": "accounts", "values": values},
	})
	var body struct {
		Field string `json:"field"`
	}
	decodeBody(t, resp, &body)
	if resp.StatusCode != http.StatusBadRequest || body.Field != "sweep.values" {
		t.Errorf("oversized sweep: %d field %q, want 400 sweep.values", resp.StatusCode, body.Field)
	}
}

func TestScenarioRunFaultsGated(t *testing.T) {
	_, ts := scenarioServer(t, Config{})
	resp := postJSON(t, ts.URL+"/v1/scenarios/run?faults=fail:stage=comprehension,p=1",
		map[string]any{"scenario": "password", "n": 50})
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("faults without AllowFaults: %d, want 403", resp.StatusCode)
	}
}

func TestScenarioRunFaultsBypassCache(t *testing.T) {
	_, ts := scenarioServer(t, Config{AllowFaults: true})
	spec := map[string]any{"scenario": "password", "seed": 5, "n": 100}

	// Prime the cache with a clean run.
	clean := postJSON(t, ts.URL+"/v1/scenarios/run", spec)
	clean.Body.Close()
	if clean.StatusCode != http.StatusOK || clean.Header.Get("X-Cache") != "miss" {
		t.Fatalf("clean run: %d %q", clean.StatusCode, clean.Header.Get("X-Cache"))
	}

	faulted := postJSON(t, ts.URL+"/v1/scenarios/run?faults=fail:stage=comprehension,p=0.5", spec)
	faulted.Body.Close()
	if faulted.StatusCode != http.StatusOK {
		t.Fatalf("faulted run: %d", faulted.StatusCode)
	}
	if faulted.Header.Get("X-Faults") == "" {
		t.Error("faulted run missing X-Faults")
	}
	if got := faulted.Header.Get("X-Cache"); got != "" {
		t.Errorf("faulted run touched the cache: X-Cache %q", got)
	}

	// The clean entry is still served clean afterwards.
	again := postJSON(t, ts.URL+"/v1/scenarios/run", spec)
	again.Body.Close()
	if again.Header.Get("X-Cache") != "hit" || again.Header.Get("X-Faults") != "" {
		t.Errorf("clean repeat after faulted run: X-Cache %q X-Faults %q",
			again.Header.Get("X-Cache"), again.Header.Get("X-Faults"))
	}
}

// TestFaultedRunsRideTheCompiledPath pins the fault grammar and the engine
// path on every door that takes ?faults=: a panic pinned to a stage is a
// 400 pointing at fail:stage=, and a faulted run skips only the closed
// form — a mean-field spec answers compiled, not analytic or interpreted.
func TestFaultedRunsRideTheCompiledPath(t *testing.T) {
	_, ts := scenarioServer(t, Config{AllowFaults: true})
	spec := map[string]any{"scenario": "phishing-study", "population": "general-public-mean", "seed": 5, "n": 100}
	for _, door := range []struct {
		path string
		body any
	}{
		{"/v1/scenarios/run", spec},
		{"/v1/jobs", spec},
		{"/v1/cluster/shard", spec},
		{"/v1/experiments/run", map[string]any{"id": "E1", "n": 60}},
	} {
		resp := postJSON(t, ts.URL+door.path+"?faults=panic:p=0.5,stage=behavior", door.body)
		var out struct {
			Error string `json:"error"`
		}
		decodeBody(t, resp, &out)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(out.Error, "fail:stage=") {
			t.Errorf("%s with a staged panic: %d %q, want 400 pointing at fail:stage=", door.path, resp.StatusCode, out.Error)
		}
	}

	resp := postJSON(t, ts.URL+"/v1/scenarios/run?faults=fail:stage=behavior,p=0.3", spec)
	var body struct {
		Engine string `json:"engine"`
	}
	decodeBody(t, resp, &body)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Engine") != "compiled" || body.Engine != "compiled" {
		t.Errorf("faulted mean-field run: %d X-Engine %q engine %q, want 200 and compiled",
			resp.StatusCode, resp.Header.Get("X-Engine"), body.Engine)
	}
}

func TestScenarioRunDegraded(t *testing.T) {
	srv, ts := scenarioServer(t, Config{DegradedMaxSubjects: 40})
	srv.overload.shed() // force degraded mode

	resp := postJSON(t, ts.URL+"/v1/scenarios/run",
		map[string]any{"scenario": "password", "seed": 2, "n": 5000})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded run: %d", resp.StatusCode)
	}
	if resp.Header.Get("X-Degraded") != "subjects-clamped" {
		t.Errorf("missing X-Degraded, got %q", resp.Header.Get("X-Degraded"))
	}
	if got := resp.Header.Get("X-Cache"); got != "" {
		t.Errorf("degraded run touched the cache: X-Cache %q", got)
	}
	var body scenarioRunBody
	decodeBody(t, resp, &body)
	if body.Spec.N != 40 {
		t.Errorf("degraded n = %d, want clamp to 40", body.Spec.N)
	}

	// ?report=1 under degraded mode records both the requested and the
	// clamped subject count, like the job door's report.
	rresp := postJSON(t, ts.URL+"/v1/scenarios/run?report=1",
		map[string]any{"scenario": "password", "seed": 2, "n": 5000})
	var rbody struct {
		Report *report.RunReport `json:"report"`
	}
	decodeBody(t, rresp, &rbody)
	if rep := rbody.Report; rep == nil || !rep.Degraded || rep.RequestedN != 5000 || rep.DegradedClamp != 40 {
		t.Errorf("degraded report = %+v, want requested_n 5000 and degraded_clamp 40", rep)
	}

	srv.overload.lastShedNano.Store(0) // leave degraded mode
	resp2 := postJSON(t, ts.URL+"/v1/scenarios/run",
		map[string]any{"scenario": "password", "seed": 2, "n": 5000})
	resp2.Body.Close()
	// The clamped run must not have been cached as the full answer.
	if resp2.Header.Get("X-Cache") != "miss" || resp2.Header.Get("X-Degraded") != "" {
		t.Errorf("recovered run: X-Cache %q X-Degraded %q, want miss and no clamp",
			resp2.Header.Get("X-Cache"), resp2.Header.Get("X-Degraded"))
	}
}

func TestScenarioRunTelemetryBypassesCache(t *testing.T) {
	ts := newTestServer(t)
	spec := map[string]any{"scenario": "password", "seed": 9, "n": 80}
	resp := postJSON(t, ts.URL+"/v1/scenarios/run?trace_sample=3&spans=1", spec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("telemetry run: %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Cache"); got != "" {
		t.Errorf("telemetry run touched the cache: X-Cache %q", got)
	}
	var body struct {
		Trace []any `json:"trace"`
		Spans []any `json:"spans"`
	}
	decodeBody(t, resp, &body)
	if len(body.Trace) == 0 || len(body.Spans) == 0 {
		t.Errorf("telemetry payload missing: %d traces, %d spans", len(body.Trace), len(body.Spans))
	}
}

// TestScenarioRunEngineHeader pins the engine-path surfacing contract:
// X-Engine and the "engine" body field report which engine answered, cache
// hits re-serve the original engine marker, and a mean-field population
// resolves analytically.
func TestScenarioRunEngineHeader(t *testing.T) {
	ts := newTestServer(t)

	// phishing-study compiles, so the default (auto) engine takes the
	// compiled path.
	spec := map[string]any{"scenario": "phishing-study", "seed": 5, "n": 100}
	resp := postJSON(t, ts.URL+"/v1/scenarios/run", spec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run: %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Engine"); got != "compiled" {
		t.Errorf("X-Engine = %q, want compiled", got)
	}
	var body struct {
		Engine string `json:"engine"`
	}
	decodeBody(t, resp, &body)
	if body.Engine != "compiled" {
		t.Errorf("body engine = %q, want compiled", body.Engine)
	}

	// A cache hit re-serves the engine marker the miss computed.
	resp2 := postJSON(t, ts.URL+"/v1/scenarios/run", spec)
	resp2.Body.Close()
	if resp2.Header.Get("X-Cache") != "hit" || resp2.Header.Get("X-Engine") != "compiled" {
		t.Errorf("cache hit: X-Cache %q X-Engine %q, want hit and compiled",
			resp2.Header.Get("X-Cache"), resp2.Header.Get("X-Engine"))
	}

	// A mean-field population makes every subject deterministic in its
	// Bernoulli chain, so the run resolves in closed form.
	resp3 := postJSON(t, ts.URL+"/v1/scenarios/run", map[string]any{
		"scenario": "phishing-study", "population": "general-public-mean",
		"seed": 5, "n": 100,
	})
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("analytic run: %d", resp3.StatusCode)
	}
	if got := resp3.Header.Get("X-Engine"); got != "analytic" {
		t.Errorf("analytic X-Engine = %q, want analytic", got)
	}
	var rbody struct {
		Engine string `json:"engine"`
	}
	decodeBody(t, resp3, &rbody)
	if rbody.Engine != "analytic" {
		t.Errorf("analytic body engine = %q, want analytic", rbody.Engine)
	}

	// ?report=1 carries the engine path into the run report.
	resp4 := postJSON(t, ts.URL+"/v1/scenarios/run?report=1", spec)
	var wrap struct {
		Report struct {
			EnginePath string `json:"engine_path"`
		} `json:"report"`
	}
	decodeBody(t, resp4, &wrap)
	if wrap.Report.EnginePath != "compiled" {
		t.Errorf("report engine_path = %q, want compiled", wrap.Report.EnginePath)
	}
}
