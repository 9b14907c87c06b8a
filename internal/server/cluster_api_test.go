package server

// Tests for the cluster HTTP surface: the shard worker endpoint every
// server exposes, the coordinator endpoint a pool-configured server
// mounts, the pool health view, and the shard-lifecycle flight events.

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hitl/internal/cluster"
	"hitl/internal/scenario"
	"hitl/internal/telemetry"
)

func shardSpecBody() map[string]any {
	return map[string]any{
		"scenario": "phishing-study", "n": 60, "seed": 3, "offset": 30,
		"params": map[string]any{"warning": "firefox-active"},
	}
}

func shardSpec() scenario.Spec {
	return scenario.Spec{Scenario: "phishing-study", N: 60, Seed: 3, Offset: 30,
		Params: map[string]any{"warning": "firefox-active"}}
}

func TestClusterShardEndpoint(t *testing.T) {
	ts := newTestServer(t)

	resp := postJSON(t, ts.URL+"/v1/cluster/shard", shardSpecBody())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("shard run: %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("first shard run X-Cache = %q, want miss", got)
	}
	first, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var sr cluster.ShardResponse
	if err := json.Unmarshal(first, &sr); err != nil {
		t.Fatal(err)
	}

	// The echoed digest is the shard spec's own canonical digest.
	norm, err := scenario.Normalize(shardSpec())
	if err != nil {
		t.Fatal(err)
	}
	want, err := scenario.Canonical(norm)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Digest != want {
		t.Errorf("shard digest = %q, want %q", sr.Digest, want)
	}
	if sr.Faulted || sr.Degraded {
		t.Errorf("clean shard marked faulted=%v degraded=%v", sr.Faulted, sr.Degraded)
	}
	// Unlike /v1/scenarios/run, the raw aggregate crosses the wire: that is
	// what the coordinator merges.
	if len(sr.Points) != 1 || sr.Points[0].Run == nil {
		t.Fatalf("shard response points = %+v, want one point with its Run", sr.Points)
	}
	if sr.Points[0].Run.N != 60 {
		t.Errorf("shard Run.N = %d, want the shard's 60 subjects", sr.Points[0].Run.N)
	}

	// A re-dispatched shard is answered from cache, byte-identical.
	again := postJSON(t, ts.URL+"/v1/cluster/shard", shardSpecBody())
	if again.Header.Get("X-Cache") != "hit" {
		t.Errorf("repeat shard run X-Cache = %q, want hit", again.Header.Get("X-Cache"))
	}
	second, err := io.ReadAll(again.Body)
	again.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if string(first) != string(second) {
		t.Error("cached shard response differs from the computed one")
	}
}

func TestClusterShardFaultsGate(t *testing.T) {
	// Without AllowFaults the chaos seam is closed.
	ts := newTestServer(t)
	resp := postJSON(t, ts.URL+"/v1/cluster/shard?faults=fail:p=1", shardSpecBody())
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Errorf("faults without AllowFaults: %d, want 403", resp.StatusCode)
	}

	// With it, the run executes under injection and says so — the response
	// advertises Faulted so the coordinator never merges it, and it must
	// not be cached.
	cfg := quietConfig()
	cfg.AllowFaults = true
	fts := httptest.NewServer(New(cfg))
	defer fts.Close()
	resp = postJSON(t, fts.URL+"/v1/cluster/shard?faults=fail:stage=comprehension,p=0.3", shardSpecBody())
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("faulted shard run: %d", resp.StatusCode)
	}
	if resp.Header.Get("X-Faults") == "" {
		t.Error("faulted shard response missing X-Faults")
	}
	if got := resp.Header.Get("X-Cache"); got != "" {
		t.Errorf("faulted shard response carries X-Cache %q; faulted runs must bypass the cache", got)
	}
	var sr cluster.ShardResponse
	decodeBody(t, resp, &sr)
	if !sr.Faulted {
		t.Error("shard computed under injection not marked Faulted")
	}
}

func TestClusterShardShedsWhenDegraded(t *testing.T) {
	cfg := quietConfig()
	cfg.DegradeWindow = time.Hour
	ts := httptest.NewServer(New(cfg))
	defer ts.Close()
	ts.Config.Handler.(*Server).overload.shed() // latch degraded mode

	// A degraded worker must shed the shard — never clamp it: a silently
	// shortened shard would poison the coordinator's merge.
	resp := postJSON(t, ts.URL+"/v1/cluster/shard", shardSpecBody())
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("degraded shard run: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("degraded shed missing Retry-After")
	}
}

func TestClusterRunEndToEnd(t *testing.T) {
	w1 := httptest.NewServer(New(quietConfig()))
	defer w1.Close()
	w2 := httptest.NewServer(New(quietConfig()))
	defer w2.Close()

	cfg := quietConfig()
	cfg.StoreDir = t.TempDir()
	cfg.Cluster = cluster.Config{
		Workers:       []string{w1.URL, w2.URL},
		ProbeInterval: -1,
		BaseBackoff:   time.Millisecond,
	}
	ts := httptest.NewServer(New(cfg))
	defer ts.Close()
	defer ts.Config.Handler.(*Server).Close()

	spec := scenario.Spec{Scenario: "phishing-study", N: 80, Seed: 9,
		Params: map[string]any{"warning": "firefox-active"}}
	body := map[string]any{"scenario": spec.Scenario, "n": spec.N, "seed": spec.Seed, "params": spec.Params}

	resp := postJSON(t, ts.URL+"/v1/cluster/run?shards=2&report=1", body)
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("cluster run: %d %s", resp.StatusCode, raw)
	}
	if resp.Header.Get("X-Engine") == "" {
		t.Error("cluster run missing X-Engine")
	}
	var out struct {
		Scenario string             `json:"scenario"`
		Metrics  map[string]float64 `json:"metrics"`
		Cluster  cluster.RunStats   `json:"cluster"`
		Report   *struct {
			Cluster *struct {
				Shards int `json:"shards"`
			} `json:"cluster"`
		} `json:"report"`
	}
	decodeBody(t, resp, &out)
	if out.Cluster.Shards != 2 || out.Cluster.Partial {
		t.Errorf("cluster stats = %+v, want 2 complete shards", out.Cluster)
	}
	if out.Report == nil || out.Report.Cluster == nil || out.Report.Cluster.Shards != 2 {
		t.Errorf("?report=1 cluster section = %+v, want shards=2", out.Report)
	}

	// The distributed metrics equal the local single-run metrics exactly.
	local, err := scenario.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	want := local.Metrics()
	if len(out.Metrics) != len(want) {
		t.Fatalf("metrics = %v, want %v", out.Metrics, want)
	}
	for k, v := range want {
		if out.Metrics[k] != v {
			t.Errorf("metric %s = %v, want %v (bit-identical)", k, out.Metrics[k], v)
		}
	}

	// The merged result is persisted under the parent digest: the async
	// result API serves cluster-computed runs like any local job.
	norm, err := scenario.Normalize(spec)
	if err != nil {
		t.Fatal(err)
	}
	digest, err := scenario.Canonical(norm)
	if err != nil {
		t.Fatal(err)
	}
	stored, err := http.Get(ts.URL + "/v1/jobs/" + digest + "/result")
	if err != nil {
		t.Fatal(err)
	}
	stored.Body.Close()
	if stored.StatusCode != http.StatusOK {
		t.Errorf("stored cluster result: %d, want 200", stored.StatusCode)
	}

	// The pool health view.
	nodes, err := http.Get(ts.URL + "/v1/cluster/nodes")
	if err != nil {
		t.Fatal(err)
	}
	var view struct {
		Workers []string          `json:"workers"`
		Nodes   map[string]string `json:"nodes"`
	}
	decodeBody(t, nodes, &view)
	if len(view.Workers) != 2 || view.Nodes[w1.URL] != "healthy" || view.Nodes[w2.URL] != "healthy" {
		t.Errorf("cluster nodes view = %+v", view)
	}

	// Shard-count validation.
	for _, q := range []string{"0", "nope", "100000"} {
		bad := postJSON(t, ts.URL+"/v1/cluster/run?shards="+q, body)
		bad.Body.Close()
		if bad.StatusCode != http.StatusBadRequest {
			t.Errorf("shards=%s: %d, want 400", q, bad.StatusCode)
		}
	}

	// The run's shard lifecycle is visible on the flight recorder, and the
	// ?kind= filter selects exactly the shard kinds.
	ev, err := http.Get(ts.URL + "/v1/debug/events?kind=" +
		telemetry.EventShardDispatch + "," + telemetry.EventShardRetry)
	if err != nil {
		t.Fatal(err)
	}
	var events struct {
		Events []telemetry.FlightEvent `json:"events"`
	}
	decodeBody(t, ev, &events)
	dispatches := 0
	for _, e := range events.Events {
		if e.Kind != telemetry.EventShardDispatch && e.Kind != telemetry.EventShardRetry {
			t.Fatalf("kind filter leaked event %+v", e)
		}
		if e.Kind == telemetry.EventShardDispatch {
			dispatches++
		}
	}
	if dispatches < 2 {
		t.Errorf("flight recorder shows %d shard dispatches, want >= 2", dispatches)
	}
}

// TestClusterRunRefusesPartialEpisode asks the door for a partial episode:
// it answers 400 naming the rounds field, and no shard is dispatched.
func TestClusterRunRefusesPartialEpisode(t *testing.T) {
	w1 := httptest.NewServer(New(quietConfig()))
	defer w1.Close()
	cfg := quietConfig()
	cfg.Cluster = cluster.Config{Workers: []string{w1.URL}, ProbeInterval: -1}
	srv := New(cfg)
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	body, _ := exampleBody(t, "phishing-adaptive-campaign.json")
	before := fetchMetric(t, ts.URL, "hitl_cluster_shards_dispatched_total")
	resp := postJSON(t, ts.URL+"/v1/cluster/run?shards=2&partial=1", body)
	var out struct {
		Error string `json:"error"`
		Field string `json:"field"`
	}
	decodeBody(t, resp, &out)
	if resp.StatusCode != http.StatusBadRequest || out.Field != "rounds" {
		t.Errorf("partial episode: %d %+v, want 400 on field rounds", resp.StatusCode, out)
	}
	if got := fetchMetric(t, ts.URL, "hitl_cluster_shards_dispatched_total"); got != before {
		t.Errorf("refused episode dispatched shards: counter %v -> %v", before, got)
	}
}

func TestClusterRunWithoutPool(t *testing.T) {
	ts := newTestServer(t)
	resp := postJSON(t, ts.URL+"/v1/cluster/run", shardSpecBody())
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("cluster run without pool: %d, want 503", resp.StatusCode)
	}
	nodes, err := http.Get(ts.URL + "/v1/cluster/nodes")
	if err != nil {
		t.Fatal(err)
	}
	nodes.Body.Close()
	if nodes.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("cluster nodes without pool: %d, want 503", nodes.StatusCode)
	}
}

// fakeWorker serves the shard endpoint with shard, after reading the
// request body — Go's server notices a client that went away, and cancels
// the handler's context, only once the body is consumed — and answers
// every other path (health probes) 200.
func fakeWorker(t *testing.T, shard func(w http.ResponseWriter, r *http.Request, spec scenario.Spec)) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != cluster.ShardPath {
			return
		}
		var spec scenario.Spec
		raw, err := io.ReadAll(r.Body)
		if err == nil {
			err = json.Unmarshal(raw, &spec)
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		shard(w, r, spec)
	}))
	t.Cleanup(ts.Close)
	return ts
}

// clusterRunErr posts spec to a coordinator over workers configured by
// cfg and returns the status and error body.
func clusterRunErr(t *testing.T, cfg cluster.Config, query string) (int, string) {
	t.Helper()
	scfg := quietConfig()
	scfg.Cluster = cfg
	srv := New(scfg)
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	resp := postJSON(t, ts.URL+"/v1/cluster/run"+query, map[string]any{
		"scenario": "phishing-study", "n": 80, "seed": 9,
	})
	var out struct {
		Error string `json:"error"`
	}
	decodeBody(t, resp, &out)
	return resp.StatusCode, out.Error
}

// TestClusterRunNamesExhaustedShard fails shard 1 on its retry budget
// while shard 0 hangs until its request ends: the run must answer 502
// naming shard 1, the root cause, not shard 0, which the failure's own
// fail-fast cancel stopped — and not 499, since the client never left.
func TestClusterRunNamesExhaustedShard(t *testing.T) {
	shard := func(w http.ResponseWriter, r *http.Request, spec scenario.Spec) {
		if spec.Offset == 0 {
			<-r.Context().Done()
			return
		}
		w.Header().Set("Retry-After", "0")
		http.Error(w, "server overloaded", http.StatusTooManyRequests)
	}
	w1, w2 := fakeWorker(t, shard), fakeWorker(t, shard)
	status, msg := clusterRunErr(t, cluster.Config{
		Workers:       []string{w1.URL, w2.URL},
		ProbeInterval: -1,
		BaseBackoff:   time.Millisecond,
		MaxBackoff:    5 * time.Millisecond,
	}, "?shards=2")
	if status != http.StatusBadGateway || !strings.Contains(msg, "shard 1") || !strings.Contains(msg, "retry budget exhausted") {
		t.Errorf("cluster run = %d %q, want 502 naming shard 1's exhausted retry budget", status, msg)
	}
}

// TestClusterRunShardTimeoutIsBadGateway runs against a worker slower than
// the shard timeout: every attempt hits its own deadline, and the run
// must answer 502, not 499 — the deadline was the coordinator's, not the
// client's.
func TestClusterRunShardTimeoutIsBadGateway(t *testing.T) {
	slow := fakeWorker(t, func(w http.ResponseWriter, r *http.Request, _ scenario.Spec) {
		<-r.Context().Done()
	})
	status, msg := clusterRunErr(t, cluster.Config{
		Workers:       []string{slow.URL},
		ProbeInterval: -1,
		ShardTimeout:  20 * time.Millisecond,
		MaxAttempts:   2,
		BaseBackoff:   time.Millisecond,
		MaxBackoff:    5 * time.Millisecond,
	}, "")
	if status != http.StatusBadGateway || !strings.Contains(msg, "retry budget exhausted") {
		t.Errorf("cluster run = %d %q, want 502 on an exhausted retry budget", status, msg)
	}
}
