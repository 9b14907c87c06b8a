package cluster_test

// End-to-end coordinator tests against real hitl-serve workers
// (httptest-hosted server.New instances): the distributed golden contract
// — a run sharded across the pool merges bit-identical to the single-node
// run — must hold through dead workers, fault injection, and retries, and
// the robustness machinery must be visible in metrics and flight events.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hitl/internal/cluster"
	"hitl/internal/scenario"
	_ "hitl/internal/scenario/all"
	"hitl/internal/server"
	"hitl/internal/sim"
	"hitl/internal/telemetry"
)

const examplesDir = "../../examples/scenarios"

func quietServerConfig() server.Config {
	return server.Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))}
}

// newWorker starts a real API server, optionally wrapped in a
// chaos middleware, and returns its httptest handle.
func newWorker(t *testing.T, cfg server.Config, wrap func(http.Handler) http.Handler) *httptest.Server {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = quietServerConfig().Logger
	}
	var h http.Handler = server.New(cfg)
	if wrap != nil {
		h = wrap(h)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts
}

// newCoord builds a test coordinator: probing off (tests call ProbeNow
// explicitly) and millisecond backoffs so retry storms finish fast.
func newCoord(t *testing.T, workers []string, mut func(*cluster.Config)) *cluster.Coordinator {
	t.Helper()
	cfg := cluster.Config{
		Workers:       workers,
		ProbeInterval: -1,
		BaseBackoff:   time.Millisecond,
		MaxBackoff:    5 * time.Millisecond,
		ShardTimeout:  30 * time.Second,
	}
	if mut != nil {
		mut(&cfg)
	}
	coord, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	return coord
}

func readExample(t *testing.T, name string) scenario.Spec {
	t.Helper()
	f, err := os.Open(filepath.Join(examplesDir, name))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	spec, err := scenario.ParseSpec(f)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// resultBytes serializes a result for byte-exact comparison. scenario.Point
// excludes the raw aggregate from its own JSON, so a flattened form that
// includes Run is marshaled instead: equal bytes means equal counters,
// per-subject observation vectors, derived values, and engine path.
func resultBytes(t *testing.T, res *scenario.Result) []byte {
	t.Helper()
	type flatPoint struct {
		Label  string             `json:"label"`
		Param  float64            `json:"param"`
		Run    *sim.Result        `json:"run"`
		Values map[string]float64 `json:"values"`
	}
	spec := res.Spec
	spec.Workers = 0 // the one field allowed to differ between identical runs
	flat := struct {
		Scenario string        `json:"scenario"`
		Spec     scenario.Spec `json:"spec"`
		Engine   string        `json:"engine"`
		Points   []flatPoint   `json:"points"`
	}{res.Scenario, spec, res.EnginePath, make([]flatPoint, len(res.Points))}
	for i, p := range res.Points {
		flat.Points[i] = flatPoint{p.Label, p.Param, p.Run, p.Values}
	}
	b, err := json.Marshal(flat)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func runLocal(t *testing.T, spec scenario.Spec) *scenario.Result {
	t.Helper()
	res, err := scenario.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// metricValue reads one un-labeled metric from the Prometheus rendering.
func metricValue(t *testing.T, name string) float64 {
	t.Helper()
	var b bytes.Buffer
	if err := telemetry.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(b.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("metric %s: %v", name, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not rendered", name)
	return 0
}

// TestClusterGoldenBitIdentical is the distributed golden test: every
// example spec, sharded across three real workers at two seeds and two
// shard counts, must merge byte-identical to the in-process single run.
func TestClusterGoldenBitIdentical(t *testing.T) {
	workers := make([]string, 3)
	for i := range workers {
		workers[i] = newWorker(t, quietServerConfig(), nil).URL
	}
	coord := newCoord(t, workers, nil)

	entries, err := os.ReadDir(examplesDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		for _, seed := range []int64{5, 77} {
			for _, shards := range []int{3, 5} {
				t.Run(e.Name()+"/seed="+strconv.FormatInt(seed, 10)+"/shards="+strconv.Itoa(shards), func(t *testing.T) {
					spec := readExample(t, e.Name())
					spec.Seed = seed
					spec.N = 120 // keep the matrix cheap; determinism is N-independent
					want := resultBytes(t, runLocal(t, spec))

					res, stats, err := coord.Run(context.Background(), spec, cluster.RunOptions{Shards: shards})
					if err != nil {
						t.Fatalf("cluster run: %v (%s)", err, stats)
					}
					if got := resultBytes(t, res); !bytes.Equal(got, want) {
						t.Errorf("cluster result differs from single-node run\ncluster %s\nlocal   %s", got, want)
					}
					if stats.Partial || len(stats.Missing) != 0 {
						t.Errorf("healthy pool produced partial stats: %s", stats)
					}
					if stats.Dispatched < stats.Shards {
						t.Errorf("dispatched %d < shards %d", stats.Dispatched, stats.Shards)
					}
				})
			}
		}
	}
}

// TestClusterFailoverOnDeadWorker kills the worker that served the most
// shards and re-runs: the run must still merge bit-identical, with the
// failover visible in stats, metrics, and the flight recorder.
func TestClusterFailoverOnDeadWorker(t *testing.T) {
	servers := make([]*httptest.Server, 3)
	workers := make([]string, 3)
	for i := range servers {
		servers[i] = newWorker(t, quietServerConfig(), nil)
		workers[i] = servers[i].URL
	}
	coord := newCoord(t, workers, nil)

	spec := scenario.Spec{Scenario: "phishing-study", N: 200, Seed: 11,
		Params: map[string]any{"warning": "firefox-active"}}
	want := resultBytes(t, runLocal(t, spec))

	// Clean run first: establishes the baseline and the placement.
	res, stats, err := coord.Run(context.Background(), spec, cluster.RunOptions{Shards: 6})
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	if got := resultBytes(t, res); !bytes.Equal(got, want) {
		t.Fatal("clean cluster run differs from single-node run")
	}
	if stats.Failovers != 0 {
		t.Errorf("clean run recorded %d failovers, want 0", stats.Failovers)
	}

	// Kill the busiest worker. With 6 shards on 3 workers, pigeonhole
	// guarantees it served at least one, so the re-run must fail over.
	victim := ""
	for url, n := range stats.Nodes {
		if victim == "" || n > stats.Nodes[victim] {
			victim = url
		}
	}
	for _, s := range servers {
		if s.URL == victim {
			s.Close()
		}
	}

	failoversBefore := metricValue(t, "hitl_cluster_shard_failovers_total")
	flightMark := telemetry.Flight.Total()

	res, stats, err = coord.Run(context.Background(), spec, cluster.RunOptions{Shards: 6})
	if err != nil {
		t.Fatalf("run with dead worker: %v (%s)", err, stats)
	}
	if got := resultBytes(t, res); !bytes.Equal(got, want) {
		t.Error("failed-over cluster run differs from single-node run")
	}
	if stats.Failovers < 1 {
		t.Errorf("stats.Failovers = %d, want >= 1 after killing %s (served %d shards)",
			stats.Failovers, victim, stats.Nodes[victim])
	}
	if n := stats.Nodes[victim]; n != 0 {
		t.Errorf("dead worker credited with %d shards", n)
	}
	if got := metricValue(t, "hitl_cluster_shard_failovers_total"); got <= failoversBefore {
		t.Errorf("hitl_cluster_shard_failovers_total = %v, want > %v", got, failoversBefore)
	}
	if ev := telemetry.Flight.Events(flightMark, telemetry.EventShardFailover); len(ev) == 0 {
		t.Error("no shard-failover flight events recorded")
	}
	if ev := telemetry.Flight.Events(flightMark, telemetry.EventNodeUnhealthy); len(ev) == 0 {
		t.Error("no node-unhealthy flight event recorded for the dead worker")
	}
	if state := coord.NodeStates()[victim]; state != "unhealthy" {
		t.Errorf("dead worker state = %q, want unhealthy", state)
	}
}

// TestClusterChaosFaultInjectionRetries injects latency and comprehension-
// failure fault rules into the first shard requests (the workers run with
// AllowFaults, as a chaos drill would): the coordinator must reject the
// perturbed shard aggregates, retry, and still merge bit-identical, with
// hitl_cluster_shard_retries_total advancing.
func TestClusterChaosFaultInjectionRetries(t *testing.T) {
	const faultSpec = "latency:p=1,ms=5;fail:stage=comprehension,p=0.3"
	var injected atomic.Int32
	wrap := func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == cluster.ShardPath && injected.Add(1) <= 2 {
				q := r.URL.Query()
				q.Set("faults", faultSpec)
				r.URL.RawQuery = q.Encode()
			}
			next.ServeHTTP(w, r)
		})
	}
	cfg := quietServerConfig()
	cfg.AllowFaults = true
	workers := []string{
		newWorker(t, cfg, wrap).URL, // shared counter: the first two shard
		newWorker(t, cfg, wrap).URL, // requests are faulted wherever they land
	}
	coord := newCoord(t, workers, nil)

	spec := scenario.Spec{Scenario: "phishing-study", N: 160, Seed: 21,
		Params: map[string]any{"warning": "firefox-active"}}
	want := resultBytes(t, runLocal(t, spec))

	retriesBefore := metricValue(t, "hitl_cluster_shard_retries_total")
	flightMark := telemetry.Flight.Total()

	res, stats, err := coord.Run(context.Background(), spec, cluster.RunOptions{Shards: 4})
	if err != nil {
		t.Fatalf("chaos run: %v (%s)", err, stats)
	}
	if got := resultBytes(t, res); !bytes.Equal(got, want) {
		t.Error("chaos run differs from single-node run — a faulted shard reached the merge")
	}
	if injected.Load() < 2 {
		t.Fatalf("middleware saw %d shard requests, want >= 2", injected.Load())
	}
	if stats.Retries < 1 {
		t.Errorf("stats.Retries = %d, want >= 1 (faulted shards must be re-dispatched)", stats.Retries)
	}
	if got := metricValue(t, "hitl_cluster_shard_retries_total"); got <= retriesBefore {
		t.Errorf("hitl_cluster_shard_retries_total = %v, want > %v", got, retriesBefore)
	}
	if ev := telemetry.Flight.Events(flightMark, telemetry.EventShardRetry); len(ev) == 0 {
		t.Error("no shard-retry flight events recorded")
	}
}

// TestClusterPartialCompletion drives shards 1+ into permanent shedding:
// without AllowPartial the run fails; with it, the merge covers shard 0
// with exact missing-shard accounting.
func TestClusterPartialCompletion(t *testing.T) {
	wrap := func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == cluster.ShardPath {
				body, _ := io.ReadAll(r.Body)
				r.Body = io.NopCloser(bytes.NewReader(body))
				var sp scenario.Spec
				if json.Unmarshal(body, &sp) == nil && sp.Offset > 0 {
					w.Header().Set("Retry-After", "0")
					w.WriteHeader(http.StatusServiceUnavailable)
					return
				}
			}
			next.ServeHTTP(w, r)
		})
	}
	workers := []string{
		newWorker(t, quietServerConfig(), wrap).URL,
		newWorker(t, quietServerConfig(), wrap).URL,
	}
	coord := newCoord(t, workers, func(c *cluster.Config) { c.MaxAttempts = 2 })

	spec := scenario.Spec{Scenario: "phishing-study", N: 90, Seed: 4,
		Params: map[string]any{"warning": "firefox-active"}}

	if _, _, err := coord.Run(context.Background(), spec, cluster.RunOptions{Shards: 3}); err == nil {
		t.Fatal("two shards permanently shed without AllowPartial: want error")
	}

	partialBefore := metricValue(t, "hitl_cluster_partial_runs_total")
	res, stats, err := coord.Run(context.Background(), spec,
		cluster.RunOptions{Shards: 3, AllowPartial: true})
	if err != nil {
		t.Fatalf("partial run: %v (%s)", err, stats)
	}
	if !stats.Partial {
		t.Error("stats.Partial = false, want true")
	}
	if len(stats.Missing) != 2 {
		t.Errorf("stats.Missing = %v, want the two shed shards", stats.Missing)
	}
	run := res.Points[0].Run
	if run.N != 90 {
		t.Errorf("partial result N = %d, want the full 90 for honest rate denominators", run.N)
	}
	if run.Completed != 30 {
		t.Errorf("partial result Completed = %d, want shard 0's 30 subjects", run.Completed)
	}
	if got := metricValue(t, "hitl_cluster_partial_runs_total"); got <= partialBefore {
		t.Errorf("hitl_cluster_partial_runs_total = %v, want > %v", got, partialBefore)
	}
}

// TestClusterEpisodeCountsOneRun shards a 4-round adaptive episode across
// the pool: the coordinated run ticks hitl_cluster_runs_total exactly once,
// however many rounds it shards, and is never counted partial.
func TestClusterEpisodeCountsOneRun(t *testing.T) {
	workers := []string{
		newWorker(t, quietServerConfig(), nil).URL,
		newWorker(t, quietServerConfig(), nil).URL,
	}
	coord := newCoord(t, workers, nil)
	spec := readExample(t, "phishing-adaptive-campaign.json")
	spec.N = 120

	runsBefore := metricValue(t, "hitl_cluster_runs_total")
	partialBefore := metricValue(t, "hitl_cluster_partial_runs_total")
	_, stats, err := coord.Run(context.Background(), spec, cluster.RunOptions{Shards: 2})
	if err != nil {
		t.Fatalf("episode run: %v (%s)", err, stats)
	}
	if stats.Rounds != spec.Rounds || stats.Shards != 2*spec.Rounds {
		t.Errorf("stats = %s over %d rounds, want 2 shards per round", stats, stats.Rounds)
	}
	if got := metricValue(t, "hitl_cluster_runs_total") - runsBefore; got != 1 {
		t.Errorf("a %d-round episode moved hitl_cluster_runs_total by %v, want 1", spec.Rounds, got)
	}
	if got := metricValue(t, "hitl_cluster_partial_runs_total") - partialBefore; got != 0 {
		t.Errorf("a complete episode moved hitl_cluster_partial_runs_total by %v, want 0", got)
	}
}

// TestClusterRefusesPartialEpisode asks for a partial episode: the
// coordinator refuses it as a "rounds" spec error before any shard leaves,
// because a short round would change every later round's parameters.
func TestClusterRefusesPartialEpisode(t *testing.T) {
	var shardHits atomic.Int32
	wrap := func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == cluster.ShardPath {
				shardHits.Add(1)
			}
			next.ServeHTTP(w, r)
		})
	}
	coord := newCoord(t, []string{newWorker(t, quietServerConfig(), wrap).URL}, nil)
	spec := readExample(t, "phishing-adaptive-campaign.json")
	spec.N = 60

	dispatchedBefore := metricValue(t, "hitl_cluster_shards_dispatched_total")
	res, _, err := coord.Run(context.Background(), spec, cluster.RunOptions{Shards: 2, AllowPartial: true})
	var se *scenario.SpecError
	if !errors.As(err, &se) || se.Field != "rounds" {
		t.Fatalf("partial episode: err %v, want a SpecError on rounds", err)
	}
	if res != nil {
		t.Error("refused run returned a result")
	}
	if n := shardHits.Load(); n != 0 {
		t.Errorf("refused run reached a worker %d times", n)
	}
	if got := metricValue(t, "hitl_cluster_shards_dispatched_total"); got != dispatchedBefore {
		t.Errorf("refused run dispatched shards: counter %v -> %v", dispatchedBefore, got)
	}
}

// TestProbeTracksWorkerHealth exercises the health state machine: a
// draining worker is drained from placement, a dead one goes unhealthy,
// and a recovered one rejoins with a node-recovered flight event.
func TestProbeTracksWorkerHealth(t *testing.T) {
	healthy := newWorker(t, quietServerConfig(), nil)

	drainingSrv := server.New(quietServerConfig())
	drainingSrv.SetDraining()
	draining := httptest.NewServer(drainingSrv)
	t.Cleanup(draining.Close)

	// A flaky worker: 503 until the flag flips, then a plain 200.
	var down atomic.Bool
	down.Store(true)
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte(`{"status":"ok"}`))
	}))
	t.Cleanup(flaky.Close)

	coord := newCoord(t, []string{healthy.URL, draining.URL, flaky.URL}, nil)
	coord.ProbeNow(context.Background())

	states := coord.NodeStates()
	if states[healthy.URL] != "healthy" {
		t.Errorf("healthy worker state = %q", states[healthy.URL])
	}
	if states[draining.URL] != "draining" {
		t.Errorf("draining worker state = %q", states[draining.URL])
	}
	if states[flaky.URL] != "unhealthy" {
		t.Errorf("503 worker state = %q", states[flaky.URL])
	}
	if n := metricValue(t, "hitl_cluster_node_unhealthy"); n < 2 {
		t.Errorf("hitl_cluster_node_unhealthy = %v, want >= 2", n)
	}

	// With two of three workers out, every shard lands on the survivor.
	spec := scenario.Spec{Scenario: "phishing-study", N: 60, Seed: 2,
		Params: map[string]any{"warning": "firefox-active"}}
	want := resultBytes(t, runLocal(t, spec))
	res, stats, err := coord.Run(context.Background(), spec, cluster.RunOptions{Shards: 3})
	if err != nil {
		t.Fatalf("run with drained pool: %v", err)
	}
	if got := resultBytes(t, res); !bytes.Equal(got, want) {
		t.Error("drained-pool run differs from single-node run")
	}
	if got := stats.Nodes[healthy.URL]; got != 3 {
		t.Errorf("survivor served %d shards, want all 3 (nodes %v)", got, stats.Nodes)
	}

	// Recovery: the flaky worker comes back and rejoins on the next probe.
	flightMark := telemetry.Flight.Total()
	down.Store(false)
	coord.ProbeNow(context.Background())
	if state := coord.NodeStates()[flaky.URL]; state != "healthy" {
		t.Errorf("recovered worker state = %q, want healthy", state)
	}
	if ev := telemetry.Flight.Events(flightMark, telemetry.EventNodeRecovered); len(ev) == 0 {
		t.Error("no node-recovered flight event on rejoin")
	}
}
