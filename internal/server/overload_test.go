package server

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"hitl/internal/cluster"
)

// slowRunBody is an experiment request that, under the slowFaults latency
// injection, reliably occupies its in-flight slot long enough for the
// overload tests to saturate the server.
func slowRunBody(n int) map[string]any {
	return map[string]any{"id": "E1", "n": n, "seed": 7}
}

const slowFaults = "?faults=latency:p=1,ms=400"

func fetchMetric(t *testing.T, baseURL, name string) float64 {
	t.Helper()
	resp, err := http.Get(baseURL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("parsing %s value %q: %v", name, rest, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found in /v1/metrics output", name)
	return 0
}

func TestOverloadShedsWith429AndRetryAfter(t *testing.T) {
	cfg := quietConfig()
	cfg.MaxInFlight = 1
	cfg.MaxQueue = -1 // no queue: saturation sheds immediately
	cfg.QueueTimeout = 100 * time.Millisecond
	cfg.AllowFaults = true
	ts := httptest.NewServer(New(cfg))
	defer ts.Close()
	srv := ts.Config.Handler.(*Server)

	// Occupy the single slot with a run held open by a latency fault, and
	// wait until it actually holds the slot before probing.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp := postJSON(t, ts.URL+"/v1/experiments/run"+slowFaults, slowRunBody(3))
		resp.Body.Close()
	}()
	waitSlotTaken(t, srv)

	resp := postJSON(t, ts.URL+"/v1/experiments/run", slowRunBody(1))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated server returned %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 response missing Retry-After header")
	} else if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
		t.Errorf("Retry-After = %q, want integer seconds >= 1", ra)
	}
	if shed := fetchMetric(t, ts.URL, "hitl_server_shed_total"); shed < 1 {
		t.Errorf("hitl_server_shed_total = %v, want >= 1", shed)
	}
	if deg := fetchMetric(t, ts.URL, "hitl_server_degraded"); deg != 1 {
		t.Errorf("hitl_server_degraded = %v, want 1 right after a shed", deg)
	}
	wg.Wait()
}

// waitSlotTaken blocks until every in-flight slot is occupied, so overload
// tests probe a provably saturated server instead of racing the slow
// request to admission.
func waitSlotTaken(t *testing.T, srv *Server) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for len(srv.overload.slots) < cap(srv.overload.slots) {
		if time.Now().After(deadline) {
			t.Fatal("in-flight slot never filled")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestQueueDeadlineShedsInsteadOfUnboundedWait(t *testing.T) {
	cfg := quietConfig()
	cfg.MaxInFlight = 1
	cfg.MaxQueue = 8
	cfg.QueueTimeout = 50 * time.Millisecond
	cfg.AllowFaults = true
	ts := httptest.NewServer(New(cfg))
	defer ts.Close()
	srv := ts.Config.Handler.(*Server)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp := postJSON(t, ts.URL+"/v1/experiments/run"+slowFaults, slowRunBody(3))
		resp.Body.Close()
	}()
	waitSlotTaken(t, srv)

	// The saturated server queues this request, but only up to the queue
	// deadline: it must come back 429 in about 50ms, not hang until the
	// multi-second slow run frees the slot.
	start := time.Now()
	resp := postJSON(t, ts.URL+"/v1/experiments/run", slowRunBody(1))
	waited := time.Since(start)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("queued request returned %d, want 429", resp.StatusCode)
	}
	if waited > 2*time.Second {
		t.Errorf("shed took %v, want about the 50ms queue deadline", waited)
	}
	wg.Wait()
}

func TestDegradedModeClampsSubjectsAndBypassesCache(t *testing.T) {
	cfg := quietConfig()
	cfg.DegradedMaxSubjects = 10
	cfg.DegradeWindow = time.Hour // stay degraded for the whole test
	ts := httptest.NewServer(New(cfg))
	defer ts.Close()

	srv := ts.Config.Handler.(*Server)
	srv.overload.shed() // force degraded mode

	resp := postJSON(t, ts.URL+"/v1/experiments/run", map[string]any{"id": "E1", "n": 500})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded run status = %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Degraded"); got != "subjects-clamped" {
		t.Errorf("X-Degraded = %q, want subjects-clamped", got)
	}
	if resp.Header.Get("X-Cache") != "" {
		t.Errorf("degraded response carries X-Cache %q; degraded runs must bypass the cache",
			resp.Header.Get("X-Cache"))
	}
	var body struct {
		N int `json:"n"`
	}
	decodeBody(t, resp, &body)
	if body.N != 10 {
		t.Errorf("degraded run simulated n=%d subjects, want clamp to 10", body.N)
	}
	if runs := fetchMetric(t, ts.URL, "hitl_server_degraded_runs_total"); runs < 1 {
		t.Errorf("hitl_server_degraded_runs_total = %v, want >= 1", runs)
	}

	// The clamped result must not be replayed once the server recovers: a
	// full-fidelity request for the same (id, seed, n) misses the cache.
	srv.overload.lastShedNano.Store(0) // leave degraded mode
	resp2 := postJSON(t, ts.URL+"/v1/experiments/run", map[string]any{"id": "E1", "n": 500})
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("recovered run status = %d", resp2.StatusCode)
	}
	if got := resp2.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("first full-fidelity request after recovery: X-Cache = %q, want miss", got)
	}
	var body2 struct {
		N int `json:"n"`
	}
	decodeBody(t, resp2, &body2)
	if body2.N != 500 {
		t.Errorf("recovered run simulated n=%d subjects, want the requested 500", body2.N)
	}
}

// TestDegradedModeNeverRaisesN runs Figure 3, whose own default is 1500
// subjects per arm, at n=0 on forced-degraded servers: a cap above the
// default must leave the run at its default, and a cap below it must cap
// the default.
func TestDegradedModeNeverRaisesN(t *testing.T) {
	f3 := func(n, degradedCap int) map[string]float64 {
		t.Helper()
		cfg := quietConfig()
		cfg.DegradeWindow = time.Hour
		if degradedCap > 0 {
			cfg.DegradedMaxSubjects = degradedCap
		}
		srv := New(cfg)
		ts := httptest.NewServer(srv)
		defer ts.Close()
		if degradedCap > 0 {
			srv.overload.shed() // force degraded mode
		}
		resp := postJSON(t, ts.URL+"/v1/experiments/run", map[string]any{"id": "F3", "n": n})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("F3 n=%d: status %d", n, resp.StatusCode)
		}
		if got, want := resp.Header.Get("X-Degraded") != "", degradedCap > 0; got != want {
			t.Errorf("F3 n=%d cap=%d: X-Degraded present %v, want %v", n, degradedCap, got, want)
		}
		var body struct {
			Metrics map[string]float64 `json:"metrics"`
		}
		decodeBody(t, resp, &body)
		if len(body.Metrics) == 0 {
			t.Fatalf("F3 n=%d: no metrics", n)
		}
		return body.Metrics
	}
	for _, tc := range []struct{ cap, sameAsN int }{{2500, 0}, {1000, 1000}} {
		if got, want := f3(0, tc.cap), f3(tc.sameAsN, 0); !reflect.DeepEqual(got, want) {
			t.Errorf("degraded F3 at n=0 with cap %d differs from an undegraded n=%d run:\n%v\nvs\n%v", tc.cap, tc.sameAsN, got, want)
		}
	}
}

func TestFaultedRunsBypassCache(t *testing.T) {
	cfg := quietConfig()
	cfg.AllowFaults = true
	ts := httptest.NewServer(New(cfg))
	defer ts.Close()

	run := func(url string) *http.Response {
		t.Helper()
		resp := postJSON(t, url, map[string]any{"id": "E1", "n": 100, "seed": 5})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("run status = %d", resp.StatusCode)
		}
		return resp
	}

	faulted := run(ts.URL + "/v1/experiments/run?faults=fail:stage=comprehension,p=0.3")
	faulted.Body.Close()
	if faulted.Header.Get("X-Cache") != "" {
		t.Errorf("faulted response carries X-Cache %q, want cache bypass", faulted.Header.Get("X-Cache"))
	}
	if got := faulted.Header.Get("X-Faults"); got != "fail:stage=comprehension,p=0.3" {
		t.Errorf("X-Faults = %q", got)
	}

	// The same (id, seed, n) without faults is cacheable and must not have
	// been poisoned by the faulted run: first plain request misses, second
	// hits, and both are fault-free.
	plain1 := run(ts.URL + "/v1/experiments/run")
	plain1.Body.Close()
	if got := plain1.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("first plain request X-Cache = %q, want miss", got)
	}
	plain2 := run(ts.URL + "/v1/experiments/run")
	plain2.Body.Close()
	if got := plain2.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("second plain request X-Cache = %q, want hit", got)
	}
}

func TestFaultsParamGatedByConfig(t *testing.T) {
	ts := newTestServer(t) // AllowFaults defaults to false
	resp := postJSON(t, ts.URL+"/v1/experiments/run?faults=corrupt:p=1", slowRunBody(10))
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Errorf("faults on a gated server: %d, want 403", resp.StatusCode)
	}

	cfg := quietConfig()
	cfg.AllowFaults = true
	ts2 := httptest.NewServer(New(cfg))
	defer ts2.Close()
	resp2 := postJSON(t, ts2.URL+"/v1/experiments/run?faults=explode:p=1", slowRunBody(10))
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed fault spec: %d, want 400", resp2.StatusCode)
	}
}

func TestComputeDeadlineReturns503(t *testing.T) {
	cfg := quietConfig()
	cfg.ComputeTimeout = 50 * time.Millisecond
	cfg.AllowFaults = true
	ts := httptest.NewServer(New(cfg))
	defer ts.Close()

	resp := postJSON(t, ts.URL+"/v1/experiments/run"+slowFaults, slowRunBody(5))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("deadline-blown run returned %d, want 503", resp.StatusCode)
	}
	if n := fetchMetric(t, ts.URL, "hitl_server_compute_deadline_total"); n < 1 {
		t.Errorf("hitl_server_compute_deadline_total = %v, want >= 1", n)
	}
}

func TestHealthzDraining(t *testing.T) {
	ts := newTestServer(t)
	srv := ts.Config.Handler.(*Server)

	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz before draining: %d, want 200", resp.StatusCode)
	}

	srv.SetDraining()
	resp, err = http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var body cluster.Health
	decodeBody(t, resp, &body)
	if resp.StatusCode != http.StatusServiceUnavailable || body.Status != cluster.StatusDraining {
		t.Errorf("healthz while draining: %d %+v, want 503 draining", resp.StatusCode, body)
	}

	// Draining only affects the health endpoint: compute still finishes.
	run := postJSON(t, ts.URL+"/v1/experiments/run", slowRunBody(20))
	run.Body.Close()
	if run.StatusCode != http.StatusOK {
		t.Errorf("compute while draining: %d, want 200", run.StatusCode)
	}
}

func TestExperimentRunBodyLimit413(t *testing.T) {
	cfg := quietConfig()
	cfg.MaxBodyBytes = 16
	ts := httptest.NewServer(New(cfg))
	defer ts.Close()
	resp := postJSON(t, ts.URL+"/v1/experiments/run", map[string]any{
		"id": "E1", "n": 100, "seed": 123456789,
	})
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized experiment body: %d, want 413", resp.StatusCode)
	}
}

func TestAcquireReleasesQueuedWaiter(t *testing.T) {
	o := newOverload(1, 4, time.Second, time.Second)
	rel1, err := o.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		rel2, err := o.acquire(context.Background())
		if err == nil {
			rel2()
		}
		done <- err
	}()
	// Give the waiter time to enqueue, then free the slot.
	time.Sleep(10 * time.Millisecond)
	rel1()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("queued waiter got %v, want the freed slot", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("queued waiter never acquired the freed slot")
	}
	if o.shedTotal.Load() != 0 {
		t.Errorf("shedTotal = %d, want 0", o.shedTotal.Load())
	}
}

func TestAcquireClientGoneWhileQueued(t *testing.T) {
	o := newOverload(1, 4, time.Hour, time.Second)
	rel, err := o.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer rel()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := o.acquire(ctx)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("canceled waiter never returned")
	}
	// A client abandoning the queue is not an overload shed.
	if o.shedTotal.Load() != 0 {
		t.Errorf("shedTotal = %d, want 0 after client cancel", o.shedTotal.Load())
	}
}

func TestAdmissionDisabled(t *testing.T) {
	o := newOverload(-1, 0, time.Second, time.Second)
	for i := 0; i < 100; i++ {
		rel, err := o.acquire(context.Background())
		if err != nil {
			t.Fatalf("acquire %d: %v", i, err)
		}
		rel()
	}
}
