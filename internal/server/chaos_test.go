package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"testing"
	"time"
)

// TestChaosSoak hammers a deliberately under-provisioned, fault-enabled
// server with concurrent clients mixing clean runs, latency faults,
// injected failures, and injected panics — the `make chaos` target runs it
// under -race. It asserts the containment story end to end: the process
// survives, every response is an expected status, overload sheds instead
// of queuing unboundedly, injected panics are recovered (not fatal), and
// the health endpoint stays live throughout. Skipped unless HITL_CHAOS=1;
// set HITL_CHAOS_OUT to also write a /v1/metrics snapshot there.
func TestChaosSoak(t *testing.T) {
	if os.Getenv("HITL_CHAOS") != "1" {
		t.Skip("chaos soak is opt-in: set HITL_CHAOS=1 (see `make chaos`)")
	}

	cfg := Config{
		Logger:              slog.New(slog.NewTextHandler(io.Discard, nil)),
		MaxInFlight:         2,
		MaxQueue:            2,
		QueueTimeout:        50 * time.Millisecond,
		ComputeTimeout:      500 * time.Millisecond,
		DegradeWindow:       time.Second,
		DegradedMaxSubjects: 50,
		AllowFaults:         true,
	}
	ts := httptest.NewServer(New(cfg))
	defer ts.Close()

	specs := []string{
		"", // clean runs compete with faulted ones
		"?faults=latency:p=1,ms=60",
		"?faults=fail:stage=comprehension,p=0.3",
		"?faults=corrupt:p=0.2",
		"?faults=panic:p=0.02",
		"?faults=panic:p=0.05%3Bfail:stage=behavior,p=0.3",
		"?faults=latency:p=0.5,ms=30;fail:stage=delivery,p=0.1",
	}
	allowed := map[int]bool{
		http.StatusOK:                  true,
		http.StatusTooManyRequests:     true,
		http.StatusServiceUnavailable:  true,
		http.StatusInternalServerError: true, // contained subject panics surface as 500s
		statusClientClosedRequest:      true,
	}

	const clients = 8
	soak := 3 * time.Second
	stop := time.Now().Add(soak)
	statuses := make(map[int]int)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for time.Now().Before(stop) {
				spec := specs[rng.Intn(len(specs))]
				body, _ := json.Marshal(map[string]any{
					"id": "E1", "n": 60 + rng.Intn(120), "seed": rng.Int63n(1 << 30),
				})
				resp, err := http.Post(ts.URL+"/v1/experiments/run"+spec,
					"application/json", bytes.NewReader(body))
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				mu.Lock()
				statuses[resp.StatusCode]++
				mu.Unlock()
			}
		}(c)
	}

	// A liveness probe runs alongside the chaos clients: health must answer
	// (ok, not hang) for the entire soak.
	probeDone := make(chan struct{})
	go func() {
		defer close(probeDone)
		for time.Now().Before(stop) {
			resp, err := http.Get(ts.URL + "/v1/healthz")
			if err != nil {
				t.Errorf("healthz during soak: %v", err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("healthz during soak: %d", resp.StatusCode)
				return
			}
			time.Sleep(100 * time.Millisecond)
		}
	}()
	wg.Wait()
	<-probeDone

	total := 0
	for code, n := range statuses {
		total += n
		if !allowed[code] {
			t.Errorf("unexpected status %d (%d responses)", code, n)
		}
	}
	if total == 0 {
		t.Fatal("soak produced no responses")
	}
	if statuses[http.StatusOK] == 0 {
		t.Error("soak produced no successful runs")
	}
	t.Logf("chaos soak: %d responses %v", total, statuses)

	shed := fetchMetric(t, ts.URL, "hitl_server_shed_total")
	panics := fetchMetric(t, ts.URL, "hitl_sim_panics_recovered_total")
	if shed < 1 {
		t.Errorf("hitl_server_shed_total = %v, want >= 1 under an undersized server", shed)
	}
	if panics < 1 {
		t.Errorf("hitl_sim_panics_recovered_total = %v, want >= 1 with panic faults in the mix", panics)
	}

	if out := os.Getenv("HITL_CHAOS_OUT"); out != "" {
		resp, err := http.Get(ts.URL + "/v1/metrics")
		if err != nil {
			t.Fatalf("metrics snapshot: %v", err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("metrics snapshot: %v", err)
		}
		summary := fmt.Sprintf("# chaos soak: %d responses, statuses %v\n", total, statuses)
		if err := os.WriteFile(out, append([]byte(summary), raw...), 0o644); err != nil {
			t.Fatalf("writing %s: %v", out, err)
		}
		t.Logf("metrics snapshot written to %s", out)
	}
}
