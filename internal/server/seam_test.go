package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hitl/internal/cluster"
	"hitl/internal/jobs"
	"hitl/internal/report"
	"hitl/internal/scenario"
)

// exampleBody reads one spec of the examples/scenarios corpus as a request
// body, plus its canonical digest.
func exampleBody(t *testing.T, name string) (map[string]any, string) {
	t.Helper()
	raw, err := os.ReadFile("../../examples/scenarios/" + name)
	if err != nil {
		t.Fatal(err)
	}
	var body map[string]any
	if err := json.Unmarshal(raw, &body); err != nil {
		t.Fatal(err)
	}
	spec, err := scenario.ParseSpec(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	digest, err := scenario.Canonical(spec)
	if err != nil {
		t.Fatal(err)
	}
	return body, digest
}

// getBody GETs url and returns the status, body, and ETag.
func getBody(t *testing.T, url string) (int, []byte, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw, resp.Header.Get("ETag")
}

// TestOneResultPerDigestAcrossDoors sends one example spec through the job
// door and the cluster door (two in-process workers) over a shared store,
// in both orders, then reads the digest back from a fresh server on the
// same store. The two doors encode different envelopes for the spec (the
// job door samples subject traces), so whichever door computes the digest
// first must fix its body and ETag: live, after the second door, and
// after a restart.
func TestOneResultPerDigestAcrossDoors(t *testing.T) {
	body, digest := exampleBody(t, "phishing-study.json")
	for _, order := range [][]string{{"jobs", "cluster"}, {"cluster", "jobs"}} {
		t.Run(order[0]+"-first", func(t *testing.T) {
			dir := t.TempDir()
			w1 := httptest.NewServer(New(quietConfig()))
			defer w1.Close()
			w2 := httptest.NewServer(New(quietConfig()))
			defer w2.Close()
			cfg := quietConfig()
			cfg.StoreDir = dir
			cfg.Cluster = cluster.Config{Workers: []string{w1.URL, w2.URL}, ProbeInterval: -1}
			srv := New(cfg)
			defer srv.Close()
			ts := httptest.NewServer(srv)
			defer ts.Close()

			resultURL := "/v1/jobs/" + digest + "/result"
			var first []byte
			var firstTag string
			for i, door := range order {
				switch door {
				case "jobs":
					st, _, code := submitJob(t, ts.URL, body)
					if code != http.StatusAccepted && code != http.StatusOK {
						t.Fatalf("job submit: %d", code)
					}
					if st.ID != digest {
						t.Fatalf("job id %s, want the spec digest %s", st.ID, digest)
					}
					if done := awaitJob(t, ts.URL, st.ID); done.State != jobs.StateComplete {
						t.Fatalf("job ended %s: %s", done.State, done.Error)
					}
				case "cluster":
					resp := postJSON(t, ts.URL+"/v1/cluster/run", body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						t.Fatalf("cluster run: %d", resp.StatusCode)
					}
				}
				if i == 0 {
					var code int
					code, first, firstTag = getBody(t, ts.URL+resultURL)
					if code != http.StatusOK || firstTag == "" {
						t.Fatalf("result after %s: %d, ETag %q", door, code, firstTag)
					}
				}
			}

			code, live, liveTag := getBody(t, ts.URL+resultURL)
			if code != http.StatusOK || !bytes.Equal(live, first) || liveTag != firstTag {
				t.Errorf("after the %s door the live result changed: ETag %s -> %s", order[1], firstTag, liveTag)
			}
			restarted := quietConfig()
			restarted.StoreDir = dir
			fresh := httptest.NewServer(New(restarted))
			defer fresh.Close()
			code, stored, storedTag := getBody(t, fresh.URL+resultURL)
			if code != http.StatusOK || !bytes.Equal(stored, first) || storedTag != firstTag {
				t.Errorf("after a restart the stored result changed: ETag %s -> %s", firstTag, storedTag)
			}
		})
	}
}

// TestClusterDigestServesItsReport sends one example spec through the
// cluster door (two in-process workers) and the job door over a shared
// store, in both orders. The door that computes the digest first fixes
// its report as well as its result: a cluster-computed digest serves its
// canonical report, live and from a fresh server on the same store, and
// a job-computed digest keeps the job's report after a cluster run.
func TestClusterDigestServesItsReport(t *testing.T) {
	body, digest := exampleBody(t, "phishing-study.json")
	reportURL := "/v1/jobs/" + digest + "/report"
	for _, clusterFirst := range []bool{true, false} {
		name := "jobs-first"
		if clusterFirst {
			name = "cluster-first"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			w1 := httptest.NewServer(New(quietConfig()))
			defer w1.Close()
			w2 := httptest.NewServer(New(quietConfig()))
			defer w2.Close()
			cfg := quietConfig()
			cfg.StoreDir = dir
			cfg.Cluster = cluster.Config{Workers: []string{w1.URL, w2.URL}, ProbeInterval: -1}
			srv := New(cfg)
			defer srv.Close()
			ts := httptest.NewServer(srv)
			defer ts.Close()

			runCluster := func() {
				resp := postJSON(t, ts.URL+"/v1/cluster/run?shards=2", body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("cluster run: %d", resp.StatusCode)
				}
			}
			runJob := func() {
				st, _, code := submitJob(t, ts.URL, body)
				if code != http.StatusAccepted && code != http.StatusOK {
					t.Fatalf("job submit: %d", code)
				}
				if done := awaitJob(t, ts.URL, st.ID); done.State != jobs.StateComplete {
					t.Fatalf("job ended %s: %s", done.State, done.Error)
				}
			}
			if clusterFirst {
				runCluster()
				runJob()
			} else {
				runJob()
				runCluster()
			}

			code, raw, tag := getBody(t, ts.URL+reportURL)
			if code != http.StatusOK || tag == "" {
				t.Fatalf("report: %d, ETag %q: %s", code, tag, raw)
			}
			var rep report.RunReport
			if err := json.Unmarshal(raw, &rep); err != nil {
				t.Fatal(err)
			}
			if !clusterFirst {
				if rep.EngineRuns == 0 || rep.Cluster != nil {
					t.Errorf("the job's report was replaced: engine_runs %d, cluster %+v", rep.EngineRuns, rep.Cluster)
				}
				return
			}
			if rep.SpecDigest != digest || rep.JobID != digest || rep.Cluster == nil || rep.Cluster.Shards != 2 {
				t.Errorf("cluster report: spec_digest %s, job_id %s, cluster %+v; want digest %s and 2 shards",
					rep.SpecDigest, rep.JobID, rep.Cluster, digest)
			}
			restarted := quietConfig()
			restarted.StoreDir = dir
			fresh := httptest.NewServer(New(restarted))
			defer fresh.Close()
			code, stored, storedTag := getBody(t, fresh.URL+reportURL)
			if code != http.StatusOK || !bytes.Equal(stored, raw) || storedTag != tag {
				t.Errorf("after a restart the report changed: %d, ETag %s -> %s", code, tag, storedTag)
			}
		})
	}
}

// doorBody is the part of a scenario result the sync body and the job
// envelope share and that depends on the engine path.
type doorBody struct {
	Engine  string `json:"engine"`
	Points  any    `json:"points"`
	Metrics any    `json:"metrics"`
	Trace   []any  `json:"trace"`
}

// TestJobAndSyncDoorsAgreeOnEngineAndValues sends every example spec
// through the sync door and the job door of one server, and requires the
// job's stored result to carry the sync body's engine path, points and
// metrics. The job door samples subject traces; that must not move it off
// the path the spec resolves to, nor change the values it stores.
func TestJobAndSyncDoorsAgreeOnEngineAndValues(t *testing.T) {
	entries, err := os.ReadDir("../../examples/scenarios")
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(quietConfig()))
	defer ts.Close()
	for _, e := range entries {
		t.Run(e.Name(), func(t *testing.T) {
			body, digest := exampleBody(t, e.Name())
			var sync doorBody
			resp := postJSON(t, ts.URL+"/v1/scenarios/run", body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("sync run: %d", resp.StatusCode)
			}
			decodeBody(t, resp, &sync)

			st, _, code := submitJob(t, ts.URL, body)
			if code != http.StatusAccepted {
				t.Fatalf("job submit: %d", code)
			}
			if done := awaitJob(t, ts.URL, st.ID); done.State != jobs.StateComplete {
				t.Fatalf("job ended %s: %s", done.State, done.Error)
			}
			code, raw, _ := getBody(t, ts.URL+"/v1/jobs/"+digest+"/result")
			if code != http.StatusOK {
				t.Fatalf("job result: %d", code)
			}
			var job doorBody
			if err := json.Unmarshal(raw, &job); err != nil {
				t.Fatal(err)
			}
			if len(job.Trace) == 0 {
				t.Error("job result carries no sampled traces")
			}
			if job.Engine != sync.Engine {
				t.Errorf("job door ran %q, sync door %q", job.Engine, sync.Engine)
			}
			if !reflect.DeepEqual(job.Points, sync.Points) {
				t.Errorf("job points differ from sync points\njob:  %v\nsync: %v", job.Points, sync.Points)
			}
			if !reflect.DeepEqual(job.Metrics, sync.Metrics) {
				t.Errorf("job metrics differ from sync metrics\njob:  %v\nsync: %v", job.Metrics, sync.Metrics)
			}
		})
	}
}

// inlineReport runs spec on /v1/scenarios/run?report=1 and returns the
// canonical bytes of its inline run report. It is safe to call off the
// test goroutine.
func inlineReport(url string, spec map[string]any) ([]byte, error) {
	raw, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	resp, err := http.Post(url+"/v1/scenarios/run?report=1", "application/json", bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var body struct {
		Report *report.RunReport `json:"report"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || resp.StatusCode != http.StatusOK || body.Report == nil {
		return nil, fmt.Errorf("inline run: %d, report %v (%v)", resp.StatusCode, body.Report != nil, err)
	}
	return body.Report.Canonical().MarshalIndented()
}

// jobRunning reports whether the job is still running. It is safe to call
// off the test goroutine.
func jobRunning(url, id string) (bool, error) {
	resp, err := http.Get(url + "/v1/jobs/" + id)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	var st jobs.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return false, err
	}
	return st.State == jobs.StateRunning, nil
}

// TestReportsRunScopedUnderConcurrency runs two example jobs at once
// (JobWorkers 2) under a storm of synchronous runs — ?report=1 and plain
// — and checks every persisted job report, and the canonical form of
// every inline report, against the bytes of the same spec run alone. One
// job runs under a latency fault, and the storm keeps going until that job
// finishes, so other runs certainly complete inside its window: a report
// that read process-wide counters would count their work.
func TestReportsRunScopedUnderConcurrency(t *testing.T) {
	slow, _ := exampleBody(t, "phishing-study.json")
	other, _ := exampleBody(t, "password-expiry-sweep.json")
	var inline []map[string]any
	for _, name := range []string{"password-portfolio.json", "phishing-campaign-ie-passive.json"} {
		b, _ := exampleBody(t, name)
		inline = append(inline, b)
	}
	const slowFaults = "?faults=latency:p=1,ms=1"
	newServer := func() string {
		cfg := quietConfig()
		cfg.StoreDir = t.TempDir()
		cfg.JobWorkers = 2
		cfg.AllowFaults = true
		ts := httptest.NewServer(New(cfg))
		t.Cleanup(ts.Close)
		return ts.URL
	}
	submit := func(url, query string, spec map[string]any) string {
		resp := postJSON(t, url+"/v1/jobs"+query, spec)
		defer resp.Body.Close()
		var st jobs.Status
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil || resp.StatusCode != http.StatusAccepted {
			t.Fatalf("job submit: %d (%v)", resp.StatusCode, err)
		}
		return st.ID
	}
	jobReport := func(url, id string) []byte {
		if st := awaitJob(t, url, id); st.State != jobs.StateComplete {
			t.Fatalf("job %s ended %s: %s", id, st.State, st.Error)
		}
		code, raw, _ := getBody(t, url+"/v1/jobs/"+id+"/report")
		if code != http.StatusOK {
			t.Fatalf("job report: %d", code)
		}
		return raw
	}

	// Alone: one run at a time.
	solo := newServer()
	slowID := submit(solo, slowFaults, slow)
	wantSlow := jobReport(solo, slowID)
	otherID := submit(solo, "", other)
	wantOther := jobReport(solo, otherID)
	wantInline := make([][]byte, len(inline))
	for i, spec := range inline {
		got, err := inlineReport(solo, spec)
		if err != nil {
			t.Fatal(err)
		}
		wantInline[i] = got
	}

	// Together: both jobs at once, and the storm until the slow job ends.
	busy := newServer()
	if submit(busy, slowFaults, slow) != slowID || submit(busy, "", other) != otherID {
		t.Fatal("job ids differ between servers")
	}
	for {
		running, err := jobRunning(busy, slowID)
		if err != nil {
			t.Fatal(err)
		}
		if running {
			break
		}
		time.Sleep(time.Millisecond)
	}
	var (
		overlapped atomic.Int64
		wg         sync.WaitGroup
	)
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				k := (c + i) % len(inline)
				got, err := inlineReport(busy, inline[k])
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(got, wantInline[k]) {
					t.Errorf("inline report under load differs from the solo run:\n%s\nvs\n%s", got, wantInline[k])
					return
				}
				plain, _ := json.Marshal(map[string]any{"scenario": "password", "seed": 1000*c + i, "n": 200})
				if resp, err := http.Post(busy+"/v1/scenarios/run", "application/json", bytes.NewReader(plain)); err == nil {
					resp.Body.Close()
				}
				running, err := jobRunning(busy, slowID)
				if err != nil {
					t.Error(err)
					return
				}
				if !running {
					return
				}
				overlapped.Add(1)
			}
		}(c)
	}
	wg.Wait()
	if overlapped.Load() == 0 {
		t.Fatal("no storm round completed while the slow job ran; the test proved nothing")
	}
	if got := jobReport(busy, slowID); !bytes.Equal(got, wantSlow) {
		t.Errorf("faulted job report under load differs from the solo run:\n%s\nvs\n%s", got, wantSlow)
	}
	if got := jobReport(busy, otherID); !bytes.Equal(got, wantOther) {
		t.Errorf("job report under load differs from the solo run:\n%s\nvs\n%s", got, wantOther)
	}
	t.Logf("%d storm rounds overlapped the slow job", overlapped.Load())
}
