package jobs

import (
	"encoding/json"
	"testing"
	"time"

	"hitl/internal/faults"
	"hitl/internal/report"
	"hitl/internal/store"
)

// submitFaultedDegraded runs the shared test spec as a faulted, degraded
// job and returns the completed job plus the identifiers involved.
func submitFaultedDegraded(t *testing.T, st *store.Store, workers int) (j *Job, id, digest, faultSpec string) {
	t.Helper()
	m := NewManager(Config{Store: st})
	norm, digest := testSpec(t, workers)
	fs := faults.MustParse("fail:stage=comprehension,p=0.2")
	id = VariantID(digest, fs.String())
	j, created, err := m.Submit(norm, id, SubmitOptions{
		Faults:     fs,
		SpecDigest: digest,
		Degraded:   true,
		RequestedN: 480,
	})
	if err != nil || !created {
		t.Fatalf("Submit = created %v, err %v", created, err)
	}
	if st := waitComplete(t, j); st.State != StateComplete {
		t.Fatalf("state = %s (%s)", st.State, st.Error)
	}
	return j, id, digest, fs.String()
}

// TestJobReportFaultedDegraded is the end-to-end acceptance check: a
// faulted + degraded job yields a persisted canonical report naming the
// fired fault rules, the degraded clamp, and per-stage failure counts.
func TestJobReportFaultedDegraded(t *testing.T) {
	st := openStore(t)
	j, id, digest, faultSpec := submitFaultedDegraded(t, st, 0)

	body, meta, ok := j.Report()
	if !ok {
		t.Fatal("completed job serves no report")
	}
	var rep report.RunReport
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.JobID != id || rep.SpecDigest != digest {
		t.Errorf("report identity = job %s spec %s, want %s / %s", rep.JobID, rep.SpecDigest, id, digest)
	}
	if rep.Scenario != "phishing-campaign" || rep.EngineRuns != 2 {
		t.Errorf("report = scenario %s, %d engine runs; want phishing-campaign with 2", rep.Scenario, rep.EngineRuns)
	}
	if !rep.Degraded || rep.DegradedClamp != 60 || rep.RequestedN != 480 {
		t.Errorf("degraded = %v clamp %d requested %d, want true/60/480", rep.Degraded, rep.DegradedClamp, rep.RequestedN)
	}
	if rep.FaultSpec != faultSpec {
		t.Errorf("fault spec = %q, want %q", rep.FaultSpec, faultSpec)
	}
	if len(rep.FaultRules) != 1 || rep.FaultRules[0].Fired == 0 {
		t.Errorf("fault rules = %+v, want one fired rule", rep.FaultRules)
	}
	if rep.StageFailures["comprehension"] == 0 {
		t.Errorf("stage failures = %v, want injected comprehension failures", rep.StageFailures)
	}
	// Persisted form is canonical: no scheduling-dependent fields.
	if rep.Workers != 0 || rep.EffectiveWorkers != 0 || rep.Phases != (report.RunReport{}).Phases {
		t.Errorf("persisted report not canonical: workers %d/%d phases %+v",
			rep.Workers, rep.EffectiveWorkers, rep.Phases)
	}
	if rep.Subjects != 2*60 {
		t.Errorf("subjects = %d, want 2 runs of 60 from the job's own collector", rep.Subjects)
	}
	// The report landed in the store under the derived key, same bytes.
	stored, smeta, err := st.Get(ReportKey(id))
	if err != nil {
		t.Fatal(err)
	}
	if string(stored) != string(body) || smeta.ETag() != meta.ETag() {
		t.Error("stored report differs from the job's in-memory copy")
	}
}

// TestJobReportWorkerIndependent runs the same faulted job at different
// engine worker counts and checks the persisted report bytes (and so the
// ETag) are bit-identical.
func TestJobReportWorkerIndependent(t *testing.T) {
	j1, _, _, _ := submitFaultedDegraded(t, openStore(t), 1)
	j4, _, _, _ := submitFaultedDegraded(t, openStore(t), 4)
	b1, m1, ok1 := j1.Report()
	b4, m4, ok4 := j4.Report()
	if !ok1 || !ok4 {
		t.Fatal("missing report")
	}
	if string(b1) != string(b4) {
		t.Errorf("report bytes differ by worker count:\n%s\nvs\n%s", b1, b4)
	}
	if m1.ETag() != m4.ETag() {
		t.Errorf("report ETag differs by worker count: %s vs %s", m1.ETag(), m4.ETag())
	}
}

// TestJobReportSurvivesRestart opens a fresh manager over the same store
// and checks the replayed job serves the identical report with a stable
// ETag, without recomputing.
func TestJobReportSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	st1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	j1, id, _, _ := submitFaultedDegraded(t, st1, 0)
	b1, m1, ok := j1.Report()
	if !ok {
		t.Fatal("missing report before restart")
	}

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	m2 := NewManager(Config{Store: st2})
	j2, err := m2.Get(id)
	if err != nil {
		t.Fatalf("restarted manager lost the job: %v", err)
	}
	b2, m2meta, ok := j2.Report()
	if !ok {
		t.Fatal("restarted job serves no report")
	}
	if string(b2) != string(b1) || m2meta.ETag() != m1.ETag() {
		t.Errorf("report changed across restart: etag %s vs %s", m2meta.ETag(), m1.ETag())
	}
	if m2.submitted.Load() != 0 {
		t.Errorf("restart recomputed: submitted = %d, want 0", m2.submitted.Load())
	}
}

// TestFailedJobReportInMemory checks a failed job still explains itself —
// an in-memory report carrying the error — without persisting anything
// under the report key (failure is retryable; the next attempt replaces it).
func TestFailedJobReportInMemory(t *testing.T) {
	st := openStore(t)
	m := NewManager(Config{Store: st, Timeout: time.Nanosecond})
	norm, digest := testSpec(t, 0)
	j, _, err := m.Submit(norm, digest, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if status := waitComplete(t, j); status.State != StateFailed {
		t.Fatalf("state = %s, want failed", status.State)
	}
	body, _, ok := j.Report()
	if !ok {
		t.Fatal("failed job serves no report")
	}
	var rep report.RunReport
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Errors) == 0 && !rep.TimedOut && !rep.Canceled {
		t.Errorf("failure report carries no diagnosis: %+v", rep)
	}
	if st.Has(ReportKey(digest)) {
		t.Error("failed job persisted a report; failures must stay retryable")
	}
}
