package telemetry

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock is a deterministic Clock that advances a fixed step per Now().
type fakeClock struct {
	now  time.Time
	step time.Duration
}

func (c *fakeClock) Now() time.Time {
	t := c.now
	c.now = c.now.Add(c.step)
	return t
}

func TestStartSpanWithoutTracerIsNil(t *testing.T) {
	ctx, sp := StartSpan(context.Background(), "run")
	if sp != nil {
		t.Fatal("StartSpan without a tracer must return a nil span")
	}
	if ctx != context.Background() {
		t.Error("StartSpan without a tracer must return the context unchanged")
	}
	// All nil-span methods are no-ops, not panics.
	sp.SetAttr("k", "v")
	sp.End()
	sp.End()
}

func TestSpanTreeAndClock(t *testing.T) {
	clock := &fakeClock{now: time.Unix(1000, 0), step: time.Second}
	tr := NewTracer(clock)
	ctx := WithTracer(context.Background(), tr)

	ctx, root := StartSpan(ctx, "experiment", String("id", "E1"))
	cctx, child := StartSpan(ctx, "run")
	_, grand := StartSpan(cctx, "worker-batch")
	grand.End()
	child.End()
	root.SetAttr("note", "done")
	root.End()
	root.End() // idempotent

	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	byName := map[string]SpanRecord{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	exp, run, worker := byName["experiment"], byName["run"], byName["worker-batch"]
	if exp.Parent != 0 {
		t.Errorf("experiment parent = %d, want 0 (root)", exp.Parent)
	}
	if run.Parent != exp.ID {
		t.Errorf("run parent = %d, want %d", run.Parent, exp.ID)
	}
	if worker.Parent != run.ID {
		t.Errorf("worker parent = %d, want %d", worker.Parent, run.ID)
	}
	if exp.Attrs["id"] != "E1" || exp.Attrs["note"] != "done" {
		t.Errorf("experiment attrs = %v", exp.Attrs)
	}
	// The fake clock steps once per Now(): starts at t0,t1,t2 and ends at
	// t3,t4,t5, so each span has a positive, exact duration.
	for _, s := range spans {
		if s.DurationSeconds <= 0 {
			t.Errorf("span %s duration = %v, want > 0", s.Name, s.DurationSeconds)
		}
	}
	if worker.DurationSeconds != 1 {
		t.Errorf("worker-batch duration = %v, want exactly 1s from the fake clock", worker.DurationSeconds)
	}
}

func TestTracerWriteJSON(t *testing.T) {
	tr := NewTracer(nil)
	ctx := WithTracer(context.Background(), tr)
	_, sp := StartSpan(ctx, "run", String("n", "100"))
	sp.End()

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Spans []SpanRecord `json:"spans"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("span export is not valid JSON: %v", err)
	}
	if len(doc.Spans) != 1 || doc.Spans[0].Name != "run" || doc.Spans[0].Attrs["n"] != "100" {
		t.Errorf("unexpected span export: %+v", doc.Spans)
	}
}

func makeTrace(seed int64, subject int) SubjectTrace {
	return SubjectTrace{
		Subject:     subject,
		Seed:        seed,
		Heeded:      subject%2 == 0,
		FailedStage: "comprehension",
		Checks: []StageCheck{
			{Stage: "attention-switch", P: 0.9, Passed: true},
			{Stage: "comprehension", P: 0.4, Passed: false, Note: "inaccurate mental model"},
		},
	}
}

// TestConsiderRangeMatchesConsider pins the range pass to the per-subject
// rule: over several runs and offsets it keeps the same traces, counts the
// same offers and ticks the same kept-trace counter as one Consider per
// subject, builds each final winner exactly once, and on a build error
// leaves no half-built entry behind.
func TestConsiderRangeMatchesConsider(t *testing.T) {
	const k = 8
	type run struct {
		seed      int64
		offset, n int
	}
	runs := []run{{3, 0, 500}, {9, 100, 40}, {3, 2000, 3}, {11, 0, 5000}}

	byConsider := NewRecorder(k, 5)
	ticks := engine.tracesKept.Load()
	for _, r := range runs {
		for g := r.offset; g < r.offset+r.n; g++ {
			byConsider.Consider(r.seed, g, func() SubjectTrace { return makeTrace(r.seed, g) })
		}
	}
	wantTicks := engine.tracesKept.Load() - ticks

	byRange := NewRecorder(k, 5)
	ticks = engine.tracesKept.Load()
	for _, r := range runs {
		built := map[int]int{}
		err := byRange.ConsiderRange(r.seed, r.offset, r.n, func(g int) (SubjectTrace, error) {
			built[g]++
			return makeTrace(r.seed, g), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(built) > k {
			t.Errorf("run %+v built %d traces, want at most %d", r, len(built), k)
		}
		for g, c := range built {
			if c != 1 {
				t.Errorf("run %+v built subject %d %d times", r, g, c)
			}
		}
	}
	if got := engine.tracesKept.Load() - ticks; got != wantTicks {
		t.Errorf("range pass ticked %d kept traces, Consider %d", got, wantTicks)
	}
	if byRange.Offered() != byConsider.Offered() {
		t.Errorf("Offered() = %d, Consider gives %d", byRange.Offered(), byConsider.Offered())
	}
	if !reflect.DeepEqual(byRange.Traces(), byConsider.Traces()) {
		t.Errorf("range pass sampled %+v\nConsider sampled %+v", byRange.Traces(), byConsider.Traces())
	}

	// Passes of different runs may share one recorder concurrently; the
	// sample does not depend on their order.
	shared := NewRecorder(k, 5)
	var wg sync.WaitGroup
	for _, r := range runs {
		wg.Add(1)
		go func(r run) {
			defer wg.Done()
			err := shared.ConsiderRange(r.seed, r.offset, r.n, func(g int) (SubjectTrace, error) {
				return makeTrace(r.seed, g), nil
			})
			if err != nil {
				t.Error(err)
			}
		}(r)
	}
	wg.Wait()
	if !reflect.DeepEqual(shared.Traces(), byConsider.Traces()) || shared.Offered() != byConsider.Offered() {
		t.Errorf("concurrent range passes sampled %+v\nConsider sampled %+v", shared.Traces(), byConsider.Traces())
	}

	failing := NewRecorder(k, 5)
	boom := errors.New("boom")
	if err := failing.ConsiderRange(3, 0, 500, func(int) (SubjectTrace, error) { return SubjectTrace{}, boom }); !errors.Is(err, boom) {
		t.Fatalf("ConsiderRange error = %v, want the build error", err)
	}
	if got := failing.Traces(); len(got) != 0 {
		t.Errorf("a failed pass left %d entries in the reservoir", len(got))
	}
}

func TestRecorderDeterministicAcrossOfferOrder(t *testing.T) {
	const n, k = 500, 16
	sample := func(order []int) []SubjectTrace {
		rec := NewRecorder(k, 7)
		for _, i := range order {
			rec.Offer(makeTrace(42, i))
		}
		return rec.Traces()
	}
	inOrder := make([]int, n)
	for i := range inOrder {
		inOrder[i] = i
	}
	shuffled := append([]int(nil), inOrder...)
	rand.New(rand.NewSource(1)).Shuffle(n, func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})

	a, b := sample(inOrder), sample(shuffled)
	if len(a) != k || len(b) != k {
		t.Fatalf("reservoir sizes %d, %d; want %d", len(a), len(b), k)
	}
	for i := range a {
		if a[i].Subject != b[i].Subject {
			t.Fatalf("sampled set depends on offer order: %v vs %v", a[i].Subject, b[i].Subject)
		}
	}
}

func TestRecorderSeedChangesSample(t *testing.T) {
	const n, k = 500, 16
	sample := func(recSeed int64) map[int]bool {
		rec := NewRecorder(k, recSeed)
		for i := 0; i < n; i++ {
			rec.Offer(makeTrace(1, i))
		}
		out := map[int]bool{}
		for _, tr := range rec.Traces() {
			out[tr.Subject] = true
		}
		return out
	}
	a, b := sample(1), sample(2)
	same := 0
	for s := range a {
		if b[s] {
			same++
		}
	}
	if same == k {
		t.Error("different recorder seeds sampled the identical subject set")
	}
}

func TestRecorderUnderCapacityKeepsAll(t *testing.T) {
	rec := NewRecorder(100, 3)
	for i := 0; i < 10; i++ {
		rec.Offer(makeTrace(5, i))
	}
	if got := len(rec.Traces()); got != 10 {
		t.Errorf("kept %d traces, want all 10 (under capacity)", got)
	}
	if rec.Offered() != 10 {
		t.Errorf("Offered() = %d, want 10", rec.Offered())
	}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var rec *Recorder
	rec.Offer(makeTrace(1, 1))
	if rec.Traces() != nil || rec.Cap() != 0 || rec.Offered() != 0 {
		t.Error("nil recorder must be inert")
	}
}

func TestWriteJSONLOneObjectPerLine(t *testing.T) {
	rec := NewRecorder(8, 11)
	for i := 0; i < 20; i++ {
		rec.Offer(makeTrace(9, i))
	}
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	lines := 0
	for sc.Scan() {
		lines++
		var tr SubjectTrace
		if err := json.Unmarshal(sc.Bytes(), &tr); err != nil {
			t.Fatalf("line %d is not valid JSON: %v", lines, err)
		}
		if len(tr.Checks) != 2 || tr.Checks[1].Stage != "comprehension" {
			t.Errorf("line %d lost stage checks: %+v", lines, tr)
		}
	}
	if lines != 8 {
		t.Errorf("JSONL has %d lines, want 8", lines)
	}
}

func TestWriteMetricsSeries(t *testing.T) {
	RecordRun(123, 4, 50*time.Millisecond, map[string]int{"comprehension": 7, "motivation": 2})
	// An ended span must show up in the summary.
	tr := NewTracer(nil)
	_, sp := StartSpan(WithTracer(context.Background(), tr), "unit-test-span")
	sp.End()

	var buf bytes.Buffer
	if err := WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"# TYPE hitl_sim_subjects_total counter",
		"hitl_sim_subjects_total ",
		"# TYPE hitl_sim_runs_total counter",
		`hitl_sim_stage_failures_total{stage="comprehension"}`,
		`hitl_sim_stage_failures_total{stage="motivation"}`,
		"# TYPE hitl_sim_run_duration_seconds histogram",
		`hitl_sim_run_duration_seconds_bucket{le="+Inf"}`,
		"hitl_sim_run_duration_seconds_sum",
		"hitl_sim_run_duration_seconds_count",
		"# TYPE hitl_sim_run_subjects_per_second histogram",
		"# TYPE hitl_sim_active_workers gauge",
		"hitl_sim_last_run_workers 4",
		"# TYPE hitl_sim_subject_traces_total counter",
		"# TYPE hitl_span_duration_seconds summary",
		`hitl_span_duration_seconds_count{span="unit-test-span"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("engine metrics missing %q", want)
		}
	}
	// Counters are process-global and monotonic.
	var before, after int64
	fmt.Sscanf(find(text, "hitl_sim_subjects_total "), "hitl_sim_subjects_total %d", &before)
	RecordRun(10, 1, time.Millisecond, nil)
	buf.Reset()
	if err := WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	fmt.Sscanf(find(buf.String(), "hitl_sim_subjects_total "), "hitl_sim_subjects_total %d", &after)
	if after != before+10 {
		t.Errorf("subjects counter went %d -> %d, want +10", before, after)
	}
}

// find returns the first line of text starting with prefix.
func find(text, prefix string) string {
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, prefix) {
			return line
		}
	}
	return ""
}

func TestConcurrentOffersAndWorkers(t *testing.T) {
	// Exercised further under -race: concurrent offers, worker gauges, and
	// span ends must be data-race free.
	rec := NewRecorder(32, 1)
	tr := NewTracer(nil)
	ctx := WithTracer(context.Background(), tr)
	done := make(chan struct{})
	for w := 0; w < 8; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			WorkerStarted()
			defer WorkerDone()
			_, sp := StartSpan(ctx, "worker-batch")
			for i := 0; i < 200; i++ {
				rec.Offer(makeTrace(int64(w), i))
			}
			sp.End()
		}(w)
	}
	for w := 0; w < 8; w++ {
		<-done
	}
	if got := len(rec.Traces()); got != 32 {
		t.Errorf("reservoir kept %d, want 32", got)
	}
	if got := len(tr.Spans()); got != 8 {
		t.Errorf("tracer has %d spans, want 8", got)
	}
}
