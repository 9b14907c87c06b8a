package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"hitl/internal/telemetry"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // unsorted on purpose
	}
	p95, err := percentile(xs, 0.95)
	if err != nil || p95 != 190 {
		t.Fatalf("p95 of 1..200 = %v, %v; want 190 with 10 samples beyond", p95, err)
	}
	if _, err := percentile(xs[:199], 0.95); err == nil {
		t.Fatal("p95 of 199 samples has 9 beyond it; want an error")
	}
	if got := minSamplesFor(0.95); got != 200 {
		t.Errorf("minSamplesFor(0.95) = %d, want 200", got)
	}
	if got := minSamplesFor(0.5); got != 20 {
		t.Errorf("minSamplesFor(0.5) = %d, want 20", got)
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Error("percentile of no samples: want an error")
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median of 3,1,2 = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of 4,1,3,2 = %v", m)
	}
}

func TestSliceStatsTakesTheBestSlice(t *testing.T) {
	// 4000 ops in completion order; all but the last 400 ran on a slowed
	// machine: twice the latency, half the rate, twice the CPU per op.
	recs := make([]opRec, 4000)
	cpu := []cpuSample{{0, 0}}
	end := 0.0
	for i := range recs {
		lat := 0.001
		if i < 3600 {
			lat = 0.002
		}
		end += lat
		recs[i] = opRec{lat: lat, end: end}
		cpu = append(cpu, cpuSample{end, end / 2})
	}
	st, err := sliceStats(recs, cpu)
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string][2]float64{
		"p50": {st.p50, 0.001}, "p95": {st.p95, 0.001},
		"rps": {st.rps, 1000}, "cpu/op": {st.cpuPerOp, 0.0005},
	} {
		if math.Abs(got[0]-got[1]) > 1e-9*got[1] {
			t.Errorf("%s = %v, want the unslowed %v", name, got[0], got[1])
		}
	}
	if got := len(cut(recs, rateSliceOps)); got != 40 {
		t.Errorf("%d ops cut into %d slices, want 40", len(recs), got)
	}
	if got := len(cut(make([]opRec, 200*maxSlices), rateSliceOps)); got != maxSlices {
		t.Errorf("%d ops cut into %d slices, want at most %d", 200*maxSlices, got, maxSlices)
	}
	if got := len(cut(recs[:150], minSamplesFor(0.95))); got != 1 {
		t.Errorf("150 ops cut into %d p95 slices, want 1", got)
	}
}

func TestCounterDeltasFromMetricsScrapes(t *testing.T) {
	scrape := func(body string) map[string]float64 {
		t.Helper()
		m, err := parseProm(strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	const head = "# HELP hitl_sim_runs_total Completed runs.\n# TYPE hitl_sim_runs_total counter\n" +
		"hitl_span_duration_seconds_sum{span=\"run\"} 1.5\n"
	before := []map[string]float64{
		scrape(head + "hitl_sim_runs_total 10\nhitl_server_cache_hits 3\nhitl_store_writes_total 1\n"),
		scrape(head + "hitl_sim_runs_total 10\nhitl_server_cache_hits 5\n"),
	}
	after := []map[string]float64{
		scrape(head + "hitl_sim_runs_total 14\nhitl_server_cache_hits 4\nhitl_store_writes_total 3\n"),
		scrape(head + "hitl_sim_runs_total 14\nhitl_server_cache_hits 7\n"),
	}
	d, err := counterDeltas(before, after)
	if err != nil {
		t.Fatal(err)
	}
	// The engine counter is process-wide: both servers report it, and it
	// counts once. Cache hits are per server and add up.
	want := map[string]int64{"hitl_sim_runs_total": 4, "hitl_server_cache_hits": 3, "hitl_store_writes_total": 2}
	for _, name := range counterNames {
		if d[name] != want[name] {
			t.Errorf("%s delta = %d, want %d", name, d[name], want[name])
		}
	}
	if _, err := counterDeltas(before, after[:1]); err == nil {
		t.Error("mismatched scrape counts: want an error")
	}
	frac := []map[string]float64{scrape("hitl_sim_runs_total 10.5\n"), scrape("")}
	if _, err := counterDeltas(before, frac); err == nil {
		t.Error("fractional counter move: want an error")
	}
	if _, err := parseProm(strings.NewReader("hitl_sim_runs_total\n")); err == nil {
		t.Error("sample without a value: want an error")
	}
}

func TestResidualCompletesTheMedianLatency(t *testing.T) {
	medians := map[string]float64{
		"scenario.parse": 0.001, "scenario.normalize": 0.002, "scenario.canonical": 0.003,
		"sim.run": 0.010, "report.render": 0.0005,
		"probe.digest_only": 1, // not on the path: must not count
	}
	dec := decompose(0.020, doorSync, medians)
	if dec.Residual != "server.overhead_s" {
		t.Errorf("sync residual named %q", dec.Residual)
	}
	if math.Abs(dec.Sum-0.0165) > 1e-12 || math.Abs(dec.Rest-0.0035) > 1e-12 {
		t.Errorf("sum %v rest %v, want 0.0165 and 0.0035", dec.Sum, dec.Rest)
	}
	if math.Abs(dec.Sum+dec.Rest-dec.Latency) > 1e-12 {
		t.Errorf("path %v + residual %v != latency %v", dec.Sum, dec.Rest, dec.Latency)
	}
	if got := decompose(0.001, doorJobs, nil); got.Residual != "jobs.overhead_s" || got.Rest != 0.001 {
		t.Errorf("jobs decomposition with no traced layers = %+v", got)
	}
}

func TestSelfTimeSubtractsCoveredInterval(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []telemetry.SpanRecord{
		{ID: 1, Name: "op", Start: at(0), DurationSeconds: 0.010},
		{ID: 2, Parent: 1, Name: "a", Start: at(1), DurationSeconds: 0.003},
		{ID: 3, Parent: 1, Name: "b", Start: at(3), DurationSeconds: 0.003}, // overlaps a
		{ID: 4, Parent: 3, Name: "c", Start: at(4), DurationSeconds: 0.001},
	}
	self := selfTimes(spans)
	for id, want := range map[uint64]float64{1: 0.005, 2: 0.003, 3: 0.002, 4: 0.001} {
		if math.Abs(self[id]-want) > 1e-9 {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
}

func TestRespellingKeepsTheDigest(t *testing.T) {
	examples, err := loadExamples("../examples/scenarios")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range exampleNames {
		sp := specOf(examples, name, 99, 0)
		plain, err := json.Marshal(sp)
		if err != nil {
			t.Fatal(err)
		}
		respelled, err := respell(sp)
		if err != nil {
			t.Fatal(err)
		}
		a, errA := normalized(plain)
		b, errB := normalized(respelled)
		if errA != nil || errB != nil {
			t.Fatalf("%s: %v %v", name, errA, errB)
		}
		ja, _ := json.Marshal(a)
		jb, _ := json.Marshal(b)
		if string(ja) != string(jb) || string(plain) == string(respelled) {
			t.Errorf("%s: respelling %s does not normalize like %s", name, respelled, plain)
		}
	}
}

// benchmarkFile is the part of BENCHMARK.json the tests cross-check.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct{ Name string } `json:"end_to_end"`
	PerLayer  []struct{ Name string } `json:"per_layer"`
}

func names(list []struct{ Name string }) []string {
	var out []string
	for _, x := range list {
		out = append(out, x.Name)
	}
	sort.Strings(out)
	return out
}

// TestPredictionsNameDeclaredMetrics checks that predictions.json gives
// every per-layer metric of BENCHMARK.json a prediction, in terms of
// declared end-to-end metrics and workloads only.
func TestPredictionsNameDeclaredMetrics(t *testing.T) {
	var bf benchmarkFile
	var pred struct {
		Workloads map[string]json.RawMessage `json:"workloads"`
		PerLayer  map[string]struct {
			Moves  []string `json:"moves"`
			On     []string `json:"on"`
			FlatOn []string `json:"flat_on"`
		} `json:"per_layer"`
	}
	for path, v := range map[string]any{"../BENCHMARK.json": &bf, "predictions.json": &pred} {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, v); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	}
	e2e := map[string]bool{}
	for _, n := range names(bf.EndToEnd) {
		e2e[n] = true
	}
	wls := map[string]bool{}
	for _, n := range names(bf.Workloads) {
		wls[n] = true
		if _, ok := pred.Workloads[n]; !ok {
			t.Errorf("predictions.json has no entry for workload %s", n)
		}
	}
	if got, want := sortedKeys(pred.PerLayer), names(bf.PerLayer); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("predictions.json per-layer metrics %v, BENCHMARK.json declares %v", got, want)
	}
	for name, p := range pred.PerLayer {
		for _, m := range p.Moves {
			if !e2e[m] {
				t.Errorf("%s moves undeclared end-to-end metric %s", name, m)
			}
		}
		if len(p.On) == 0 {
			t.Errorf("%s names no workload it moves on", name)
		}
		for _, w := range append(append([]string(nil), p.On...), p.FlatOn...) {
			if !wls[w] {
				t.Errorf("%s names undeclared workload %s", name, w)
			}
		}
	}
}

// TestSmokeEveryWorkload runs each workload for a few ops at reduced
// subject counts, traced, and checks that nothing failed, every answer was
// verified, every counter matched, and the metric names are the ones
// BENCHMARK.json declares.
func TestSmokeEveryWorkload(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, w := range workloads {
		declared = append(declared, w.name)
	}
	sort.Strings(declared)
	if got := names(bf.Workloads); strings.Join(got, ",") != strings.Join(declared, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", got, declared)
	}
	small := map[string]int{"sync-miss": 300, "jobs-persist": 100, "cluster-2worker": 400}
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			if n, ok := small[w.name]; ok {
				w.n = n
			}
			cfg := config{
				w: w, seed: 7, trace: true, examples: "../examples/scenarios",
				out: t.TempDir(), minOps: 6, setups: 1,
			}
			if w.hitSlots != nil {
				cfg.minOps = minSamplesFor(0.95) // cheap enough to compute every metric
			}
			o, err := execute(cfg, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if o.failed != 0 || !o.correct() {
				t.Fatalf("%d of %d ops failed, %d checked, counters: %v", o.failed, o.ops, o.checked, o.counterErr)
			}
			layers := o.perLayer()
			if got, want := sortedKeys(layers), names(bf.PerLayer); strings.Join(got, ",") != strings.Join(want, ",") {
				t.Errorf("per-layer metrics %v, BENCHMARK.json declares %v", got, want)
			}
			if w.hitSlots == nil {
				return
			}
			e2e, err := o.endToEnd()
			if err != nil {
				t.Fatal(err)
			}
			if got, want := sortedKeys(e2e), names(bf.EndToEnd); strings.Join(got, ",") != strings.Join(want, ",") {
				t.Errorf("end-to-end metrics %v, BENCHMARK.json declares %v", got, want)
			}
			if layers["server.cache_hit_ratio"].Value != 1 {
				t.Errorf("sync-hit cache hit ratio %v, want 1", layers["server.cache_hit_ratio"].Value)
			}
		})
	}
}
