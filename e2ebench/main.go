// Command e2ebench is the repository's end-to-end benchmark. It drives the
// example scenario specs through in-process hitl servers on real loopback
// HTTP — the synchronous run endpoint (cache misses and cache hits), the
// async job API over a disk store, and a coordinator over two shard
// workers — as a closed loop of one client, verifies every answer against
// a direct engine run, and checks the servers' counters against what the
// ops imply. With -trace 1 it adds a traced pass that times the public
// calls of each layer in front-door order.
//
// Run it from the repository root through its wrapper, which builds it:
//
//	bash e2ebench/run.sh --workload sync-miss --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics (the end-to-end metrics, or with -trace 1 the
// per-layer ones). Progress, the environment and the traced findings go
// to standard error; span trees go to <out>/traces.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// setupReps is how many times a run sets the system up; setup_s is the
// median.
const setupReps = 5

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: sync-miss, sync-hit, jobs-persist or cluster-2worker")
	seed := fs.Int64("seed", 1, "workload seed; every spec derives from it")
	seconds := fs.Int("seconds", 10, "timed window length in seconds (extended until the p95 has enough samples)")
	trace := fs.Int("trace", 0, "1 adds the traced pass and reports the per-layer metrics instead")
	examples := fs.String("examples", filepath.Join("examples", "scenarios"), "directory of the example specs")
	out := fs.String("out", ".bench_build", "directory for scratch state and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadNamed(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "e2ebench: need -workload (one of %s), -seconds >= 1, -trace 0|1\n", workloadList())
		return 2
	}
	cfg := config{
		w: w, seed: *seed, window: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, examples: *examples, out: *out,
		minOps: minSamplesFor(0.95), setups: setupReps,
	}
	o, err := execute(cfg, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	var metrics map[string]metric
	if cfg.trace {
		metrics = o.perLayer()
	} else {
		metrics, err = o.endToEnd()
	}
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	line, err := json.Marshal(result{Correct: o.correct(), Attempted: o.ops, Failed: o.failed, Metrics: metrics})
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

func workloadList() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return fmt.Sprint(names)
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type config struct {
	w        workload
	seed     int64
	window   time.Duration
	trace    bool
	examples string
	out      string
	minOps   int // the window runs on until this many ops were issued
	setups   int
}

// env is the environment a run measured in.
type env struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	StoreFS    string `json:"store_fs"`
}

// outcome is everything one run measured.
type outcome struct {
	cfg     config
	env     env
	ops     int
	failed  int
	checked int
	recs    []opRec
	wall    float64
	alloc   uint64

	cpuSamples []cpuSample
	live       int64
	setups     []float64

	counters   map[string]int64
	counterErr error

	untraced, traced *passResult
}

func (o *outcome) correct() bool {
	return o.failed == 0 && o.checked == o.ops && o.counterErr == nil
}

// execute sets the workload up setups times, runs the timed window on the
// last set-up, verifies the answers and counters, and with cfg.trace runs
// the untraced and traced passes.
func execute(cfg config, log io.Writer) (*outcome, error) {
	examples, err := loadExamples(cfg.examples)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(cfg.out, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	if cfg.w.procs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(cfg.w.procs))
	}
	b := &bench{w: cfg.w, seed: cfg.seed, examples: examples, tmp: tmp}
	if cfg.w.hitSlots != nil {
		if err := b.buildWorkingSet(); err != nil {
			return nil, err
		}
	}
	o := &outcome{cfg: cfg, env: environment(tmp)}
	fmt.Fprintf(log, "e2ebench: %s seed=%d env=%+v\n", cfg.w.name, cfg.seed, o.env)

	maxOps := int(cfg.window.Seconds()+1) * cfg.w.maxRate
	if maxOps < cfg.minOps {
		maxOps = cfg.minOps
	}
	recs := make([]opRec, maxOps)
	baseHeap := settledHeap()
	// Flush the writeback the build or an earlier run left, so that it
	// does not land in this run's fsyncs.
	syscall.Sync()

	var r *rig
	for k := 0; k < cfg.setups; k++ {
		if r != nil {
			r.close()
		}
		start := time.Now()
		r = b.newRig(k)
		err := b.warm(r)
		o.setups = append(o.setups, time.Since(start).Seconds())
		if err != nil {
			r.close()
			return nil, fmt.Errorf("set-up: %w (%v)", err, b.errs)
		}
	}
	defer r.close()

	runtime.GC()
	before, err := scrape(r.hc, r.urls)
	if err != nil {
		return nil, err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	callers := b.callers(r)
	sampler := startCPUSampler(cpuPeriod)
	n, wall := closedLoop(clients, cfg.window, cfg.minOps, maxOps, func(c, i int) {
		b.do(r, callers[c], streamTimed, i, &recs[i])
		recs[i].end = sampler.since()
	})
	o.cpuSamples = sampler.finish()
	runtime.ReadMemStats(&ms)
	alloc1 := ms.TotalAlloc
	after, err := scrape(r.hc, r.urls)
	if err != nil {
		return nil, err
	}
	o.ops, o.recs, o.wall = n, recs[:n], wall.Seconds()
	o.alloc = alloc1 - alloc0
	o.live = int64(settledHeap()) - int64(baseHeap)
	fmt.Fprintf(log, "e2ebench: %d ops in %.2fs; median latency by example:", n, o.wall)
	byExample := make(map[string][]float64)
	for i, rec := range o.recs {
		byExample[cfg.w.example(i)] = append(byExample[cfg.w.example(i)], rec.lat)
	}
	for _, name := range sortedKeys(byExample) {
		fmt.Fprintf(log, " %s %.6fs (%d)", name, median(byExample[name]), len(byExample[name]))
	}
	fmt.Fprintln(log)

	refs, err := b.verify(r, o)
	if err != nil {
		return nil, err
	}
	deltas, err := counterDeltas(before, after)
	if err != nil {
		return nil, err
	}
	o.counters = deltas
	want := b.expectedCounters(n, refs)
	for _, name := range counterNames {
		if deltas[name] != want[name] {
			o.counterErr = fmt.Errorf("counter %s moved %d over the window, the ops imply %d",
				name, deltas[name], want[name])
			break
		}
	}
	for _, f := range b.errs {
		fmt.Fprintln(log, "e2ebench: failure:", f)
	}
	if o.counterErr != nil {
		fmt.Fprintln(log, "e2ebench:", o.counterErr)
	}
	fmt.Fprintf(log, "e2ebench: checked %d of %d ops against direct runs, %d failed\n", o.checked, o.ops, o.failed)

	if cfg.trace {
		un, err := b.runPass(r, filepath.Join(tmp, "untraced"), false)
		if err != nil {
			return nil, err
		}
		tp, err := b.runPass(r, filepath.Join(tmp, "traced"), true)
		if err != nil {
			return nil, err
		}
		o.untraced, o.traced = &un, &tp
		if err := o.writeTrace(log); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// settledHeap is HeapAlloc after two forced collections: the first moves
// sync.Pool contents into the pools' victim caches and the second frees
// them, so pooled encode buffers do not count as live.
func settledHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// verify compares every op's answer with a direct run of its spec,
// computed here, outside the timed window, and returns the references of
// the ops that computed.
func (b *bench) verify(r *rig, o *outcome) ([]reference, error) {
	memo := make(map[string]reference)
	ref := func(body []byte) (reference, error) {
		norm, err := normalized(body)
		if err != nil {
			return reference{}, err
		}
		key, err := json.Marshal(norm)
		if err != nil {
			return reference{}, err
		}
		if rf, ok := memo[string(key)]; ok {
			return rf, nil
		}
		rf, err := b.reference(norm)
		if err == nil {
			memo[string(key)] = rf
		}
		return rf, err
	}
	if b.w.hitSlots != nil {
		// Timed ops were compared byte for byte with the warm-up body of
		// their slot; check those bodies here.
		good := make([]bool, len(b.workingSet))
		engines := make([]uint8, len(b.workingSet))
		for slot, body := range b.workingSet {
			rf, err := ref(body)
			if err != nil {
				return nil, err
			}
			sum, engine, err := resultSum(r.warm[slot])
			good[slot] = err == nil && sum == rf.sum && engineCode(engine) == rf.engine
			engines[slot] = engineCode(engine)
			if !good[slot] {
				b.noteErr(fmt.Sprintf("working-set slot %d (%s)", slot, b.w.example(slot)),
					fmt.Errorf("served body differs from a direct run"))
			}
		}
		for i := range o.recs {
			rec := &o.recs[i]
			if rec.fail == failNone && !good[rec.slot] {
				rec.fail = failMismatch
			}
			rec.engine = engines[rec.slot]
			o.count(rec)
		}
		return nil, nil
	}
	var refs []reference
	for i := range o.recs {
		rec := &o.recs[i]
		body, err := b.body(streamTimed, i)
		if err != nil {
			return nil, err
		}
		rf, err := ref(body)
		if err != nil {
			return nil, fmt.Errorf("reference for op %d: %w", i, err)
		}
		refs = append(refs, rf)
		if rec.fail == failNone && (rec.sum != rf.sum || rec.engine != rf.engine) {
			rec.fail = failMismatch
			b.noteErr(fmt.Sprintf("op %d (%s)", i, b.w.example(i)),
				fmt.Errorf("answer differs from a direct run (engine %s, direct %s)",
					engineNames[rec.engine], engineNames[rf.engine]))
		}
		o.count(rec)
	}
	return refs, nil
}

func (o *outcome) count(rec *opRec) {
	o.checked++
	if rec.fail != failNone {
		o.failed++
	}
}

// environment records where the run measured, including the filesystem
// type the store directory lives on (fsync cost depends on it).
func environment(dir string) env {
	e := env{GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), StoreFS: "unknown"}
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err == nil {
		names := map[int64]string{0xEF53: "ext4", 0x01021994: "tmpfs", 0x794C7630: "overlayfs", 0x58465342: "xfs", 0x9123683E: "btrfs"}
		e.StoreFS = fmt.Sprintf("0x%X", st.Type)
		if n, ok := names[int64(st.Type)]; ok {
			e.StoreFS = n
		}
	}
	return e
}

// endToEnd computes the end-to-end metrics from the timed window.
func (o *outcome) endToEnd() (map[string]metric, error) {
	st, err := sliceStats(o.recs, o.cpuSamples)
	if err != nil {
		return nil, err
	}
	return map[string]metric{
		"setup_s":            {median(o.setups), "s"},
		"latency_p50_s":      {st.p50, "s"},
		"latency_p95_s":      {st.p95, "s"},
		"throughput_rps":     {st.rps, "ops/s"},
		"cpu_s_per_op":       {st.cpuPerOp, "s"},
		"alloc_bytes_per_op": {float64(o.alloc) / float64(o.ops), "B"},
		"live_heap_bytes":    {float64(o.live), "B"},
	}, nil
}

func (o *outcome) latencies() []float64 {
	out := make([]float64, len(o.recs))
	for i, r := range o.recs {
		out[i] = r.lat
	}
	return out
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
