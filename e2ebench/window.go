package main

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// opRec is what the timed window keeps of one op. It holds no pointers
// and lives in a slice sized before the window opens, so the benchmark's
// own bookkeeping neither allocates inside the window, nor gives the
// collector anything to scan, nor grows the heap the live-heap figure
// measures.
type opRec struct {
	lat    float64  // seconds, first request sent to last response byte read
	end    float64  // seconds from the window's start to the op's completion
	bytes  int32    // main response body size
	slot   int32    // sync-hit: which working-set body was sent
	sum    [32]byte // hash of the answer's points and metrics
	fail   uint8    // failure class; failNone for a good op
	engine uint8    // engine path the answer names
	hit    bool     // main response carried X-Cache: hit
}

// closedLoop runs clients goroutines, each sending its next op only after
// the previous one completes. Op indices come from one shared counter, so
// the ops issued are 0..n-1 whatever the interleaving. New ops start until
// d has passed and at least minOps were issued, or maxOps is reached. It
// returns the number of ops issued (all of which completed) and the wall
// time from start to the last completion.
func closedLoop(clients int, d time.Duration, minOps, maxOps int, do func(client, i int)) (int, time.Duration) {
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				if time.Since(start) >= d && next.Load() >= int64(minOps) {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= maxOps {
					return
				}
				do(c, i)
			}
		}(c)
	}
	wg.Wait()
	n := int(next.Load())
	if n > maxOps {
		n = maxOps
	}
	return n, time.Since(start)
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// cpuSample is the process CPU time t seconds into the window.
type cpuSample struct{ t, cpu float64 }

// cpuSampler reads the process CPU time every period until finished.
type cpuSampler struct {
	start time.Time
	stop  chan struct{}
	done  chan []cpuSample
}

func startCPUSampler(period time.Duration) *cpuSampler {
	s := &cpuSampler{start: time.Now(), stop: make(chan struct{}), done: make(chan []cpuSample, 1)}
	first := cpuSample{0, cpuSeconds()}
	go func() {
		samples := []cpuSample{first}
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				s.done <- append(samples, cpuSample{time.Since(s.start).Seconds(), cpuSeconds()})
				return
			case <-t.C:
				samples = append(samples, cpuSample{time.Since(s.start).Seconds(), cpuSeconds()})
			}
		}
	}()
	return s
}

// since is the time from the sampler's start.
func (s *cpuSampler) since() float64 { return time.Since(s.start).Seconds() }

// finish stops the sampler and returns its samples, the last taken now.
func (s *cpuSampler) finish() []cpuSample {
	close(s.stop)
	return <-s.done
}

// cpuAt interpolates the CPU time at t between the samples around it.
func cpuAt(samples []cpuSample, t float64) float64 {
	i := sort.Search(len(samples), func(i int) bool { return samples[i].t >= t })
	switch {
	case i == 0:
		return samples[0].cpu
	case i == len(samples):
		return samples[len(samples)-1].cpu
	}
	a, b := samples[i-1], samples[i]
	if b.t == a.t {
		return b.cpu
	}
	return a.cpu + (b.cpu-a.cpu)*(t-a.t)/(b.t-a.t)
}

// maxSlices bounds how many slices the window is cut into, and
// rateSliceOps is the fewest ops a slice for the median, the rate or the
// CPU per op holds; a slice for the p95 holds minSamplesFor(0.95).
// cpuPeriod is how often the CPU time is read; a slice's CPU time is
// interpolated between the readings around its ends.
const (
	maxSlices    = 1000
	rateSliceOps = 100
	cpuPeriod    = 10 * time.Millisecond
)

// windowStat is the window's timings, each taken from its slices.
type windowStat struct {
	p50, p95, rps, cpuPerOp float64
}

// sliceStats cuts the window's ops, in completion order, into slices (see
// cut), computes each slice's p50, p95, good ops per second and CPU
// seconds per op, and reports for each its best slice: the lowest time,
// the highest rate. On a shared machine other tenants slow the program
// for stretches of a run, to half its speed on sync-hit; runs differ in how
// long they were left alone, not in how fast the program was then, so the
// best slice is what a change to this program can move, while a change
// that slows every op still moves every slice.
func sliceStats(recs []opRec, cpu []cpuSample) (windowStat, error) {
	order := append([]opRec(nil), recs...)
	sort.Slice(order, func(a, b int) bool { return order[a].end < order[b].end })
	var p50s, p95s, rates, cpus []float64
	from := 0.0
	for _, part := range cut(order, rateSliceOps) {
		to := part[len(part)-1].end
		lats := make([]float64, len(part))
		good := 0
		for i, r := range part {
			lats[i] = r.lat
			if r.fail == failNone {
				good++
			}
		}
		p50s = append(p50s, median(lats))
		rates = append(rates, float64(good)/(to-from))
		cpus = append(cpus, (cpuAt(cpu, to)-cpuAt(cpu, from))/float64(len(part)))
		from = to
	}
	for _, part := range cut(order, minSamplesFor(0.95)) {
		lats := make([]float64, len(part))
		for i, r := range part {
			lats[i] = r.lat
		}
		p95, err := percentile(lats, 0.95)
		if err != nil {
			return windowStat{}, err
		}
		p95s = append(p95s, p95)
	}
	return windowStat{slices.Min(p50s), slices.Min(p95s), slices.Max(rates), slices.Min(cpus)}, nil
}

// cut splits ops into as many consecutive slices of at least per ops as
// there are, at most maxSlices; too few ops make one slice of them all.
func cut(ops []opRec, per int) [][]opRec {
	k := len(ops) / per
	if k > maxSlices {
		k = maxSlices
	}
	if k < 1 {
		k = 1
	}
	out := make([][]opRec, k)
	for s := range out {
		out[s] = ops[s*len(ops)/k : (s+1)*len(ops)/k]
	}
	return out
}
