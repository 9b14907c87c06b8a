package telemetry

import (
	"container/heap"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
)

// StageCheck is one stage evaluation inside a subject trace: the pipeline
// stage, the probability the subject was sampled against, whether they
// passed, and any routing note ("heuristic decision: ...", "gems: slip").
type StageCheck struct {
	Stage  string  `json:"stage"`
	P      float64 `json:"p"`
	Passed bool    `json:"passed"`
	Note   string  `json:"note,omitempty"`
}

// SubjectTrace is the full stage-by-stage trajectory of one simulated
// subject: why did subject 4711 fail at comprehension? One trace per line
// in the JSONL export.
type SubjectTrace struct {
	// Subject is the subject index within its run; Seed is the run's master
	// seed, so (Seed, Subject) pins down the exact random stream and the
	// trace can be replayed.
	Subject int   `json:"subject"`
	Seed    int64 `json:"seed"`
	// Heeded, FailedStage, ErrorClass, HeuristicPath, and Spoofed mirror
	// the subject's outcome.
	Heeded        bool   `json:"heeded"`
	FailedStage   string `json:"failed_stage,omitempty"`
	ErrorClass    string `json:"error_class,omitempty"`
	HeuristicPath bool   `json:"heuristic_path,omitempty"`
	Spoofed       bool   `json:"spoofed,omitempty"`
	// Checks is the ordered stage trajectory. Empty for scenarios that
	// aggregate multiple encounters into one outcome without forwarding a
	// pipeline trace.
	Checks []StageCheck `json:"checks,omitempty"`
}

// mix64 is a splitmix64-style finalizer used to derive sampling priorities.
func mix64(z uint64) uint64 {
	z += 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// sampledTrace pairs a trace with its sampling priority. A pending entry
// won its slot during a ConsiderRange pass and holds only the subject's
// identity until the pass builds its trace.
type sampledTrace struct {
	priority uint64
	trace    SubjectTrace
	pending  bool
}

// traceHeap is a max-heap on priority, so the kept set is always the K
// offers with the smallest priorities.
type traceHeap []sampledTrace

func (h traceHeap) Len() int           { return len(h) }
func (h traceHeap) Less(i, j int) bool { return h[i].priority > h[j].priority }
func (h traceHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *traceHeap) Push(x any)        { *h = append(*h, x.(sampledTrace)) }
func (h *traceHeap) Pop() any          { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// Recorder keeps a uniform sample of K subject traces out of however many
// are offered. Sampling is a bottom-K sketch: each offer gets a priority
// hashed from (recorder seed, run seed, subject index) and the K smallest
// priorities win. Because the priority depends only on the subject's
// identity — never on arrival order — the sampled set is deterministic
// regardless of worker count or goroutine scheduling, and offering traces
// never touches the simulation's random streams.
type Recorder struct {
	k    int
	seed int64

	mu      sync.Mutex
	kept    traceHeap
	offered int64
}

// NewRecorder creates a recorder sampling up to k traces. The seed salts
// the sampling hash so different recorders over the same run sample
// different subjects; k < 1 is treated as 1.
func NewRecorder(k int, seed int64) *Recorder {
	if k < 1 {
		k = 1
	}
	return &Recorder{k: k, seed: seed}
}

// Cap returns the reservoir capacity K.
func (r *Recorder) Cap() int {
	if r == nil {
		return 0
	}
	return r.k
}

// Offered returns how many traces have been offered so far.
func (r *Recorder) Offered() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.offered
}

// runBase is the part of a subject's sampling priority shared by every
// subject of the run seeded runSeed.
func (r *Recorder) runBase(runSeed int64) uint64 {
	return mix64(uint64(r.seed) ^ mix64(uint64(runSeed)))
}

// priority derives the deterministic sampling priority for a subject.
func priority(runBase uint64, subject int) uint64 {
	return mix64(runBase + uint64(int64(subject)))
}

// wins reports whether an offer at priority p takes a reservoir slot:
// every offer does while the reservoir has room, and after that only one
// below the largest kept priority. A subject's priority is fixed and the
// threshold only tightens as offers accumulate, so a subject that loses
// now could never win later. The caller holds r.mu.
func (r *Recorder) wins(p uint64) bool {
	return len(r.kept) < r.k || p < r.kept[0].priority
}

// keep puts an offer that wins into the reservoir, evicting the largest
// kept priority once it is full. The caller holds r.mu.
func (r *Recorder) keep(st sampledTrace) {
	if len(r.kept) < r.k {
		heap.Push(&r.kept, st)
		engine.tracesKept.Add(1)
		return
	}
	r.kept[0] = st
	heap.Fix(&r.kept, 0)
}

// Offer submits one subject trace to the reservoir. Safe for concurrent
// use; a nil recorder ignores the offer.
func (r *Recorder) Offer(t SubjectTrace) {
	r.Consider(t.Seed, t.Subject, func() SubjectTrace { return t })
}

// Consider offers the subject identified by (runSeed, subject) and calls
// build to materialize its trace only if the subject currently wins a
// reservoir slot; a subject rejected now could never be admitted later, so
// skipping build loses nothing. This keeps the per-subject cost of an
// enabled recorder to one hash plus a mutexed comparison for the vast
// majority of subjects that are not sampled. Safe for concurrent use; a
// nil recorder ignores the offer.
func (r *Recorder) Consider(runSeed int64, subject int, build func() SubjectTrace) {
	if r == nil {
		return
	}
	p := priority(r.runBase(runSeed), subject)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.offered++
	if r.wins(p) {
		r.keep(sampledTrace{priority: p, trace: build()})
	}
}

// ConsiderRange offers subjects [offset, offset+n) of the run seeded
// runSeed under one lock, by Consider's admission rule: the same
// priorities, the same Offered count, the same kept-trace ticks, and so
// the same sample as n Consider calls. Priorities never depend on an
// outcome, so the winners are known before any trace exists. A winner
// stays pending while the pass runs, and a later offer may evict it
// unbuilt; at the end build materializes each remaining winner once, in
// subject order — at most Cap() builds per pass. build runs under the
// recorder's lock and must not call back into it. The first build error
// ends the pass: the winners still pending leave the reservoir and the
// error is returned. Safe for concurrent use; a nil recorder ignores the
// pass.
func (r *Recorder) ConsiderRange(runSeed int64, offset, n int, build func(subject int) (SubjectTrace, error)) error {
	if r == nil || n < 1 {
		return nil
	}
	base := r.runBase(runSeed)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.offered += int64(n)
	for g := offset; g < offset+n; g++ {
		if p := priority(base, g); r.wins(p) {
			r.keep(sampledTrace{priority: p, trace: SubjectTrace{Subject: g, Seed: runSeed}, pending: true})
		}
	}

	var pending []int
	for i := range r.kept {
		if r.kept[i].pending {
			pending = append(pending, i)
		}
	}
	sort.Slice(pending, func(a, b int) bool {
		return r.kept[pending[a]].trace.Subject < r.kept[pending[b]].trace.Subject
	})
	for _, i := range pending {
		t, err := build(r.kept[i].trace.Subject)
		if err != nil {
			r.dropPending()
			return err
		}
		r.kept[i] = sampledTrace{priority: r.kept[i].priority, trace: t}
	}
	return nil
}

// dropPending removes every pending entry from the reservoir. The caller
// holds r.mu.
func (r *Recorder) dropPending() {
	kept := r.kept[:0]
	for _, st := range r.kept {
		if !st.pending {
			kept = append(kept, st)
		}
	}
	r.kept = kept
	heap.Init(&r.kept)
}

// Traces returns the sampled traces ordered by (seed, subject index).
func (r *Recorder) Traces() []SubjectTrace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]SubjectTrace, len(r.kept))
	for i, st := range r.kept {
		out[i] = st.trace
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Seed != out[j].Seed {
			return out[i].Seed < out[j].Seed
		}
		return out[i].Subject < out[j].Subject
	})
	return out
}

// WriteJSONL writes the sampled traces as JSON Lines: one compact JSON
// object per trace per line.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	for _, t := range r.Traces() {
		raw, err := json.Marshal(t)
		if err != nil {
			return fmt.Errorf("telemetry: encoding trace: %w", err)
		}
		raw = append(raw, '\n')
		if _, err := w.Write(raw); err != nil {
			return err
		}
	}
	return nil
}
