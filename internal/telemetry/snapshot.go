package telemetry

// MetricsSnapshot is a point-in-time copy of the engine counters plus the
// allocator counters that matter for run cost. The difference of two
// snapshots (Delta) is the work the whole process did in between — every
// concurrent run's, not one run's — so run reports do not read it; they
// take their counts from the run's own sim.ReportCollector.
//
// Determinism: Subjects, Runs, StageFailures, and PanicsRecovered are
// exact functions of the work done, identical at any worker count, but a
// delta attributes them to one run only on an otherwise-quiet process.
// TracesKept, Mallocs, and AllocBytes are scheduling-dependent
// (reservoir admission order and allocator behavior vary with
// interleaving).
type MetricsSnapshot struct {
	// Subjects and Runs are the engine's lifetime completed-subject and
	// completed-run counters.
	Subjects int64 `json:"subjects"`
	Runs     int64 `json:"runs"`
	// StageFailures counts subject failures by framework stage name.
	StageFailures map[string]int64 `json:"stage_failures,omitempty"`
	// PanicsRecovered counts subject panics contained into *sim.PanicError.
	PanicsRecovered int64 `json:"panics_recovered,omitempty"`
	// TracesKept counts subject traces admitted to trace reservoirs.
	TracesKept int64 `json:"traces_kept,omitempty"`
	// Mallocs and AllocBytes come from runtime.MemStats and cover the whole
	// process, not just the engine.
	Mallocs    uint64 `json:"mallocs,omitempty"`
	AllocBytes uint64 `json:"alloc_bytes,omitempty"`
}

// Snapshot captures the engine counters and allocator totals now.
func Snapshot() MetricsSnapshot {
	s := MetricsSnapshot{
		Subjects:        engine.subjects.Load(),
		Runs:            engine.runs.Load(),
		PanicsRecovered: engine.panics.Load(),
		TracesKept:      engine.tracesKept.Load(),
	}
	engine.stageMu.Lock()
	if len(engine.stageOrder) > 0 {
		s.StageFailures = make(map[string]int64, len(engine.stageOrder))
		for _, stage := range engine.stageOrder {
			if n := engine.stageFailures[stage].Load(); n != 0 {
				s.StageFailures[stage] = n
			}
		}
	}
	engine.stageMu.Unlock()
	s.Mallocs, s.AllocBytes = allocCounters()
	return s
}

// Delta returns s minus since, field by field. Stage names present only in
// since (impossible for monotonic counters, but cheap to guard) are
// dropped; zero-delta stages are omitted.
func (s MetricsSnapshot) Delta(since MetricsSnapshot) MetricsSnapshot {
	d := MetricsSnapshot{
		Subjects:        s.Subjects - since.Subjects,
		Runs:            s.Runs - since.Runs,
		PanicsRecovered: s.PanicsRecovered - since.PanicsRecovered,
		TracesKept:      s.TracesKept - since.TracesKept,
		Mallocs:         s.Mallocs - since.Mallocs,
		AllocBytes:      s.AllocBytes - since.AllocBytes,
	}
	for stage, n := range s.StageFailures {
		if dn := n - since.StageFailures[stage]; dn > 0 {
			if d.StageFailures == nil {
				d.StageFailures = make(map[string]int64, len(s.StageFailures))
			}
			d.StageFailures[stage] = dn
		}
	}
	return d
}
