package sim

import (
	"context"
	"fmt"
)

// Injector perturbs subject execution for fault-injection rehearsals. The
// engine calls Before just before a subject's scenario function runs and
// Perturb on the outcome of every subject that returned without error,
// on the interpreted and the compiled path alike. Implementations must be
// deterministic in (runSeed, subject) — never in arrival order, worker
// identity, or wall clock — so a faulted run stays bit-identical at any
// worker count and on either path, matching the engine's determinism
// contract. Before may panic (contained by the engine into a *PanicError)
// or sleep (artificial latency); Perturb may rewrite the outcome it is
// handed (injected stage failures, corrupted communications) and returns
// the outcome to aggregate. Replay returns the rewrite Perturb would for
// a subject the run already ran, without counting anything: trace
// sampling re-simulates such subjects (Runner.SampleTraces). Outcomes
// pass by value — not by pointer — so the nil-injector hot path never
// forces the outcome to escape to the heap. Implementations must be safe
// for concurrent use: workers call them in parallel.
//
// The canonical implementation is internal/faults, which parses a textual
// fault spec into an Injector; the seam is an interface so sim does not
// depend on it.
type Injector interface {
	// Before runs ahead of the subject's scenario function.
	Before(runSeed int64, subject int)
	// Perturb returns the completed subject's outcome, possibly rewritten.
	Perturb(runSeed int64, subject int, o Outcome) Outcome
	// Replay is Perturb for a re-simulated subject: same rewrite, no
	// bookkeeping.
	Replay(runSeed int64, subject int, o Outcome) Outcome
}

// injectorKey carries an Injector through a context, like telemetry's
// tracer and recorder keys.
type injectorKey struct{}

// WithInjector returns a context that carries the fault injector. Runs
// started under the returned context apply it to every subject; a nil
// injector is equivalent to not attaching one.
func WithInjector(ctx context.Context, inj Injector) context.Context {
	if inj == nil {
		return ctx
	}
	return context.WithValue(ctx, injectorKey{}, inj)
}

// InjectorFromContext returns the fault injector attached to ctx, or nil.
func InjectorFromContext(ctx context.Context) Injector {
	inj, _ := ctx.Value(injectorKey{}).(Injector)
	return inj
}

// PanicError reports a subject whose scenario function (or injected fault)
// panicked. The engine contains the panic: the run fails with this error —
// lowest panicking subject wins, consistent with ordinary subject errors —
// but the process, the other workers, and any sibling runs survive.
type PanicError struct {
	// Subject is the index of the subject that panicked.
	Subject int
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack, captured at recovery.
	Stack []byte
}

// Error describes the panic without the stack; read Stack for the trace.
func (e *PanicError) Error() string {
	return fmt.Sprintf("sim: subject %d panicked: %v", e.Subject, e.Value)
}
