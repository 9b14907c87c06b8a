# hitl build targets. Everything is stdlib Go; no external tools required.

GO ?= go

.PHONY: all ci lint build vet test race fuzz bench bench-check bench-diff microbench chaos scenarios-smoke engine-golden jobs-smoke cluster-smoke experiments examples fmt cover clean

all: build vet test

# ci mirrors .github/workflows/ci.yml: lint plus the race detector, which
# guards the sim cancellation path and the atomic metrics counters.
ci: build lint race

build:
	$(GO) build ./...

# lint mirrors the CI lint job: gofmt -l must print nothing, and vet must
# pass.
lint: vet
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "files need gofmt:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# fuzz runs FuzzSpec (internal/scenario) for 30s: for any spec ParseSpec
# accepts, errors are *SpecError, Normalize is idempotent, and the one-pass
# digest front doors compute at decode equals Canonical of the raw spec.
# Its seed corpus (examples/scenarios) already runs under `go test ./...`.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzSpec$$' -fuzztime 30s ./internal/scenario

# bench emits the engine-throughput artifact (1/4/GOMAXPROCS workers,
# subject tracing off and on, allocs/op, server cache timings), embedding
# the committed report as its baseline; microbench runs the full go-test
# benchmarks.
bench:
	$(GO) run ./cmd/hitl-bench -baseline BENCH_sim.json -out BENCH_sim.json

# bench-check is the regression gate: re-measure and fail if any
# (workers, trace) configuration's subjects/s fell more than 15% below the
# committed BENCH_sim.json. The fresh report lands in BENCH_check.json (not
# the committed file) so a failing run leaves the baseline untouched.
bench-check:
	$(GO) run ./cmd/hitl-bench -baseline BENCH_sim.json -check -max-regress 15 -out BENCH_check.json

microbench:
	$(GO) test -bench=. -benchmem ./...

# chaos runs the opt-in overload/fault-injection soak under the race
# detector: an undersized server is hammered with concurrent clients mixing
# clean runs, latency faults, injected failures, and injected panics, and
# the containment invariants are asserted end to end. A /v1/metrics
# snapshot lands in CHAOS_metrics.txt.
chaos:
	HITL_CHAOS=1 HITL_CHAOS_OUT=$(CURDIR)/CHAOS_metrics.txt \
		$(GO) test -race -run TestChaosSoak -count=1 -v ./internal/server

# bench-diff prints hitl-bench's configuration-by-configuration diff of
# fresh engine numbers against the committed BENCH_sim.json.
bench-diff:
	$(GO) run ./cmd/hitl-bench -baseline BENCH_sim.json -diff -out /dev/null

# scenarios-smoke drives every example spec end to end through the hitl-sim
# CLI — the declarative path: parse, validate against the registry schema,
# run, render — plus the scenario listing. The example specs are sized to
# stay CI-fast; the bit-identity goldens live in internal/scenario.
scenarios-smoke:
	$(GO) build -o /tmp/hitl-sim-smoke ./cmd/hitl-sim
	/tmp/hitl-sim-smoke -list
	@set -e; for spec in examples/scenarios/*.json; do \
		echo "== $$spec"; \
		/tmp/hitl-sim-smoke -spec $$spec; \
	done
	@rm -f /tmp/hitl-sim-smoke

# engine-golden runs every example spec through hitl-sim twice — forced
# interpreted and forced compiled — and fails unless the rendered outputs
# are byte-identical (the compiled engine's external bit-identity
# contract); it then samples 8 traces per spec forced interpreted and
# under auto, clean and faulted, and fails unless outputs, trace files and
# fired fault counts are byte-identical and auto stayed off the
# interpreter, and unless a panicked run still leaves its report.
# ENGINE_GOLDEN_DIR parks the comparison files for CI to archive.
engine-golden:
	bash scripts/engine_golden.sh

# jobs-smoke drives the async job API against a real hitl-serve process:
# submit a spec as a job, stream its JSONL, restart the server over the
# same persistent store, and re-fetch the result via If-None-Match (304).
# HITL_STORE_DIR overrides the store location so CI can archive it.
jobs-smoke:
	bash scripts/jobs_smoke.sh

# cluster-smoke drives fault-tolerant distributed execution against real
# processes: three workers plus a coordinator, a sharded run bit-identical
# to the single-node baseline, then a SIGKILL'd worker and a re-run that
# fails over — still bit-identical — with retries/failovers asserted in
# /v1/metrics and the flight recorder. HITL_STORE_DIR overrides the
# coordinator's store location so CI can archive it.
cluster-smoke:
	bash scripts/cluster_smoke.sh

experiments:
	$(GO) run ./cmd/hitl-experiments

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/phishing
	$(GO) run ./examples/passwordpolicy
	$(GO) run ./examples/smartcard
	$(GO) run ./examples/trainingprogram

fmt:
	gofmt -w .

cover:
	$(GO) test -coverprofile=cover.out ./... && $(GO) tool cover -func=cover.out | tail -1

# BENCH_sim.json is a committed artifact; clean only removes scratch
# files.
clean:
	rm -f cover.out test_output.txt bench_output.txt BENCH_check.json CHAOS_metrics.txt
