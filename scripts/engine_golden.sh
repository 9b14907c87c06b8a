#!/usr/bin/env bash
# engine_golden.sh proves the compiled engine's bit-identity contract over
# the whole example corpus from the outside: every spec in
# examples/scenarios/ runs through the hitl-sim CLI twice — once with
# -engine interpreted, once with -engine compiled — and the rendered
# stdout (tables, labels, every formatted metric digit) must be
# byte-identical. Every example spec compiles, so each -engine compiled
# run must also report engine path "compiled": a spec the compiler refused
# would fall back to the interpreter and pass the diff trivially, so a
# fallback fails the check. The per-spec engine paths (from stderr) are
# recorded alongside the outputs.
#
# Each spec also samples 8 subject traces (-trace-sample 8) twice — forced
# interpreted and under auto — and the two JSONL files must be
# byte-identical: auto samples its traces by replaying the sampled
# subjects on the interpreter, and a trace recorder must not move it onto
# the interpreter, so an auto traced run that reports engine path
# "interpreted" fails the check too.
#
# Each spec then runs faulted (FAULTS below, one rule of each kind that
# lets a run finish) with 8 sampled traces and a run report, forced
# interpreted and under auto: stdout and the trace files must be
# byte-identical and the reports' fired counts equal, and auto must not
# report engine path "interpreted" — faults act on whole subjects, so a
# faulted run takes the compiled path a clean one takes. Last, a run
# under `panic:p=1` must exit non-zero and still leave its report, which
# must record the recovered panic.
#
# Outputs land under ENGINE_GOLDEN_DIR (default: a temp dir) as
# <spec>.interpreted.txt / <spec>.compiled.txt, the trace files
# <spec>.interpreted.traces.jsonl / <spec>.auto.traces.jsonl, the faulted
# <spec>.<engine>.faulted.{txt,traces.jsonl,report.json}, plus
# engine_paths.txt, so CI can archive the comparison as an artifact.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT_DIR="${ENGINE_GOLDEN_DIR:-$(mktemp -d)}"
mkdir -p "$OUT_DIR"
BIN="$OUT_DIR/hitl-sim-golden"
FAULTS='fail:stage=comprehension,p=0.2;corrupt:p=0.1;latency:p=0.001,ms=0.1'

go build -o "$BIN" ./cmd/hitl-sim

fail=0
: >"$OUT_DIR/engine_paths.txt"
for spec in examples/scenarios/*.json; do
  name="$(basename "$spec" .json)"
  echo "== $spec"
  "$BIN" -spec "$spec" -engine interpreted \
    >"$OUT_DIR/$name.interpreted.txt" 2>"$OUT_DIR/$name.interpreted.err"
  "$BIN" -spec "$spec" -engine compiled \
    >"$OUT_DIR/$name.compiled.txt" 2>"$OUT_DIR/$name.compiled.err"
  {
    printf '%s interpreted: ' "$name"; grep 'engine path' "$OUT_DIR/$name.interpreted.err" || true
    printf '%s compiled:    ' "$name"; grep 'engine path' "$OUT_DIR/$name.compiled.err" || true
  } >>"$OUT_DIR/engine_paths.txt"
  if ! diff -u "$OUT_DIR/$name.interpreted.txt" "$OUT_DIR/$name.compiled.txt"; then
    echo "engine-golden: MISMATCH: $spec renders differently interpreted vs compiled" >&2
    fail=1
  fi
  if ! grep -qx 'hitl-sim: engine path: compiled' "$OUT_DIR/$name.compiled.err"; then
    echo "engine-golden: FALLBACK: $spec did not run compiled under -engine compiled" >&2
    fail=1
  fi

  for eng in interpreted auto; do
    "$BIN" -spec "$spec" -engine "$eng" -trace "$OUT_DIR/$name.$eng.traces.jsonl" -trace-sample 8 \
      >/dev/null 2>"$OUT_DIR/$name.$eng.traces.err"
  done
  printf '%s traced auto: ' "$name" >>"$OUT_DIR/engine_paths.txt"
  grep 'engine path' "$OUT_DIR/$name.auto.traces.err" >>"$OUT_DIR/engine_paths.txt" || true
  if ! diff -u "$OUT_DIR/$name.interpreted.traces.jsonl" "$OUT_DIR/$name.auto.traces.jsonl"; then
    echo "engine-golden: MISMATCH: $spec samples different traces interpreted vs auto" >&2
    fail=1
  fi
  if grep -qx 'hitl-sim: engine path: interpreted' "$OUT_DIR/$name.auto.traces.err"; then
    echo "engine-golden: FALLBACK: $spec ran interpreted under auto with a trace recorder" >&2
    fail=1
  fi

  for eng in interpreted auto; do
    f="$OUT_DIR/$name.$eng.faulted"
    "$BIN" -spec "$spec" -engine "$eng" -faults "$FAULTS" -trace "$f.traces.jsonl" -trace-sample 8 \
      -report "$f.report.json" >"$f.txt" 2>"$f.err"
    grep '"fired"' "$f.report.json" >"$f.fired" || true
  done
  f="$OUT_DIR/$name"
  printf '%s faulted auto: ' "$name" >>"$OUT_DIR/engine_paths.txt"
  grep 'engine path' "$f.auto.faulted.err" >>"$OUT_DIR/engine_paths.txt" || true
  if ! diff -u "$f.interpreted.faulted.txt" "$f.auto.faulted.txt" ||
    ! diff -u "$f.interpreted.faulted.traces.jsonl" "$f.auto.faulted.traces.jsonl" ||
    ! diff -u "$f.interpreted.faulted.fired" "$f.auto.faulted.fired"; then
    echo "engine-golden: MISMATCH: $spec runs differently faulted interpreted vs auto" >&2
    fail=1
  fi
  if grep -qx 'hitl-sim: engine path: interpreted' "$f.auto.faulted.err"; then
    echo "engine-golden: FALLBACK: $spec ran interpreted under auto with faults" >&2
    fail=1
  fi
done

# A failed run keeps its report.
panicked="$OUT_DIR/panic.report.json"
rm -f "$panicked"
if "$BIN" -spec examples/scenarios/phishing-study.json -faults 'panic:p=1' -report "$panicked" \
  >/dev/null 2>"$OUT_DIR/panic.err"; then
  echo "engine-golden: a run under panic:p=1 exited zero" >&2
  fail=1
fi
if ! grep -q '"panic_recovered": true' "$panicked" 2>/dev/null; then
  echo "engine-golden: a run under panic:p=1 left no report recording the recovered panic" >&2
  fail=1
fi

rm -f "$BIN"
if [ "$fail" -ne 0 ]; then
  echo "engine-golden: FAIL (outputs in $OUT_DIR)" >&2
  exit 1
fi
echo "engine-golden: OK — all example specs compiled, byte-identical across engines, and traced and faulted identically (outputs in $OUT_DIR)"
