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
# Outputs land under ENGINE_GOLDEN_DIR (default: a temp dir) as
# <spec>.interpreted.txt / <spec>.compiled.txt, the trace files
# <spec>.interpreted.traces.jsonl / <spec>.auto.traces.jsonl, plus
# engine_paths.txt, so CI can archive the comparison as an artifact.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT_DIR="${ENGINE_GOLDEN_DIR:-$(mktemp -d)}"
mkdir -p "$OUT_DIR"
BIN="$OUT_DIR/hitl-sim-golden"

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
done

rm -f "$BIN"
if [ "$fail" -ne 0 ]; then
  echo "engine-golden: FAIL (outputs in $OUT_DIR)" >&2
  exit 1
fi
echo "engine-golden: OK — all example specs compiled, byte-identical across engines, and traced identically (outputs in $OUT_DIR)"
