#!/usr/bin/env bash
# The end-to-end pawsd benchmark: builds src/ + tools/pawsd.cpp of this
# checkout into build-bench/, then runs serve_bench.
#
#   bench/serve/run.sh [--workload W] [--seed S] [--trace [0|1]]
#   bench/serve/run.sh --smoke      every workload, tiny fixed sizes, checks
#                                   that every metric BENCHMARK.json names
#                                   is reported and every answer is right
#
# Without --workload all four workloads run. The last stdout line is the
# JSON result; build output goes to build-bench/build.log.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "$root"
build="${PAWS_BENCH_BUILD:-build-bench}"

args=()
smoke=0
build_first=1
while [[ $# -gt 0 ]]; do
  case "$1" in
    --smoke) smoke=1; args+=(--smoke); shift ;;
    --no-build) build_first=0; shift ;;
    --trace)
      if [[ $# -gt 1 && ( "$2" == 0 || "$2" == 1 ) ]]; then
        args+=(--trace "$2"); shift 2
      else
        args+=(--trace 1); shift
      fi ;;
    --workload|--seed)
      [[ $# -gt 1 ]] || { echo "run.sh: $1 needs a value" >&2; exit 2; }
      args+=("$1" "$2"); shift 2 ;;
    --seconds)
      # BENCHMARK.json's run_seconds, which callers of its command pass.
      # Every run measures two fixed 10-s phases: no other length is
      # calibrated, so no other value is accepted.
      [[ $# -gt 1 && "$2" == 20 ]] || {
        echo "run.sh: --seconds must be 20 (two 10-s phases)" >&2; exit 2; }
      shift 2 ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done

if [[ $build_first == 1 ]]; then
  mkdir -p "$build"
  if ! { cmake -S bench/serve -B "$build" -DCMAKE_BUILD_TYPE=Release &&
         cmake --build "$build" -j "$(nproc)"; } >"$build/build.log" 2>&1; then
    tail -n 30 "$build/build.log" >&2
    echo "run.sh: build failed (full log: $build/build.log)" >&2
    exit 2
  fi
fi

bench=("$build/serve_bench" --pawsd "$build/pawsd" --run-dir "$build/run")
if [[ $smoke == 0 ]]; then
  exec "${bench[@]}" "${args[@]}"
fi

# Smoke: serve_bench must succeed, and report exactly the metrics
# BENCHMARK.json declares, for every workload.
out="$("${bench[@]}" "${args[@]}")"
printf '%s\n' "$out"
printf '%s\n' "$out" | tail -n 1 | python3 -c '
import json, sys
result = json.loads(sys.stdin.read())
spec = json.load(open("BENCHMARK.json"))
declared = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
problems = []
if not result["correct"] or result["failed"] != 0:
    problems.append("wrong_answers or fail_share is not 0")
for w in (w["name"] for w in spec["workloads"]):
    got = {k[len(w) + 1:] for k in result["metrics"] if k.startswith(w + ".")}
    if got != declared:
        problems.append(f"{w}: missing {sorted(declared - got)}, "
                        f"undeclared {sorted(got - declared)}")
for p in problems:
    print("smoke:", p, file=sys.stderr)
sys.exit(1 if problems else 0)
'
