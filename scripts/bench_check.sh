#!/usr/bin/env bash
# Performance-regression gate (docs/PERFORMANCE.md): run the micro-benchmark
# suite in --quick mode and compare each benchmark's speed *relative to the
# in-process calibration loop* (BM_Calibration) against the same ratio in
# the committed baseline bench/baselines/BENCH_micro.json. A benchmark whose
# ratio drops more than 15% below baseline fails the gate. Dividing by the
# calibration cancels host speed, so a baseline captured on one machine
# gives a correct verdict on another; absolute ops/sec are printed as a
# record only.
#
# Usage:
#   scripts/bench_check.sh [--update] [BUILD_DIR]
#
#   --update   re-capture the baseline instead of gating: the same best-of-N
#              --quick procedure over every benchmark, written to
#              bench/baselines/BENCH_micro.json (say why in the commit)
#   BUILD_DIR  cmake build directory containing bench/micro_bench
#              (default: build)
#
# Environment:
#   WIERA_BENCH_GATE=0   skip the gate entirely (exit 77, which the ctest
#                        wrapper reports as SKIPPED) — for machines where
#                        wall-clock measurement is meaningless (emulation,
#                        heavily shared CI runners)
#   WIERA_BENCH_RUNS     best-of-N runs (default 5)
#
# Noise defenses (single-core CI containers jitter by 10-20%):
#   * best-of-N: noise only ever makes a run slower, so the max over N runs
#     estimates the machine's true capability — taken separately for every
#     benchmark and for the calibration loop before dividing. The baseline
#     is captured by the same procedure (--update), so both sides of the
#     ratio are measured alike;
#   * only tight-loop benchmarks are gated (wire codec, fan-out encode, RNG,
#     zipfian, workload gen, policy). Benchmarks built around PauseTiming or
#     OS-heavy setup (lock cycles, tier put/get, sim-kernel events) are
#     recorded in BENCH_micro.json but not gated — their run-to-run variance
#     exceeds any useful threshold. End-to-end numbers live in perfbench/.
set -u

UPDATE=0
if [ "${1:-}" = "--update" ]; then
  UPDATE=1
  shift
fi
BUILD_DIR="${1:-build}"
BENCH="${BUILD_DIR}/bench/micro_bench"
BASELINE="$(dirname "$0")/../bench/baselines/BENCH_micro.json"
RUNS="${WIERA_BENCH_RUNS:-5}"

if [ "${UPDATE}" = "0" ] && [ "${WIERA_BENCH_GATE:-1}" = "0" ]; then
  echo "bench_check: WIERA_BENCH_GATE=0 — skipping"
  exit 77
fi
if [ ! -x "${BENCH}" ]; then
  echo "bench_check: ${BENCH} not built" >&2
  exit 1
fi
if [ "${UPDATE}" = "0" ] && [ ! -f "${BASELINE}" ]; then
  echo "bench_check: baseline ${BASELINE} missing" >&2
  exit 1
fi

TMPDIR_BENCH="$(mktemp -d)"
trap 'rm -rf "${TMPDIR_BENCH}"' EXIT

# Gated set: tight measurement loops only (see header), plus the calibration.
# An update records every benchmark.
FILTER='BM_Calibration|BM_WireRoundTrip|BM_WireRoundTripFlat|BM_ReplicateFanout|BM_RngNextU64|BM_ZipfianNext|BM_WorkloadGeneratorNext|BM_PolicyParse|BM_PolicyEvaluateCondition'
if [ "${UPDATE}" = "1" ]; then
  FILTER='.'
fi

for i in $(seq 1 "${RUNS}"); do
  "${BENCH}" --quick --json "${TMPDIR_BENCH}/run${i}.json" \
    "--benchmark_filter=${FILTER}" > /dev/null 2>&1 || {
    echo "bench_check: micro_bench run ${i} failed" >&2
    exit 1
  }
done

python3 - "${BASELINE}" "${TMPDIR_BENCH}" "${RUNS}" "${UPDATE}" <<'EOF'
import json, sys

baseline_path, tmpdir, runs = sys.argv[1], sys.argv[2], int(sys.argv[3])
update = sys.argv[4] == "1"
TOLERANCE = 0.15  # >15% drop in calibration-relative speed fails
CALIBRATION = "BM_Calibration"

rows = {}  # name -> the row of its fastest run
for i in range(1, runs + 1):
    with open(f"{tmpdir}/run{i}.json") as f:
        run = json.load(f)
    for r in run["micro"]:
        if r["ops_per_sec"] > rows.get(r["name"], {"ops_per_sec": 0.0})["ops_per_sec"]:
            rows[r["name"]] = r
best = {name: r["ops_per_sec"] for name, r in rows.items()}

if update:
    calib = best.get(CALIBRATION, 0.0)
    for r in rows.values():
        r["relative"] = round(r["ops_per_sec"] / calib, 6) if calib > 0 else 0
    with open(baseline_path, "w") as f:
        f.write('{\n  "schema": "%s",\n  "mode": "quick best-of-%d",\n'
                '  "calibration": "%s",\n  "micro": [\n'
                % (run["schema"], runs, CALIBRATION))
        f.write(",\n".join("    " + json.dumps(r) for r in rows.values()))
        f.write("\n  ]\n}\n")
    print(f"bench_check: wrote {baseline_path} (best of {runs} runs)")
    sys.exit(0)

with open(baseline_path) as f:
    baseline = {r["name"]: r["ops_per_sec"] for r in json.load(f)["micro"]}

calib, base_calib = best.get(CALIBRATION, 0.0), baseline.get(CALIBRATION, 0.0)
if calib <= 0 or base_calib <= 0:
    print(f"bench_check: {CALIBRATION} missing from this run or the baseline")
    sys.exit(1)
print(f"  {CALIBRATION:34s} {calib:14.0f} ops/s  "
      f"(host speed {calib / base_calib:.2f}x the baseline host)")

failed = []
for name, ops in sorted(best.items()):
    if name == CALIBRATION:
        continue
    base = baseline.get(name)
    if base is None or base <= 0:
        print(f"  {name:34s} {ops:14.0f} ops/s  (no baseline — informational)")
        continue
    ratio = (ops / calib) / (base / base_calib)
    mark = "ok" if ratio >= 1.0 - TOLERANCE else "FAIL"
    print(f"  {name:34s} {ops:14.0f} ops/s  {ratio:6.2f}x baseline "
          f"(calibrated)  {mark}")
    if ratio < 1.0 - TOLERANCE:
        failed.append(name)

if failed:
    print(f"bench_check: {len(failed)} benchmark(s) regressed >15% vs "
          f"{baseline_path}: {', '.join(failed)}")
    sys.exit(1)
print("bench_check: all gated benchmarks within tolerance")
EOF
