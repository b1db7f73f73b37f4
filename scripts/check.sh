#!/usr/bin/env bash
# Static + dynamic analysis gate:
#   1. wiera-lint over src/, bench/, tests/ against the committed baseline
#      (docs/STATIC_ANALYSIS.md) — always runs, the tool builds from source
#   2. clang-tidy over src/ (skipped with a notice when clang-tidy is not
#      installed — the container image may only carry gcc; any finding is an
#      error via WarningsAsErrors and fails this script)
#   3. an ASan+UBSan build, with asserts live (no NDEBUG), running the full
#      ctest suite
#   4. the regular RelWithDebInfo build + ctest (includes the SimChecker
#      suite and the determinism-hash tests)
#
#   scripts/check.sh [--lint-only|--tidy-only|--san-only|--test-only]
set -euo pipefail
cd "$(dirname "$0")/.."

MODE="${1:-all}"
JOBS="$(nproc 2>/dev/null || echo 2)"
GEN=()
command -v ninja >/dev/null 2>&1 && GEN=(-G Ninja)

run_lint() {
  echo "==== wiera-lint ===="
  cmake -B build "${GEN[@]}" >/dev/null
  cmake --build build -j "$JOBS" --target wiera-lint
  ./build/tools/lint/wiera-lint --root . \
    --baseline tools/lint/baseline.txt --fix-hints src bench tests
}

run_tidy() {
  if ! command -v clang-tidy >/dev/null 2>&1; then
    echo "check.sh: clang-tidy not found; skipping the tidy pass" >&2
    return 0
  fi
  echo "==== clang-tidy ===="
  # compile_commands.json is exported by default (CMAKE_EXPORT_COMPILE_COMMANDS).
  # WarningsAsErrors: '*' in .clang-tidy makes any finding exit nonzero,
  # which set -e turns into a failure of this script.
  cmake -B build "${GEN[@]}" >/dev/null
  local files
  files=$(find src -name '*.cpp' | sort)
  if command -v run-clang-tidy >/dev/null 2>&1; then
    run-clang-tidy -p build -quiet ${files}
  else
    # shellcheck disable=SC2086
    clang-tidy -p build --quiet ${files}
  fi
}

run_sanitized() {
  echo "==== ASan + UBSan build ===="
  cmake -B build-asan "${GEN[@]}" \
    -DWIERA_SANITIZE=address,undefined \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS_RELWITHDEBINFO="-O2 -g" >/dev/null
  cmake --build build-asan -j "$JOBS"
  ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=halt_on_error=1 \
    ctest --test-dir build-asan --output-on-failure -j "$JOBS"
}

run_tests() {
  echo "==== regular build + ctest ===="
  cmake -B build "${GEN[@]}" >/dev/null
  cmake --build build -j "$JOBS"
  ctest --test-dir build --output-on-failure -j "$JOBS"
}

case "$MODE" in
  --lint-only) run_lint ;;
  --tidy-only) run_tidy ;;
  --san-only)  run_sanitized ;;
  --test-only) run_tests ;;
  all)         run_lint; run_tidy; run_sanitized; run_tests ;;
  *) echo "usage: $0 [--lint-only|--tidy-only|--san-only|--test-only]" >&2; exit 2 ;;
esac
echo "check.sh: all requested passes completed"
