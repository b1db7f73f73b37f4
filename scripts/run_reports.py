#!/usr/bin/env python3
"""Collect fault-suite RUN-REPORT lines (docs/OBSERVABILITY.md#run-report).

  scripts/run_reports.py BUILD_DIR OUT_DIR [LOG ...]

Reads every `RUN-REPORT {json}` line of the LOGs (default: the log of the
last ctest run, BUILD_DIR/Testing/Temporary/LastTest.log) and writes them,
one report per line, to OUT_DIR/run-reports.jsonl. Each failing run is
replayed from BUILD_DIR with --dump-telemetry --dump-timeseries, and the
replay's report (metrics, span trees, time series, hot keys, attribution)
is written to OUT_DIR/failures/. A sweep is ctest itself:
  WIERA_SEED_COUNT=50 ctest --test-dir build -R <suites> -j 4
  scripts/run_reports.py build run-reports
Exits 1 if a report line is not JSON or lacks a required key.
"""
import json
import os
import re
import shlex
import subprocess
import sys

PREFIX = "RUN-REPORT "
REQUIRED = ("suite", "case", "seed", "trace", "replay", "verdict",
            "violations", "counters")


def reports(lines, source):
    """Yields the report of every RUN-REPORT line; raises on a bad one."""
    for number, line in enumerate(lines, 1):
        if not line.startswith(PREFIX):
            continue
        report = json.loads(line[len(PREFIX):])
        missing = [key for key in REQUIRED if key not in report]
        if missing:
            raise ValueError(f"{source}:{number}: missing {missing}")
        yield report


def replay(build, report, out_dir):
    """Re-runs a failing report with its dumps; returns the dump's path."""
    args = shlex.split(report["replay"])
    args[0] = os.path.join(build, args[0])
    proc = subprocess.run(args + ["--dump-telemetry", "--dump-timeseries"],
                          capture_output=True, text=True)
    try:
        dumped = next(reports(proc.stdout.splitlines(), report["replay"]))
    except (ValueError, StopIteration):
        dumped = {"stdout": proc.stdout, "stderr": proc.stderr}
    name = re.sub(r"[^A-Za-z0-9_.-]", "_",
                  f"{report['suite']}-{report['case']}-{report['seed']}")
    path = os.path.join(out_dir, "failures", name + ".json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(dumped, f, indent=1)
    return path


def main():
    if len(sys.argv) < 3:
        sys.exit(__doc__)
    build, out_dir, logs = sys.argv[1], sys.argv[2], sys.argv[3:]
    if not logs:
        logs = [os.path.join(build, "Testing", "Temporary", "LastTest.log")]
        if not os.path.isfile(logs[0]):
            print(f"run_reports: no ctest log at {logs[0]}")
            logs = []
    collected = []
    try:
        for log in logs:
            with open(log, errors="replace") as f:
                collected += reports(f.read().splitlines(), log)
    except ValueError as err:  # json.JSONDecodeError is a ValueError
        print(f"run_reports: bad RUN-REPORT: {err}", file=sys.stderr)
        return 1
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "run-reports.jsonl"), "w") as f:
        for report in collected:
            f.write(json.dumps(report, sort_keys=True) + "\n")
    failing = {r["replay"]: r for r in collected if r["verdict"] != "pass"}
    print(f"run_reports: {len(collected)} report(s), {len(failing)} failing "
          f"run(s) -> {out_dir}/run-reports.jsonl")
    for report in failing.values():
        print(f"  FAIL {report['suite']} {report['case']} seed "
              f"{report['seed']} trace {report['trace']}")
        for v in report["violations"]:
            print(f"    [{v['check']}] {v['message']}")
        print(f"    reproduce: {build}/{report['replay']}")
        print(f"    dumps: {replay(build, report, out_dir)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
