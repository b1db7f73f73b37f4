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

  scripts/run_reports.py --compare PARENT.jsonl CHANGE.jsonl

Matches two collections' reports on (suite, case, seed), counts the ones
that are identical and the ones that differ only in `trace`, and lists
every report that differs in another field or is missing on either side.
Exits 1 if any report differs in any field or is missing.
"""
import collections
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


def keyed(path):
    """Reports of a JSONL file, grouped by (suite, case, seed)."""
    out = collections.defaultdict(list)
    with open(path) as f:
        for line in f:
            if line.strip():
                report = json.loads(line)
                out[(report["suite"], report["case"], report["seed"])].append(
                    report)
    return out


def differing_fields(a, b):
    """Names of the fields that differ; a map field as name.key per key."""
    fields = []
    for name in sorted(set(a) | set(b)):
        x, y = a.get(name), b.get(name)
        if x == y:
            continue
        if isinstance(x, dict) and isinstance(y, dict):
            fields += [f"{name}.{k}" for k in sorted(set(x) | set(y))
                       if x.get(k) != y.get(k)]
        else:
            fields.append(name)
    return fields


def compare(parent_path, change_path):
    parent, change = keyed(parent_path), keyed(change_path)
    identical = trace_only = 0
    listed = {"DIFF": [], "ONLY-PARENT": [], "ONLY-CHANGE": []}
    for key in sorted(parent.keys() | change.keys()):
        name = f"{key[0]} {key[1]} seed {key[2]}"
        # A key can repeat (a test that replays a run); equal reports pair
        # first, the rest in file order.
        rest = list(change.get(key, []))
        unpaired = []
        for report in parent.get(key, []):
            if report in rest:
                rest.remove(report)
                identical += 1
            else:
                unpaired.append(report)
        for a, b in zip(unpaired, rest):
            fields = differing_fields(a, b)
            if fields == ["trace"]:
                trace_only += 1
            else:
                listed["DIFF"].append(f"{name}: {', '.join(fields)}")
        listed["ONLY-PARENT"] += [name] * (len(unpaired) - len(rest))
        listed["ONLY-CHANGE"] += [name] * (len(rest) - len(unpaired))
    print(f"run_reports: {identical} identical, {trace_only} differ only in "
          f"trace, {len(listed['DIFF'])} differ in other fields, "
          f"{len(listed['ONLY-PARENT'])} only in {parent_path}, "
          f"{len(listed['ONLY-CHANGE'])} only in {change_path}")
    for tag, lines in listed.items():
        for line in lines:
            print(f"  {tag} {line}")
    return 1 if trace_only or any(listed.values()) else 0


def main():
    if len(sys.argv) == 4 and sys.argv[1] == "--compare":
        return compare(sys.argv[2], sys.argv[3])
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
