#!/usr/bin/env python3
"""Tier-1 check of the RUN-REPORT line and its collector.

  tests/run_report_check.py BUILD_DIR COLLECTOR

One replay of each shape (a chaos plan with an arming token, brownout,
midflush, a scenario, the attribution sample) must print exactly one
RUN-REPORT line that parses as JSON and has the required keys; the dump
switches must add their sections. The collector must then turn a
LastTest.log-shaped file of those lines into JSONL and replay the one run
marked failing with its dumps, and --compare must tell identical reports
from ones that differ in `trace`, in another field, or are missing.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile

REQUIRED = ("suite", "case", "seed", "trace", "replay", "verdict",
            "violations", "counters")
SHAPES = [
    ["tests/chaos_test", "--seed", "3", "--plan",
     "EventualConsistency:drop+batching"],
    ["tests/chaos_test", "--seed", "2", "--plan",
     "PrimaryBackupConsistency:brownout"],
    ["tests/chaos_test", "--seed", "1", "--plan",
     "PrimaryBackupAsyncConsistency:midflush"],
    ["tests/scenario_test", "--seed", "4", "--scenario", "evacuation:crash"],
    ["tests/scenario_test", "--seed", "7", "--attribution-sample"],
]
DUMPS = ("metrics", "traces", "timeseries", "keystats")


def run(build, args, dumps=()):
    proc = subprocess.run([os.path.join(build, args[0])] + args[1:] +
                          list(dumps),
                          capture_output=True, text=True, check=False)
    lines = [l for l in proc.stdout.splitlines() if l.startswith("RUN-REPORT ")]
    assert len(lines) == 1, f"{args}: {len(lines)} RUN-REPORT lines"
    report = json.loads(lines[0][len("RUN-REPORT "):])
    missing = [key for key in REQUIRED if key not in report]
    assert not missing, f"{args}: missing {missing}"
    assert report["replay"] == " ".join(args), report["replay"]
    assert report["verdict"] == "pass", (args, report["violations"])
    assert proc.returncode == 0, (args, proc.returncode)
    return lines[0], report


def check_compare(collector, out, collected):
    """--compare over a parent set and a change that moves one report's
    trace, one report's counters, drops one report and adds one. A second
    report of one (suite, case, seed), listed in another order, pairs with
    its equal."""
    parent = os.path.join(out, "parent.jsonl")
    change = os.path.join(out, "change.jsonl")
    changed = [dict(r) for r in collected]
    changed[1]["trace"] += "0"
    changed[2]["counters"] = dict(changed[2]["counters"], extra=1)
    changed[3] = dict(changed[4], seed=changed[4]["seed"] + 100)
    repeat = dict(collected[4], trace=collected[4]["trace"] + "1")
    for path, rows in ((parent, collected + [repeat]),
                       (change, [repeat] + changed)):
        with open(path, "w") as f:
            f.writelines(json.dumps(r) + "\n" for r in rows)

    def compare(a, b):
        return subprocess.run([sys.executable, collector, "--compare", a, b],
                              capture_output=True, text=True, check=False)

    same = compare(parent, parent)
    assert same.returncode == 0, same.stdout + same.stderr
    assert f"{len(collected) + 1} identical, 0 differ only in trace" in \
        same.stdout, same.stdout
    moved = compare(parent, change)
    assert moved.returncode == 1, moved.stdout + moved.stderr
    assert (f"3 identical, 1 differ only in trace, 1 differ in other "
            f"fields, 1 only in {parent}, 1 only in {change}") in \
        moved.stdout, moved.stdout
    key = collected[2]
    assert (f"DIFF {key['suite']} {key['case']} seed {key['seed']}: "
            "counters.extra") in moved.stdout, moved.stdout
    assert moved.stdout.count("ONLY-") == 2, moved.stdout


def main():
    build, collector = sys.argv[1], sys.argv[2]
    lines = []
    for args in SHAPES:
        line, report = run(build, args)
        lines.append(line)
        assert ("attribution" in report) == ("--attribution-sample" in args)
        assert ("timeline" in report) == ("--scenario" in args)
    _, dumped = run(build, SHAPES[3],
                    ["--dump-telemetry", "--dump-timeseries"])
    assert all(key in dumped for key in DUMPS), sorted(dumped)

    # A ctest log: per-test headers and gtest chatter around the reports,
    # one of them marked failing so the collector replays it.
    lines[0] = lines[0].replace('"verdict":"pass"', '"verdict":"fail"', 1)
    out = tempfile.mkdtemp()
    try:
        log = os.path.join(out, "LastTest.log")
        with open(log, "w") as f:
            for i, line in enumerate(lines):
                f.write(f"{i + 1}/5 Testing: Case{i}\nOutput:\n"
                        f"[ RUN      ] Case{i}\n{line}\n"
                        f"[       OK ] Case{i} (1 ms)\n<end of output>\n")
        proc = subprocess.run([sys.executable, collector, build, out, log],
                              capture_output=True, text=True, check=False)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        with open(os.path.join(out, "run-reports.jsonl")) as f:
            collected = [json.loads(l) for l in f]
        assert len(collected) == len(SHAPES), len(collected)
        failures = os.listdir(os.path.join(out, "failures"))
        assert len(failures) == 1, failures
        with open(os.path.join(out, "failures", failures[0])) as f:
            replayed = json.load(f)
        assert replayed["case"] == collected[0]["case"], replayed
        assert all(key in replayed for key in DUMPS), sorted(replayed)
        check_compare(collector, out, collected)
    finally:
        shutil.rmtree(out)
    print(f"run_report_check: {len(SHAPES)} shapes, the collector and "
          "--compare ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
