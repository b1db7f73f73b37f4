#!/usr/bin/env python3
"""Build and run the Wiera end-to-end benchmark (see README.md here).

One run (the last line of stdout is the JSON result):
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Whole suite: every workload 5 times, interleaved, a fresh process per run,
then one traced run per workload. Prints `workload metric median q1 q3 n
unit` and exits non-zero if any check fails; --out writes the table as JSON:
  python3 perfbench/run.py --suite [--seconds S] [--out FILE]

Smoke check: every workload at 1/50 length on seeds 1 and 2, all output
checks on, each seed run twice in separate processes (equal trace hashes):
  python3 perfbench/run.py --smoke

Figure timings (information only): wall seconds of the seven figure
binaries, each run twice with byte-identical stdout:
  python3 perfbench/run.py --figures [--out FILE]

Everything is built from the checkout's sources into .bench_build/.
"""
import argparse
import fcntl
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_TYPE = "RelWithDebInfo"
WORKLOADS = ["mp_hot_1k", "ev_small_256", "pbsync_large_64k",
             "pbasync_tiered_open"]
FIGURES = ["fig7_dynamic_consistency", "fig8_change_primary",
           "fig9_tier_latency", "table4_cost_model", "fig10_centralized_cold",
           "fig11_sysbench", "fig12_rubis"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(targets):
    """Configure once, then build `targets` (incremental; serialized)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"library sources not found under {ROOT}/src")
        sys.exit(2)
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        with open(os.path.join(BUILD, "build.log"), "w") as out:
            steps = []
            if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
                steps.append(["cmake", "-S", HERE, "-B", BUILD,
                              f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
            steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target"]
                         + targets)
            for cmd in steps:
                if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT
                                  ).returncode != 0:
                    log(f"build failed, see {out.name}")
                    sys.exit(2)


def run_bench(workload, seed, seconds, trace, extra=()):
    """One benchmark process; returns (result line or None, stderr text)."""
    cmd = [os.path.join(BUILD, "wiera_bench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)] + list(extra)
    if trace:
        spans = os.path.join(ROOT, ".bench_build", "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(spans, f"{workload}-{seed}.jsonl")]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"{workload} seed {seed}: timed out"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, proc.stderr
    return lines[-1], proc.stderr


def single(args):
    build(["wiera_bench"])
    line, err = run_bench(args.workload, args.seed, args.seconds, args.trace)
    sys.stderr.write(err)
    if line is None:
        sys.exit(1)
    print(line)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def suite(args):
    build(["wiera_bench"])
    ok = True
    samples = {}  # (workload, metric) -> (values, unit)

    def take(workload, line, err):
        nonlocal ok
        result = json.loads(line) if line else None
        if result is None or not result["correct"] or result["failed"]:
            ok = False
            log(f"{workload}: check failed\n{err}")
        if result is None:
            return
        for name, m in result["metrics"].items():
            values, _ = samples.setdefault((workload, name), ([], m["unit"]))
            values.append(m["value"])

    for i in range(5):
        for w in WORKLOADS:
            take(w, *run_bench(w, i + 1, args.seconds, 0))
    for w in WORKLOADS:
        take(w, *run_bench(w, 1, args.seconds, 1))

    table = {}
    for (w, name), (values, unit) in samples.items():
        med, q1, q3 = quartiles(values)
        print(f"{w} {name} {med:.6g} {q1:.6g} {q3:.6g} {len(values)} {unit}")
        table.setdefault(w, {})[name] = {
            "median": med, "q1": q1, "q3": q3, "n": len(values), "unit": unit}
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"host": host_info(), "seconds": args.seconds,
                       "workloads": table}, f, indent=1, sort_keys=True)
            f.write("\n")
    sys.exit(0 if ok else 1)


def smoke(args):
    build(["wiera_bench"])
    ok = True
    for w in WORKLOADS:
        for seed in (1, 2):
            hashes = []
            for _ in range(2):
                line, err = run_bench(w, seed, 0, 0,
                                      ["--scale", "0.02", "--min-rounds", "2"])
                result = json.loads(line) if line else None
                found = re.search(r"trace_hash=([0-9a-f]+)", err)
                hashes.append(found.group(1) if found else None)
                if result is None or not result["correct"] or result["failed"]:
                    ok = False
                    log(f"{w} seed {seed}: check failed\n{err}")
            same = hashes[0] is not None and hashes[0] == hashes[1]
            ok = ok and same
            print(f"{w} seed {seed} trace_hash {hashes[0]} "
                  f"{'repeats' if same else 'DIFFERS'}")
    print("smoke: ok" if ok else "smoke: FAILED")
    sys.exit(0 if ok else 1)


def figures(args):
    build(FIGURES)
    ok = True
    walls = {}
    for fig in FIGURES:
        binary = os.path.join(BUILD, fig)
        outputs, times = [], []
        for _ in range(2):
            t0 = time.monotonic()
            proc = subprocess.run([binary], capture_output=True)
            times.append(time.monotonic() - t0)
            outputs.append(proc.stdout)
            ok = ok and proc.returncode == 0
        same = outputs[0] == outputs[1]
        ok = ok and same
        walls[fig] = min(times)
        print(f"{fig} wall_s {min(times):.3f} stdout "
              f"{'identical' if same else 'DIFFERS'}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"host": host_info(), "figure_wall_s": walls}, f,
                      indent=1, sort_keys=True)
            f.write("\n")
    sys.exit(0 if ok else 1)


def host_info():
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            names = [l.split(":", 1)[1].strip() for l in f
                     if l.startswith("model name")]
        cpu = names[0] if names else cpu
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "build_type": BUILD_TYPE}


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--suite", action="store_true")
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--figures", action="store_true")
    p.add_argument("--out")
    args = p.parse_args()
    if args.suite:
        suite(args)
    elif args.smoke:
        smoke(args)
    elif args.figures:
        figures(args)
    elif args.workload:
        single(args)
    else:
        p.error("give --workload, --suite, --smoke or --figures")


if __name__ == "__main__":
    main()
