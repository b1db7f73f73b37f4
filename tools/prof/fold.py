#!/usr/bin/env python3
"""Rank where a program spent its CPU time from tools/prof/sampler.c dumps.

  python3 tools/prof/fold.py DIR/prof.*.txt [--focus NAME] [--match A&B]

Frames in the program are symbolized with `nm -C -n PROGRAM`, frames in a
shared library with `nm -C -D -n LIBRARY`; a function's clones (a
coroutine's `.actor`, a `.cold` part) count as the function. The default
filters fit wiera_bench: keep the samples taken inside a round's
`measure()` and outside the host-speed probe's `SpeedProbe::slice` (--within
and --without replace them). The report gives:

  * the inclusive share of each frame: samples with it on the stack;
  * the innermost project frame: the deepest frame matching --project;
  * with --focus NAME, the callers and callees of the frames matching NAME;
  * with --match, the share of samples whose stack matches any of the
    given patterns, where `A&B` needs both A and B on the stack.

A coroutine resumed by the scheduler has only its own frames on the stack,
not its awaiting caller's, so count a coroutine path by all its frames.
"""
import argparse
import bisect
import collections
import re
import subprocess
import sys

CLONE = re.compile(r" \[clone [^\]]*\]")
NM_LINE = re.compile(r"^([0-9a-f]+) (\S) (.*)$")


def short_name(name):
    """`ns::f(int) const [clone .actor]` -> `ns::f`; templates kept."""
    name = CLONE.sub("", name)
    depth = 0
    for i, ch in enumerate(name):
        if ch == "<":
            depth += 1
        elif ch == ">":
            depth -= 1
        elif ch == "(" and depth == 0 and i > 0:
            if name.endswith("operator", 0, i):
                continue
            if name.startswith("(anonymous namespace)", i):
                continue
            return name[:i]
    return name


class Symbols:
    """Address -> function name for one file, from nm."""

    def __init__(self, path, dynamic):
        args = ["nm", "-C", "-n"] + (["-D"] if dynamic else []) + [path]
        out = subprocess.run(args, capture_output=True, text=True).stdout
        self.addrs, self.names = [], []
        for line in out.splitlines():
            m = NM_LINE.match(line)
            if m and m.group(2) in "tTwWiI":
                self.addrs.append(int(m.group(1), 16))
                self.names.append(short_name(m.group(3)))

    def lookup(self, offset):
        at = bisect.bisect_right(self.addrs, offset) - 1
        return self.names[at] if at >= 0 else "??"


def read_samples(paths, program_override):
    tables, cache = {}, {}
    samples = []
    for path in paths:
        with open(path) as f:
            header = f.readline().split()
            program = program_override or header[3]
            for line in f:
                frames = []
                for depth, token in enumerate(line.split()):
                    lib, sep, off = token.rpartition("+")
                    key = (lib if sep else program, off, depth > 0)
                    name = cache.get(key)
                    if name is None:
                        file = key[0]
                        if file not in tables:
                            tables[file] = Symbols(file, dynamic=bool(sep))
                        # Return addresses point after the call; look up
                        # the call itself for every frame but the leaf.
                        pc = int(off, 16) - (1 if key[2] else 0)
                        name = tables[file].lookup(pc)
                        if sep and name == "??":
                            name = lib.rsplit("/", 1)[-1]
                        cache[key] = name
                    frames.append(name)
                samples.append(frames)
    return samples


def matches(frames, pattern):
    return any(pattern in f for f in frames)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("dumps", nargs="+")
    p.add_argument("--program", help="symbolize with this binary instead "
                   "of the one the dump names")
    p.add_argument("--within", action="append",
                   help="keep samples with a frame containing this "
                   "(default: measure)")
    p.add_argument("--without", action="append",
                   help="drop samples with a frame containing this "
                   "(default: SpeedProbe::slice)")
    p.add_argument("--project", default="wiera::",
                   help="frames of the project (default: wiera::)")
    p.add_argument("--focus", help="callers/callees of frames containing this")
    p.add_argument("--match", action="append", default=[],
                   help="share of samples matching A or A&B (repeatable)")
    p.add_argument("--top", type=int, default=25)
    args = p.parse_args()
    within = args.within if args.within is not None else ["::measure"]
    without = args.without if args.without is not None else [
        "SpeedProbe::slice"]

    samples = read_samples(args.dumps, args.program)
    kept = [s for s in samples
            if all(matches(s, w) for w in within)
            and not any(matches(s, w) for w in without)]
    n = len(kept)
    print(f"samples: {len(samples)} read, {n} kept (within {within}, "
          f"without {without})")
    if n == 0:
        return 1

    def share(count):
        return f"{100.0 * count / n:6.1f}%"

    inclusive = collections.Counter()
    innermost = collections.Counter()
    for frames in kept:
        inclusive.update(set(frames))
        inner = next((f for f in frames if args.project in f), "<none>")
        innermost[inner] += 1
    print(f"\ninclusive share (top {args.top}):")
    for name, count in inclusive.most_common(args.top):
        print(f"  {share(count)}  {name}")
    print(f"\ninnermost {args.project} frame (top {args.top}):")
    for name, count in innermost.most_common(args.top):
        print(f"  {share(count)}  {name}")

    if args.focus:
        callers, callees, total = (collections.Counter(),
                                   collections.Counter(), 0)
        for frames in kept:
            hits = [i for i, f in enumerate(frames) if args.focus in f]
            if not hits:
                continue
            total += 1
            outer = hits[-1]
            callers[frames[outer + 1] if outer + 1 < len(frames)
                    else "<root>"] += 1
            callees[frames[outer - 1] if outer > 0 else "<self>"] += 1
        print(f"\n{args.focus}: {share(total)} of kept samples")
        print("  callers:")
        for name, count in callers.most_common(args.top):
            print(f"    {share(count)}  {name}")
        print("  callees:")
        for name, count in callees.most_common(args.top):
            print(f"    {share(count)}  {name}")

    if args.match:
        hit = sum(1 for frames in kept
                  if any(all(matches(frames, part) for part in m.split("&"))
                         for m in args.match))
        print(f"\nmatching any of {args.match}: {share(hit)} ({hit} samples)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
