#!/usr/bin/env bash
# Profile one perfbench workload with the SIGPROF sampler and print where
# the host time went.
#
#   tools/prof/profile.sh WORKLOAD [SECONDS] [fold.py options...]
#
# Builds sampler.so from sampler.c and wiera_bench through perfbench/run.py
# (RelWithDebInfo, into .bench_build/perfbench), runs one seed-1 run of
# WORKLOAD for SECONDS of wall time (default 10) with the sampler preloaded,
# and prints fold.py's report over the measured windows. Extra arguments
# go to fold.py, e.g. --focus 'MetaDb::find' --match 'Topology&transfer'.
# Dumps and the sampler library stay in .bench_build/prof.
set -euo pipefail

if [[ $# -lt 1 ]]; then
  echo "usage: $0 WORKLOAD [SECONDS] [fold.py options...]" >&2
  exit 2
fi
workload=$1
seconds=${2:-10}
shift $(( $# >= 2 ? 2 : 1 ))

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)
out="$root/.bench_build/prof"
bench="$root/.bench_build/perfbench/wiera_bench"
mkdir -p "$out"
rm -f "$out"/prof.*.txt

gcc -O2 -shared -fPIC -o "$out/sampler.so" "$root/tools/prof/sampler.c" -ldl
python3 -c 'import sys; sys.path.insert(0, sys.argv[1]); import run; run.build(["wiera_bench"])' \
  "$root/perfbench"

WIERA_PROF_DIR="$out" LD_PRELOAD="$out/sampler.so" "$bench" \
  --workload "$workload" --seed 1 --seconds "$seconds" --trace 0 > /dev/null
python3 "$root/tools/prof/fold.py" "$out"/prof.*.txt --program "$bench" "$@"
