#!/usr/bin/env bash
# Sampling CPU profile of one admission-benchmark workload under gprofng.
# It is the only per-function view inside hetnet-traffic, hetnet-fddi and
# hetnet-atm, which carry no tracing spans.
#
# Usage: scripts/profile.sh <workload> [seed] [seconds]   (defaults: seed 1, 120 s)
#
# Builds the perfbench release binary, runs it untraced from the
# repository root under `gprofng collect app -p on` (clock profiling,
# one sample per ~10 ms), keeps the experiment in
# target/profile/<workload>-s<seed>.er and prints the 25 hottest
# functions by exclusive and by inclusive CPU time. Exits 0 with a
# `skip:` line when gprofng is not installed. Not a check.sh stage:
# a profile is a measurement, not a gate.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 1 ] || [ $# -gt 3 ]; then
    echo "usage: scripts/profile.sh <workload> [seed] [seconds]" >&2
    exit 2
fi
workload="$1"
seed="${2:-1}"
seconds="${3:-120}"

if ! command -v gprofng >/dev/null 2>&1; then
    echo "skip: gprofng not found; install binutils' gprofng to profile"
    exit 0
fi

echo "==> building perfbench (release)"
cargo build --quiet --release --offline --manifest-path perfbench/Cargo.toml

exp="target/profile/${workload}-s${seed}.er"
mkdir -p target/profile
rm -rf "$exp"
echo "==> gprofng collect: $workload --seed $seed --seconds $seconds -> $exp"
gprofng collect app -p on -o "$exp" \
    perfbench/target/release/hetnet-perfbench \
    --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 >/dev/null

for kind in e i; do
    case "$kind" in
        e) echo "==> top 25 functions by exclusive CPU time"; metrics="e.%totalcpu:i.%totalcpu:name" ;;
        i) echo "==> top 25 functions by inclusive CPU time"; metrics="i.%totalcpu:e.%totalcpu:name" ;;
    esac
    gprofng display text -limit 25 -metrics "$metrics" -sort "$kind.totalcpu" -functions "$exp" |
        sed -n '/^Functions sorted by metric/,$p'
done
