#!/usr/bin/env bash
# The repo benchmark: builds the package offline, then runs it.
#
#   bench/run.sh                       every workload, untraced then traced
#   bench/run.sh --repeat 2            two such sets, compared metric by metric
#   bench/run.sh --workload W --seed N --seconds S --trace 0|1
#                                      one run; the last line is the JSON result
#   bench/run.sh --manifest            print BENCHMARK.json
#
# Run it from the repository root. Everything it writes goes under
# bench/out/ (and the build under $CARGO_TARGET_DIR, default bench/target/).
set -u
here=$(cd "$(dirname "$0")" && pwd)
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
export CARGO_NET_OFFLINE=true
export TLC_BENCH_COMMIT="${TLC_BENCH_COMMIT:-$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)}"

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2 || exit 3

"$CARGO_TARGET_DIR/release/tlc-perfbench" --out "$here/out" "$@" &
pid=$!
# Stores live under out/tmp-<pid>; the program removes them on every
# return, error and panic, and this removes them if it is killed.
trap 'kill "$pid" 2>/dev/null; wait "$pid" 2>/dev/null; rm -rf "$here/out/tmp-"*; exit 130' INT TERM
wait "$pid"
status=$?
rm -rf "$here/out/tmp-$pid"
exit "$status"
