#!/usr/bin/env bash
# The benchmark's one command. By hand:
#
#   benchmark/run.sh [--seed S] [--workload NAME]... [--seconds N] [--trace]
#
# and as BENCHMARK.json's "command", from the repo root:
#
#   bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# It builds what the run needs (offline, release), then hands over to the
# driver, which prints every metric by name with unit and sample count,
# checks outputs, writes benchmark/out/results{,-layers}.json and ends
# with one JSON result line per workload.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")

# One target directory for both workspaces when the caller names one
# (cargo reads a relative CARGO_TARGET_DIR against each build's own
# working directory, so pin it down first); otherwise each workspace
# keeps its usual ./target.
if [[ -n "${CARGO_TARGET_DIR:-}" ]]; then
    [[ "$CARGO_TARGET_DIR" = /* ]] || CARGO_TARGET_DIR="$PWD/$CARGO_TARGET_DIR"
    export CARGO_TARGET_DIR
    root_target=$CARGO_TARGET_DIR
    bench_target=$CARGO_TARGET_DIR
else
    root_target=$root/target
    bench_target=$here/target
fi

trace=0
prev=
for arg in "$@"; do
    [[ "$prev" == --trace && "$arg" == 0 ]] && trace=0
    [[ "$arg" == --trace ]] && trace=1
    prev=$arg
done

mkdir -p "$here/out"
build_log=$here/out/build.log
started=$(date +%s%N)

# The driver has no dyno-* dependency and repro is the repo's own binary:
# if either fails to build there is nothing to measure.
(cd "$here" && cargo build --release --offline -p dyno-benchmark) >"$build_log" 2>&1 ||
    { cat "$build_log" >&2; echo "benchmark: the driver did not build" >&2; exit 1; }

# `run.sh compare FIRST.json SECOND.json` is check.sh's way to the driver.
if [[ "${1:-}" == compare ]]; then
    shift
    exec "$bench_target/release/driver" compare "$@" --spec "$root/BENCHMARK.json"
fi
(cd "$root" && cargo build --release --offline -p dyno-bench --bin repro) >"$build_log" 2>&1 ||
    { cat "$build_log" >&2; echo "benchmark: repro did not build" >&2; exit 1; }

# The per-layer replay links every dyno crate and may stop compiling when
# one of them changes its API; that must not cost the end-to-end numbers,
# so its build is only attempted for a traced run and its failure is
# reported per metric, not as a failed run.
layers=()
if [[ $trace == 1 ]]; then
    if (cd "$here" && cargo build --release --offline -p dyno-benchmark-layers) >"$build_log" 2>&1; then
        layers=(--layers "$bench_target/release/layers")
    else
        layers=(--layers-error "$(grep -m1 -E '^error' "$build_log" || head -n1 "$build_log")")
    fi
fi
build_ms=$(( ($(date +%s%N) - started) / 1000000 ))
build_s=$(printf '%d.%03d' $((build_ms / 1000)) $((build_ms % 1000)))

commit=unknown
[[ -e "$root/.git" ]] && commit=$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)

exec "$bench_target/release/driver" run \
    --root "$root" --repro "$root_target/release/repro" "${layers[@]}" \
    --build-s "$build_s" --commit "$commit" "$@"
