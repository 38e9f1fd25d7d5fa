#!/usr/bin/env bash
# A/A self-check: run the whole suite twice on the same build — end to
# end, then the traced replay — and fail unless every end-to-end metric
# agrees within its bound and slo_attainment, fail_share and every exact
# per-layer count are identical. Arguments are passed on to both runs
# (`benchmark/check.sh --workload reopt --seconds 5` checks one workload
# quickly).
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=$here/out

for pass in 1 2; do
    echo "== check pass $pass: end to end =="
    "$here/run.sh" "$@" --trace 0
    cp "$out/results.json" "$out/check-$pass-results.json"
    echo "== check pass $pass: traced replay =="
    "$here/run.sh" "$@" --trace 1
    cp "$out/results-layers.json" "$out/check-$pass-results-layers.json"
done

status=0
for kind in results results-layers; do
    echo "== A/A comparison: $kind =="
    "$here/run.sh" compare "$out/check-1-$kind.json" "$out/check-2-$kind.json" || status=1
done
[[ $status == 0 ]] && echo "check: both runs agree" || echo "check: the two runs DISAGREE (see FAIL lines above)"
exit $status
