#!/bin/sh
# Write the standard report evidence set of this checkout to OUT.
#
#     tools/report_runs.sh OUT
#
# Runs, at seeds 42 and 7, the nine experiments at their default sizes
# and five runs near the 2D cap, each writing CSV and JSON reports to
# OUT/seed<seed>/. Compare two such directories, made from two
# checkouts, with `python tools/report_diff.py OUT_A OUT_B`. The
# package is imported from this checkout's src/; set PYTHON to choose
# the interpreter (default python3). Exits non-zero when a run fails.
set -eu

if [ "$#" -ne 1 ]; then
    echo "usage: $0 OUT" >&2
    exit 2
fi
out=$1
root=$(cd "$(dirname "$0")/.." && pwd)
python=${PYTHON:-python3}

EXPERIMENTS="lemma41 reiteration higher-power criticality weight intersection halft1 stokes-retraction stokes-equivalence"
CAP_RUNS="halft1:12 24
stokes-retraction:16 32
halft1:32
intersection:32 24
stokes-equivalence:32"

run() {
    PYTHONPATH="$root/src" "$python" -m fracspace.cli "$@" --format both
}

for seed in 42 7; do
    dir="$out/seed$seed"
    mkdir -p "$dir"
    for experiment in $EXPERIMENTS; do
        run "$experiment" --seed "$seed" --out "$dir"
    done
    echo "$CAP_RUNS" | while IFS=: read -r experiment sizes; do
        # sizes splits into one --size argument per grid
        # shellcheck disable=SC2086
        run "$experiment" --size $sizes --seed "$seed" --out "$dir"
    done
done
