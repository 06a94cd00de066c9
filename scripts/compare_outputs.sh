#!/usr/bin/env bash
# Run one small experiment with two source trees and list every output file
# whose SHA-256 differs between them.
#
#   bash scripts/compare_outputs.sh BASE_TREE HEAD_TREE WORK_DIR
#
# Each tree runs with its own src/ on PYTHONPATH: train-source, adapt with
# every method name on a one-batch-per-segment stream, then petal_fim and
# cotta with K = 5 teacher draws. Both sides write under the same relative
# paths, so paths recorded inside the outputs compare equal. The differing
# files go to stdout and, when set, to $GITHUB_STEP_SUMMARY. Exits 1 if any
# file differs or exists on one side only.
set -euo pipefail

if [ "$#" -ne 3 ]; then
    echo "usage: $0 BASE_TREE HEAD_TREE WORK_DIR" >&2
    exit 2
fi
base=$(cd "$1" && pwd)
head=$(cd "$2" && pwd)
mkdir -p "$3"
work=$(cd "$3" && pwd)
methods=source,bn_adapt,pseudo_label,tent,cotta,petal_fim,petal_sres,petal_none

run_side() {  # run_side TREE NAME: outputs under WORK/NAME/runs, sums in WORK/NAME.sha256
    local src="$1/src" side="$work/$2"
    rm -rf "$side"
    mkdir -p "$side"
    (
        cd "$side"
        export PYTHONPATH="$src"
        echo '{"schedule": {"batches_per_segment": 1}, "seeds": [0]}' > tiny.json
        python3 -m lifelong_tta train-source --config tiny.json --out runs/main > /dev/null
        python3 -m lifelong_tta adapt --config tiny.json --out runs/main --method "$methods" > /dev/null
        # K = 5: one full block of four teacher draws and a partial block of one
        mkdir -p runs/k5
        cp runs/main/source_model.ptta runs/main/posterior.ptta runs/k5/
        python3 -m lifelong_tta adapt --config tiny.json --out runs/k5 --method petal_fim,cotta --k-aug 5 > /dev/null
        find runs -type f | LC_ALL=C sort | xargs sha256sum
    ) > "$work/$2.sha256"
}

run_side "$base" base
run_side "$head" head
differing=$({ diff "$work/base.sha256" "$work/head.sha256" || true; } | sed -n 's/^[<>] [0-9a-f]*  //p' | LC_ALL=C sort -u)
count=$(wc -l < "$work/head.sha256")
if [ -z "$differing" ]; then
    echo "all $count output files have the base commit's SHA-256"
    if [ -n "${GITHUB_STEP_SUMMARY:-}" ]; then
        echo "All $count output files have the base commit's SHA-256." >> "$GITHUB_STEP_SUMMARY"
    fi
    exit 0
fi
echo "output files whose SHA-256 differs from the base commit's:"
echo "$differing"
if [ -n "${GITHUB_STEP_SUMMARY:-}" ]; then
    {
        echo "### Output files whose SHA-256 differs from the base commit's"
        echo
        echo "$differing" | sed 's/^/- `/; s/$/`/'
    } >> "$GITHUB_STEP_SUMMARY"
fi
exit 1
