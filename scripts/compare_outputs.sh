#!/usr/bin/env bash
# Run one small experiment with two source trees and list every output file
# whose SHA-256 differs between them.
#
#   bash scripts/compare_outputs.sh BASE_TREE HEAD_TREE WORK_DIR
#
# Each tree runs with its own src/ on PYTHONPATH: train-source, adapt with
# every method name on a one-batch-per-segment stream (petal among them, the
# row petal_fim repeats), then adapt without --method, which runs the config
# file's adapt.method (cotta, whose row restores at random), then
# petal_fim and cotta with K = 9 teacher draws at the default tau (the helper
# process draws all nine and runs one block of eight, main a partial block of
# one) and with K = 1, 5, 9 and 17 at tau 1, where the gate opens on nearly
# every step (K = 1 and 5: no helper, so main draws all K in one call and runs
# one partial block; K = 9: the helper draws all K and runs one block, main a
# partial one; K = 17: the helper draws all K and runs one block, main a full
# and a partial one), then tent_online (tent under
# the oracle segment reset) at two batches per segment, so the state, Adam
# moments included, is kept within a segment and rebuilt across segments, then
# petal_fim and cotta at alpha = 0, where petal's objective takes no posterior
# anchor and equals cotta's, then petal_fim and cotta with adapt values read
# from a config file (pi, delta and an augment magnitude), then petal_fim and
# cotta at tau 1 from a config file that zeroes the brightness and blur
# magnitudes, so each draw skips two of its uniform rows, then source,
# bn_adapt, tent and pseudo_label,
# petal_fim with the gate shut (--tau 0) and petal_fim and cotta at the
# default tau, where the gate opens and K = 32 teacher draws run, at the
# default 25 batches per segment, so a full stream (100 steps each) of
# running-statistic updates, BN-affine-only backwards, Adam steps, EMA
# updates, posterior anchors and augmented teacher blocks, whose buffers a run
# reuses from step to step, is compared, then a train-source whose source
# section sets every field away from its default (epochs, swag_epochs,
# momentum, batch_size, shuffle_seed). The resolved --dump-config of each
# config file is compared too. Both sides write under the same relative paths,
# so paths recorded inside the outputs compare equal. The differing files go
# to stdout and, when set, to $GITHUB_STEP_SUMMARY. Exits 1 if any file
# differs or exists on one side only.
set -euo pipefail

if [ "$#" -ne 3 ]; then
    echo "usage: $0 BASE_TREE HEAD_TREE WORK_DIR" >&2
    exit 2
fi
base=$(cd "$1" && pwd)
head=$(cd "$2" && pwd)
mkdir -p "$3"
work=$(cd "$3" && pwd)
methods=source,bn_adapt,pseudo_label,tent,cotta,petal,petal_fim,petal_sres,petal_none,tent_online

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
        mkdir -p runs/config_method
        cp runs/main/source_model.ptta runs/main/posterior.ptta runs/config_method/
        echo '{"schedule": {"batches_per_segment": 1}, "seeds": [0],
               "adapt": {"method": "cotta"}}' > config_method.json
        python3 -m lifelong_tta adapt --config config_method.json --out runs/config_method > /dev/null
        # K = 9: the helper's block of eight teacher draws and main's partial block of one
        mkdir -p runs/k9
        cp runs/main/source_model.ptta runs/main/posterior.ptta runs/k9/
        python3 -m lifelong_tta adapt --config tiny.json --out runs/k9 --method petal_fim,cotta --k-aug 9 > /dev/null
        # the gate open: at K = 1 and 5 main draws all K in one call, at K = 9 and 17 the helper draws them
        for k in 1 5 9 17; do
            mkdir -p "runs/k${k}_open"
            cp runs/main/source_model.ptta runs/main/posterior.ptta "runs/k${k}_open/"
            python3 -m lifelong_tta adapt --config tiny.json --out "runs/k${k}_open" --method petal_fim,cotta \
                --k-aug "$k" --tau 1 > /dev/null
        done
        mkdir -p runs/online
        cp runs/main/source_model.ptta runs/main/posterior.ptta runs/online/
        echo '{"schedule": {"batches_per_segment": 2}, "seeds": [0]}' > two.json
        python3 -m lifelong_tta adapt --config two.json --out runs/online --method tent_online > /dev/null
        mkdir -p runs/alpha0
        cp runs/main/source_model.ptta runs/main/posterior.ptta runs/alpha0/
        python3 -m lifelong_tta adapt --config tiny.json --out runs/alpha0 --method petal_fim,cotta --alpha 0 > /dev/null
        mkdir -p runs/adapt_file
        cp runs/main/source_model.ptta runs/main/posterior.ptta runs/adapt_file/
        echo '{"schedule": {"batches_per_segment": 1}, "seeds": [0],
               "adapt": {"pi": 0.99, "delta": 0.1, "augment": {"flip_prob": 0.25}}}' > adapt.json
        python3 -m lifelong_tta adapt --config adapt.json --out runs/adapt_file --method petal_fim,cotta > /dev/null
        mkdir -p runs/zero_magnitudes
        cp runs/main/source_model.ptta runs/main/posterior.ptta runs/zero_magnitudes/
        echo '{"schedule": {"batches_per_segment": 1}, "seeds": [0],
               "adapt": {"augment": {"brightness": 0, "blur_prob": 0}}}' > zero_magnitudes.json
        python3 -m lifelong_tta adapt --config zero_magnitudes.json --out runs/zero_magnitudes \
            --method petal_fim,cotta --tau 1 > /dev/null
        mkdir -p runs/default_length
        cp runs/main/source_model.ptta runs/main/posterior.ptta runs/default_length/
        echo '{"seeds": [0]}' > default_length.json
        python3 -m lifelong_tta adapt --config default_length.json --out runs/default_length \
            --method source,bn_adapt,tent,pseudo_label > /dev/null
        mkdir -p runs/default_length_tau0
        cp runs/main/source_model.ptta runs/main/posterior.ptta runs/default_length_tau0/
        python3 -m lifelong_tta adapt --config default_length.json --out runs/default_length_tau0 --method petal_fim \
            --tau 0 > /dev/null
        mkdir -p runs/default_length_teacher
        cp runs/main/source_model.ptta runs/main/posterior.ptta runs/default_length_teacher/
        python3 -m lifelong_tta adapt --config default_length.json --out runs/default_length_teacher \
            --method petal_fim,cotta > /dev/null
        echo '{"source": {"epochs": 4, "swag_epochs": 2, "momentum": 0.5, "batch_size": 32, "shuffle_seed": 3}}' \
            > source.json
        python3 -m lifelong_tta train-source --config source.json --out runs/source_file > /dev/null
        mkdir -p runs/configs
        for config in tiny two adapt zero_magnitudes source config_method; do
            python3 -m lifelong_tta adapt --config "$config.json" --dump-config > "runs/configs/$config.json"
        done
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
