"""Grid search for the posterior-anchor weight alpha on the held-out tuning
corruption (impulse noise), which stays out of the headline schedule.

Reads the source model and posterior that ``train-source`` wrote to the same
directory, under the same ``--config`` (dataset, stream lengths, adapt
settings; the default config when none is given):

    lifelong-tta train-source --out runs/benchmark
    python3 scripts/tune_regularizer.py --out runs/benchmark
"""

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from lifelong_tta.cli import (  # noqa: E402
    HELD_OUT_KIND,
    _apply_overrides,
    eval_dataset_seed,
    load_checkpoints,
    load_config,
)
from lifelong_tta.engine import NonFiniteLossError, method_config, run_lifelong  # noqa: E402
from lifelong_tta.streams import build_schedule, make_source_dataset  # noqa: E402

GRID = (1e-6, 1e-7, 1e-9, 1e-10, 5e-10, 1e-11, 5e-11, 1e-12)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", help="JSON config file, as given to train-source and adapt")
    parser.add_argument("--out", help="directory holding the train-source checkpoints (overrides config)")
    parser.add_argument("--seeds", help="comma-separated integer seeds (overrides config)")
    args = parser.parse_args()

    try:
        cfg = _apply_overrides(load_config(args.config), args)  # --out and --seeds, as the CLI reads them
        model, posterior = load_checkpoints(cfg)
    except (ValueError, OSError) as exc:  # OSError: a checkpoint path that is a directory too
        sys.stderr.write(f"error: {exc}\n")
        return 2
    eval_set = make_source_dataset(eval_dataset_seed(cfg), cfg.dataset.n_per_class)
    schedule = build_schedule(
        (HELD_OUT_KIND,),
        "continual5",
        cfg.schedule.batches_per_segment,
        cfg.schedule.batch_size,
    )
    tuned = method_config(cfg.adapt, "petal_fim")  # as `adapt --method petal_fim` runs it
    best = None
    # as cli.main runs it: the model checks its outputs for NaN/Inf, numpy's own warnings stay off
    with np.errstate(all="ignore"):
        for alpha in GRID:
            petal_cfg = dataclasses.replace(tuned, alpha=alpha)
            errors = []
            for seed in cfg.seeds:
                try:
                    report = run_lifelong(schedule, eval_set, posterior, model, petal_cfg, seed)[0]
                except NonFiniteLossError as exc:
                    sys.stderr.write(f"error: {exc}\n")
                    return 3
                errors.append(report.overall["error"])
            mean = float(np.mean(errors))
            marker = ""
            if best is None or mean < best[1]:
                best = (alpha, mean)
                marker = "  <- best so far"
            print(f"alpha={alpha:8.0e}  mean error {mean:7.4f}%{marker}")
    print(f"\nwinner: alpha={best[0]:g} (mean error {best[1]:.4f}%)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
