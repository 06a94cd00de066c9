"""The benchmark's workloads, their seed lists and the layer -> metric map.

Every workload is a closed loop in one process: set-up, then passes, each
pass one ``cmd_adapt`` call that runs every (method, seed) pair of the
workload, one run after another. The program receives only the config built
here and the seeds drawn from the benchmark's ``--seed``.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass

# the two named seed lists: dev seeds are even, held-out seeds odd, so a
# claim made while tuning on dev can be confirmed on seeds it never saw
SEED_LISTS = {"dev": 0, "heldout": 1}

# set-up is repeated this many times per untraced run; setup_s is the median
SETUP_REPEATS = 5

# program seeds per pass: each method runs once per pass
SEEDS_PER_PASS = 1

# batches per segment of every schedule under --smoke
SMOKE_BATCHES_PER_SEGMENT = 1


@dataclass(frozen=True)
class Workload:
    """One cost class of steps, so the step percentiles of each method move
    with that method: every workload holds methods whose steps cost about
    the same (why each was chosen is in BENCHMARK.json)."""

    name: str
    methods: tuple[str, ...]
    mode: str  # schedule mode
    batches_per_segment: int
    tau: float | None = None  # None keeps the default gate threshold

    def config(self, cli, seeds: tuple[int, ...], smoke: bool):
        """The ExperimentConfig handed to the program, rooted at ``runs``."""
        cfg = cli.ExperimentConfig(seeds=seeds, out_dir="runs")
        schedule = dataclasses.replace(
            cfg.schedule,
            mode=self.mode,
            batches_per_segment=SMOKE_BATCHES_PER_SEGMENT if smoke else self.batches_per_segment,
        )
        adapt = cfg.adapt if self.tau is None else dataclasses.replace(cfg.adapt, tau=self.tau)
        cfg = dataclasses.replace(cfg, schedule=schedule, adapt=adapt)
        cli.validate_config(cfg)
        return cfg


# The paper's headline sweep (default continual5 stream, 100 batches of 64) is
# split by step cost, and the no-augmentation self-training methods run on the
# ramped 32-segment gradual stream at 5 batches per segment (160 batches; the
# default 25 would make one petal_fim run about 30 s).
WORKLOADS = {
    w.name: w
    for w in (
        Workload("headline_forward", ("source", "bn_adapt"), "continual5", 25),
        Workload("headline_teacher", ("cotta", "petal_fim"), "continual5", 25),
        Workload("petal_long", ("petal_fim",), "gradual", 5),
        Workload("no_aug_selftrain", ("tent", "pseudo_label"), "gradual", 5, tau=0.0),
        Workload("no_aug_petal", ("petal_fim",), "gradual", 5, tau=0.0),
    )
}

# Which end-to-end metric each layer's metrics should move, and on which
# workloads. A later change that claims a gain on one layer cites this map.
ALL = list(WORKLOADS)
LAYER_MAP = {
    "cli": {
        "metrics": ["cli.adapt_s", "cli.output_bytes", "cli.self_s"],
        "moves": {"samples_per_s": ["headline_forward"]},
    },
    "swag": {
        "metrics": ["swag.train_source_s", "swag.sgd_steps", "swag.self_s"],
        "moves": {"setup_s": ALL},
    },
    "checkpoint": {
        "metrics": ["checkpoint.write_s", "checkpoint.read_s", "checkpoint.bytes",
                    "checkpoint.self_s"],
        "moves": {"setup_s": ALL},
    },
    "streams": {
        "metrics": ["streams.dataset_s", "streams.wait_s", "streams.batches", "streams.self_s"],
        "moves": {"samples_per_s": ["headline_forward"]},
        "note": "about half of a source/bn_adapt run is apply_corruption",
    },
    "engine.teacher": {
        "metrics": ["engine.step_s", "engine.pseudo_label_s", "engine.augment_s",
                    "engine.augment_calls", "engine.gate_open_frac"],
        "moves": {
            "step_ms_p50": ["petal_long", "headline_teacher"],
            "samples_per_s": ["petal_long", "headline_teacher"],
        },
        "unchanged_on": ["headline_forward", "no_aug_selftrain", "no_aug_petal"],
    },
    "engine.update": {
        "metrics": ["engine.loss_s", "engine.adam_s", "engine.ema_s", "engine.fim_mask_s",
                    "engine.restore_s", "engine.restored_per_step", "engine.self_s"],
        "moves": {"step_ms_p50": ["no_aug_selftrain", "no_aug_petal"]},
        "note": "ema, fim_mask and restore run only in cotta and petal_fim steps",
    },
    "model": {
        "metrics": ["model.forward_calls", "model.forward_rows", "model.forward_s",
                    "model.taped_forward_s", "model.flatten_calls", "model.load_calls",
                    "model.flatten_load_s", "model.self_s"],
        "moves": {
            "step_ms_p50": ALL,
            "setup_s": ALL,
        },
        "note": "batching the teacher lowers forward_calls at equal forward_rows on "
                "petal_long; a flat parameter vector lowers flatten_calls/load_calls",
    },
    "autodiff": {
        "metrics": ["autodiff.backward_s", "autodiff.backward_calls", "autodiff.tensor_count",
                    "autodiff.tape_nodes", "autodiff.self_s"],
        "moves": {
            "step_ms_p50": ["no_aug_selftrain", "no_aug_petal"],
            "setup_s": ALL,
        },
    },
    "metrics": {
        "metrics": ["metrics.score_s", "metrics.self_s"],
        "moves": {"samples_per_s": ["headline_forward"]},
    },
}


def program_seeds(seed: int, count: int, seed_list: str) -> tuple[int, ...]:
    """The program seeds of one benchmark seed: the same (seed, list) always
    gives the same seeds, and the two lists never share one."""
    if seed_list not in SEED_LISTS:
        raise ValueError(f"unknown seed list {seed_list!r}")
    rng = random.Random(f"{seed_list}:{seed}")
    return tuple(2 * rng.randrange(2**30) + SEED_LISTS[seed_list] for _ in range(count))
