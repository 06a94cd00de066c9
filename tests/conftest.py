import dataclasses
import time
from types import SimpleNamespace

import pytest

from lifelong_tta.cli import ExperimentConfig, cmd_train_source, eval_dataset_seed, load_checkpoints
from lifelong_tta.engine import run_lifelong
from lifelong_tta.streams import build_schedule, make_source_dataset


@pytest.fixture(scope="session")
def default_bundle(tmp_path_factory):
    """Source model + posterior trained once with the default config."""
    out = tmp_path_factory.mktemp("acceptance")
    cfg = ExperimentConfig(out_dir=str(out))
    summary = cmd_train_source(cfg)
    model, posterior = load_checkpoints(cfg)
    eval_set = make_source_dataset(eval_dataset_seed(cfg), cfg.dataset.n_per_class)
    schedule = build_schedule(
        cfg.schedule.kinds,
        cfg.schedule.mode,
        cfg.schedule.batches_per_segment,
        cfg.schedule.batch_size,
        order_seed=cfg.schedule.order_seed,
    )
    return SimpleNamespace(
        cfg=cfg,
        out=out,
        summary=summary,
        model=model,
        posterior=posterior,
        eval_set=eval_set,
        schedule=schedule,
    )


HEADLINE_METHODS = {
    "source": ("source", "none"),
    "tent": ("tent", "none"),
    "petal_fim": ("petal", "fim"),
    "petal_sres": ("petal", "stochastic"),
    "petal_none": ("petal", "none"),
}


@pytest.fixture(scope="session")
def headline_runs(default_bundle):
    """The directional experiment: every headline method over the default
    continual schedule and seed list; reports and final states per method."""
    bundle = default_bundle
    start = time.perf_counter()
    reports: dict[str, list] = {}
    states: dict[str, list] = {}
    for label, (method, restore_mode) in HEADLINE_METHODS.items():
        petal_cfg = dataclasses.replace(
            bundle.cfg.adapt, method=method, restore=restore_mode
        )
        reports[label] = []
        states[label] = []
        for seed in bundle.cfg.seeds:
            report, state = run_lifelong(
                bundle.schedule,
                bundle.eval_set,
                bundle.posterior,
                bundle.model,
                petal_cfg,
                seed,
            )
            reports[label].append(report)
            states[label].append(state)
    elapsed = time.perf_counter() - start
    return SimpleNamespace(reports=reports, states=states, elapsed=elapsed)
