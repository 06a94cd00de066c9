import time
from types import SimpleNamespace

import pytest

from lifelong_tta.cli import ExperimentConfig, cmd_train_source, eval_dataset_seed, load_checkpoints
from lifelong_tta.engine import evaluate_model, method_config, run_lifelong
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


# CLI method names, resolved as `lifelong-tta adapt --method` resolves them
HEADLINE_METHODS = ("source", "bn_adapt", "tent", "cotta", "petal_fim", "petal_sres", "petal_none")


@pytest.fixture(scope="session")
def headline_runs(default_bundle):
    """The directional experiment: every headline method over the default
    continual schedule and seed list. Per method, the run reports and each
    final student's error on the clean evaluation set; the fixture keeps no
    run state."""
    bundle = default_bundle
    clean = bundle.eval_set
    start = time.perf_counter()
    reports: dict[str, list] = {}
    clean_errors: dict[str, list[float]] = {}
    for label in HEADLINE_METHODS:
        petal_cfg = method_config(bundle.cfg.adapt, label)
        reports[label] = []
        clean_errors[label] = []
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
            clean_errors[label].append(evaluate_model(state.student, clean.images, clean.labels).error)
    elapsed = time.perf_counter() - start
    return SimpleNamespace(reports=reports, clean_errors=clean_errors, elapsed=elapsed)
