"""Experiment front-end: source training, lifelong adaptation runs, reports.

Configuration lives in a JSON file (strict: unknown keys are rejected) and
individual flags override file values. Runs are fully reproducible: the
resolved config plus the seed list determine every output byte.

Subcommands:
  train-source  fit the classifier and its posterior on clean data, write
                both checkpoints
  adapt         run lifelong adaptation for one or more methods across seeds,
                writing one report.json + steps.csv per (method, seed)
  report        aggregate run directories into a method-by-metric table
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .checkpoint import CheckpointError
from .engine import (
    ADAPT_METHODS,
    BASELINE_METHODS,
    NonFiniteLossError,
    PetalConfig,
    evaluate_model,
    run_lifelong,
)
from .model import MlpClassifier
from .streams import CORRUPTION_KINDS, build_schedule, make_source_dataset
from .swag import SwagDiagPosterior, train_source

# impulse_noise is reserved for hyperparameter tuning and kept out of the
# headline schedule; the headline stream ends on its most destructive kind so
# that long-horizon forgetting is visible at the end of a run
HEADLINE_KINDS = ("contrast", "gaussian_noise", "box_blur", "pixelate")
HELD_OUT_KIND = "impulse_noise"

MODEL_CHECKPOINT = "source_model.ptta"
POSTERIOR_CHECKPOINT = "posterior.ptta"

# petal variants addressable as method names on the command line
METHOD_VARIANTS = {
    "petal_fim": ("petal", "fim"),
    "petal_sres": ("petal", "stochastic"),
    "petal_none": ("petal", "none"),
}


@dataclass(frozen=True)
class DatasetConfig:
    seed: int = 0
    n_per_class: int = 100


@dataclass(frozen=True)
class ModelConfig:
    sizes: tuple = (64, 128, 128, 8)
    init_seed: int = 0


@dataclass(frozen=True)
class SourceTrainConfig:
    epochs: int = 30
    lr: float = 0.05
    momentum: float = 0.9
    batch_size: int = 64
    swag_epochs: int = 5
    shuffle_seed: int = 1


@dataclass(frozen=True)
class ScheduleConfig:
    kinds: tuple = HEADLINE_KINDS
    mode: str = "continual5"
    batches_per_segment: int = 25
    batch_size: int = 64
    order_seed: int | None = None


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    source: SourceTrainConfig = field(default_factory=SourceTrainConfig)
    schedule: ScheduleConfig = field(default_factory=ScheduleConfig)
    adapt: PetalConfig = field(default_factory=PetalConfig)
    seeds: tuple = (0, 1, 2, 3, 4)
    out_dir: str = "runs"


def _nested_dataclass(field_obj):
    if field_obj.default_factory is not dataclasses.MISSING:
        probe = field_obj.default_factory()
        if dataclasses.is_dataclass(probe):
            return type(probe)
    if field_obj.default is not dataclasses.MISSING and dataclasses.is_dataclass(field_obj.default):
        return type(field_obj.default)
    return None


def _from_dict(cls, data, path="config"):
    if not isinstance(data, dict):
        raise ValueError(f"{path} must be an object")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(data) - set(fields)
    if unknown:
        raise ValueError(f"unknown keys in {path}: {sorted(unknown)}")
    kwargs = {}
    for name, value in data.items():
        nested = _nested_dataclass(fields[name])
        if nested is not None:
            kwargs[name] = _from_dict(nested, value, f"{path}.{name}")
            continue
        _check_leaf(value, fields[name].default, f"{path}.{name}")
        kwargs[name] = tuple(value) if isinstance(value, list) else value
    return cls(**kwargs)


def _check_leaf(value, default, path):
    """Reject a JSON value whose type is not the field default's. A bool is
    not an int, an int is a float, and a tuple default checks a list item by
    item against its first element."""
    if isinstance(default, tuple):
        if not isinstance(value, list):
            raise ValueError(f"{path} must be a list, got {type(value).__name__}")
        for i, item in enumerate(value):
            _check_leaf(item, default[0], f"{path}[{i}]")
        return
    if default is None:  # schedule.order_seed
        expected = (int, type(None))
    elif type(default) is float:
        expected = (int, float)
    else:
        expected = (type(default),)
    if isinstance(value, bool) != isinstance(default, bool) or not isinstance(value, expected):
        names = " or ".join("null" if t is type(None) else t.__name__ for t in expected)
        raise ValueError(f"{path} must be {names}, got {type(value).__name__}")


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build a config from a JSON document, rejecting unknown keys."""
    cfg = _from_dict(ExperimentConfig, data)
    validate_config(cfg)
    return cfg


def _check_finite(section, path: str) -> None:
    """Reject a NaN or infinite float anywhere in a config, naming the field."""
    for f in dataclasses.fields(section):
        value = getattr(section, f.name)
        where = f"{path}.{f.name}"
        if dataclasses.is_dataclass(value):
            _check_finite(value, where)
        elif isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{where} must be finite, got {value}")


def validate_config(cfg: ExperimentConfig) -> None:
    _check_finite(cfg, "config")
    if cfg.dataset.n_per_class < 1:
        raise ValueError("dataset.n_per_class must be >= 1")
    if len(cfg.model.sizes) < 3 or cfg.model.sizes[-1] < 2 or min(cfg.model.sizes) < 1:
        raise ValueError("model.sizes must be (input, hidden..., classes>=2)")
    if cfg.source.epochs < 1:
        raise ValueError("source.epochs must be >= 1")
    if cfg.source.lr <= 0 or not 0 <= cfg.source.momentum < 1:
        raise ValueError("source.lr must be positive and momentum in [0, 1)")
    if cfg.source.batch_size < 2:
        raise ValueError("source.batch_size must be >= 2 (train-mode batch norm)")
    if cfg.source.swag_epochs < 1:
        raise ValueError("source.swag_epochs must be >= 1")
    for kind in cfg.schedule.kinds:
        if kind not in CORRUPTION_KINDS:
            raise ValueError(f"unknown corruption kind {kind!r}")
    if not cfg.schedule.kinds:
        raise ValueError("schedule.kinds must be non-empty")
    if cfg.schedule.mode not in ("continual5", "gradual"):
        raise ValueError("schedule.mode must be continual5 or gradual")
    if cfg.schedule.batches_per_segment < 1 or cfg.schedule.batch_size < 2:
        raise ValueError("schedule batches_per_segment >= 1 and batch_size >= 2")
    if not 0.0 <= cfg.adapt.tau <= 1.0:
        raise ValueError("adapt.tau must be in [0, 1]")
    if not cfg.seeds:
        raise ValueError("seeds must be non-empty")
    if min(cfg.seeds) < 0 or len(set(cfg.seeds)) != len(cfg.seeds):
        raise ValueError(f"seeds must be distinct non-negative integers, got {list(cfg.seeds)}")


def config_to_dict(cfg: ExperimentConfig) -> dict:
    return dataclasses.asdict(cfg)


def load_config(path: str | None) -> ExperimentConfig:
    if path is None:
        return ExperimentConfig()
    with open(path, "r", encoding="utf-8") as handle:
        return config_from_dict(json.load(handle))


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    adapt = cfg.adapt
    adapt_updates = {}
    for flag, name in (
        ("restore", "restore"),
        ("delta", "delta"),
        ("rho", "rho"),
        ("alpha", "alpha"),
        ("tau", "tau"),
        ("k_aug", "k_aug"),
        ("predict_from", "predict_from"),
    ):
        value = getattr(args, flag, None)
        if value is not None:
            adapt_updates[name] = value
    if getattr(args, "reset_optimizer_state", False):
        adapt_updates["reset_optimizer_state"] = True
    if getattr(args, "tent_online", False):
        adapt_updates["tent_online"] = True
    if adapt_updates:
        adapt = dataclasses.replace(adapt, **adapt_updates)
    updates = {"adapt": adapt}
    if getattr(args, "schedule", None) is not None:
        updates["schedule"] = dataclasses.replace(cfg.schedule, mode=args.schedule)
    if getattr(args, "seeds", None) is not None:
        try:
            updates["seeds"] = tuple(int(s) for s in args.seeds.split(","))
        except ValueError:
            raise ValueError(f"--seeds must be comma-separated integers, got {args.seeds!r}") from None
    if getattr(args, "out", None) is not None:
        updates["out_dir"] = args.out
    cfg = dataclasses.replace(cfg, **updates)
    validate_config(cfg)
    return cfg


# ---------------------------------------------------------------------------
# commands


def eval_dataset_seed(cfg: ExperimentConfig) -> int:
    # the stream and the clean test set use fresh draws, disjoint from training
    return cfg.dataset.seed + 1


def cmd_train_source(cfg: ExperimentConfig) -> dict:
    """Train on the clean synthetic set and write model + posterior checkpoints."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    dataset = make_source_dataset(cfg.dataset.seed, cfg.dataset.n_per_class)
    model = MlpClassifier(cfg.model.sizes, seed=cfg.model.init_seed)
    posterior, history = train_source(
        model,
        dataset.images.reshape(len(dataset), -1),
        dataset.labels,
        epochs=cfg.source.epochs,
        lr=cfg.source.lr,
        momentum=cfg.source.momentum,
        batch_size=cfg.source.batch_size,
        swag_epochs=cfg.source.swag_epochs,
        rng=np.random.Generator(np.random.PCG64(cfg.source.shuffle_seed)),
    )
    model.save(out / MODEL_CHECKPOINT)
    posterior.save(out / POSTERIOR_CHECKPOINT, model)
    eval_set = make_source_dataset(eval_dataset_seed(cfg), cfg.dataset.n_per_class)
    probe = model.clone()
    probe.load(posterior.mu)
    clean = evaluate_model(probe, eval_set.images, eval_set.labels)
    summary = {
        "epochs": cfg.source.epochs,
        "final_train_accuracy": history[-1]["train_accuracy"],
        "clean_test_error": clean.error,
        "model_checkpoint": str(out / MODEL_CHECKPOINT),
        "posterior_checkpoint": str(out / POSTERIOR_CHECKPOINT),
    }
    (out / "train_summary.json").write_text(
        json.dumps(summary, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    return summary


def resolve_method(name: str) -> tuple[str, str | None]:
    """Map a CLI method name to (engine method, restore override)."""
    if name in METHOD_VARIANTS:
        return METHOD_VARIANTS[name]
    if name in ADAPT_METHODS + BASELINE_METHODS:
        return name, None
    raise ValueError(f"unknown method {name!r}")


def load_checkpoints(cfg: ExperimentConfig) -> tuple[MlpClassifier, SwagDiagPosterior]:
    out = Path(cfg.out_dir)
    model_path = out / MODEL_CHECKPOINT
    posterior_path = out / POSTERIOR_CHECKPOINT
    if not model_path.exists() or not posterior_path.exists():
        raise FileNotFoundError(
            f"missing checkpoints under {out}; run train-source first"
        )
    try:
        model = MlpClassifier.load_checkpoint(model_path)
    except ValueError as exc:  # a CheckpointError, or layer sizes no model can have
        raise CheckpointError(f"{model_path}: {exc}") from exc
    try:
        posterior = SwagDiagPosterior.load(posterior_path, model)
    except CheckpointError as exc:
        raise CheckpointError(f"{posterior_path}, the posterior of {model_path}: {exc}") from exc
    return model, posterior


def cmd_adapt(cfg: ExperimentConfig, methods: list[str]) -> list[Path]:
    """Run every (method, seed) pair and write its report files."""
    model, posterior = load_checkpoints(cfg)
    dataset = make_source_dataset(eval_dataset_seed(cfg), cfg.dataset.n_per_class)
    schedule = build_schedule(
        cfg.schedule.kinds,
        cfg.schedule.mode,
        cfg.schedule.batches_per_segment,
        cfg.schedule.batch_size,
        order_seed=cfg.schedule.order_seed,
    )
    run_dirs = []
    for name in methods:
        engine_method, restore_override = resolve_method(name)
        petal_cfg = dataclasses.replace(cfg.adapt, method=engine_method)
        if restore_override is not None:
            petal_cfg = dataclasses.replace(petal_cfg, restore=restore_override)
        for seed in cfg.seeds:
            report, _ = run_lifelong(schedule, dataset, posterior, model, petal_cfg, seed)
            run_dir = Path(cfg.out_dir) / name / f"seed{seed}"
            run_dir.mkdir(parents=True, exist_ok=True)
            doc = report.to_document()
            doc["method_label"] = name
            doc["experiment"] = config_to_dict(cfg)
            (run_dir / "report.json").write_text(
                json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8"
            )
            (run_dir / "steps.csv").write_text(report.rows_to_csv(), encoding="utf-8")
            run_dirs.append(run_dir)
    return run_dirs


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_report(doc, path: Path) -> str:
    """Reject a report.json that ``cmd_report`` cannot read, naming the file;
    return its method label."""

    def require(ok: bool, what: str) -> None:
        if not ok:
            raise ValueError(f"malformed report {path}: {what}")

    require(isinstance(doc, dict), "not a JSON object")
    label = doc.get("method_label", doc.get("method"))
    require(isinstance(label, str), "no method name")
    require("schedule" in doc, "no schedule")
    overall = doc.get("overall")
    require(
        isinstance(overall, dict) and all(_is_number(overall.get(k)) for k in ("error", "nll", "brier")),
        "overall needs numeric error, nll and brier",
    )
    segments = doc.get("segments")
    require(
        isinstance(segments, list)
        and all(
            isinstance(s, dict) and {"segment", "kind", "severity"} <= s.keys() and _is_number(s.get("error"))
            for s in segments
        ),
        "each segment needs segment, kind, severity and a numeric error",
    )
    return label


def _collect_reports(run_dirs: list[str]) -> tuple[dict, list[tuple]]:
    """Reports by method label, and the (segment, kind, severity) list that
    every one of them must share with the first."""
    by_method: dict[str, list[dict]] = {}
    first = None
    for root in run_dirs:
        for path in sorted(Path(root).rglob("report.json")):
            try:
                doc = json.loads(path.read_text(encoding="utf-8"))
            except json.JSONDecodeError as exc:
                raise ValueError(f"malformed report {path}: {exc}") from exc
            label = _check_report(doc, path)
            keys = [(s["segment"], s["kind"], s["severity"]) for s in doc["segments"]]
            if first is None:
                first = (doc["schedule"], keys)
            elif doc["schedule"] != first[0]:
                raise ValueError("run directories mix different schedules")
            elif keys != first[1]:
                raise ValueError(f"report {path} does not have the segments of the first report")
            by_method.setdefault(label, []).append(doc)
    if first is None:
        raise ValueError("no report.json found under the given directories")
    return by_method, first[1]


def _mean_std(values: list[float]) -> tuple[float, float]:
    mean = sum(values) / len(values)
    if len(values) == 1:
        return mean, 0.0
    var = sum((v - mean) ** 2 for v in values) / len(values)
    return mean, math.sqrt(var)


def cmd_report(run_dirs: list[str]) -> tuple[str, str]:
    """Aggregate reports into an aligned text table plus CSV.

    Segment columns appear in arrival order; the best (lowest) mean error per
    column is flagged with ``*``.
    """
    by_method, segment_keys = _collect_reports(run_dirs)
    columns = [f"err@{kind}:{severity}" for _, kind, severity in segment_keys]
    columns += ["mean_err", "nll", "brier"]
    cells: dict[str, dict[str, tuple[float, float]]] = {}
    for method, docs in sorted(by_method.items()):
        row = {}
        for idx, (segment, kind, severity) in enumerate(segment_keys):
            values = [doc["segments"][idx]["error"] for doc in docs]
            row[columns[idx]] = _mean_std(values)
        row["mean_err"] = _mean_std([doc["overall"]["error"] for doc in docs])
        row["nll"] = _mean_std([doc["overall"]["nll"] for doc in docs])
        row["brier"] = _mean_std([doc["overall"]["brier"] for doc in docs])
        cells[method] = row
    best = {
        column: min(cells, key=lambda m: cells[m][column][0])
        for column in columns
    }
    name_width = max(len(m) for m in cells) + 2
    header = "method".ljust(name_width) + " | " + " | ".join(c.rjust(18) for c in columns)
    lines = [header, "-" * len(header)]
    csv_lines = ["method," + ",".join(f"{c}_mean,{c}_std" for c in columns)]
    for method in sorted(cells):
        text_cells = []
        csv_cells = [method]
        for column in columns:
            mean, std = cells[method][column]
            flag = "*" if best[column] == method else " "
            text_cells.append(f"{mean:8.3f} ± {std:6.3f}{flag}".rjust(18))
            csv_cells += [repr(mean), repr(std)]
        lines.append(method.ljust(name_width) + " | " + " | ".join(text_cells))
        csv_lines.append(",".join(csv_cells))
    return "\n".join(lines) + "\n", "\n".join(csv_lines) + "\n"


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lifelong-tta",
        description="continual test-time adaptation experiments on a synthetic corruption stream",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", help="output directory (overrides config)")
        p.add_argument("--dump-config", action="store_true", help="print the resolved config and exit")

    p_train = sub.add_parser("train-source", help="train the source model and posterior")
    common(p_train)

    p_adapt = sub.add_parser("adapt", help="run lifelong adaptation")
    common(p_adapt)
    p_adapt.add_argument(
        "--method",
        default="petal",
        help="comma-separated method names: "
        + ",".join(sorted(set(ADAPT_METHODS + BASELINE_METHODS) | set(METHOD_VARIANTS))),
    )
    p_adapt.add_argument("--seeds", help="comma-separated integer seeds")
    p_adapt.add_argument("--schedule", choices=["continual5", "gradual"])
    p_adapt.add_argument("--restore", choices=["none", "stochastic", "fim"])
    p_adapt.add_argument("--delta", type=float)
    p_adapt.add_argument("--rho", type=float)
    p_adapt.add_argument("--alpha", type=float)
    p_adapt.add_argument("--tau", type=float)
    p_adapt.add_argument("--k-aug", dest="k_aug", type=int)
    p_adapt.add_argument("--predict-from", dest="predict_from", choices=["teacher", "student"])
    p_adapt.add_argument("--reset-optimizer-state", action="store_true")
    p_adapt.add_argument("--tent-online", dest="tent_online", action="store_true",
                         help="oracle-assisted: reset the model at segment boundaries")

    p_report = sub.add_parser("report", help="aggregate run directories into a table")
    p_report.add_argument("run_dirs", nargs="+")
    p_report.add_argument("--csv", help="also write the CSV table to this path")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "report":
            table, csv_text = cmd_report(args.run_dirs)
            sys.stdout.write(table)
            if args.csv:
                Path(args.csv).write_text(csv_text, encoding="utf-8")
            return 0
        cfg = _apply_overrides(load_config(args.config), args)
        if args.dump_config:
            sys.stdout.write(json.dumps(config_to_dict(cfg), sort_keys=True, indent=2) + "\n")
            return 0
        if args.command == "train-source":
            summary = cmd_train_source(cfg)
            sys.stdout.write(json.dumps(summary, sort_keys=True, indent=2) + "\n")
            return 0
        if args.command == "adapt":
            methods = [m.strip() for m in args.method.split(",") if m.strip()]
            if not methods or len(set(methods)) != len(methods):
                raise ValueError(f"--method must name distinct methods, got {args.method!r}")
            for name in methods:
                resolve_method(name)
            run_dirs = cmd_adapt(cfg, methods)
            for run_dir in run_dirs:
                sys.stdout.write(f"{run_dir}\n")
            return 0
    except NonFiniteLossError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except (ValueError, OSError, RuntimeError) as exc:  # OSError: unusable --out paths too
        sys.stderr.write(f"error: {exc}\n")
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
