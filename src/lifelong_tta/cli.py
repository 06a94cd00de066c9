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
    METHODS,
    NonFiniteLossError,
    PetalConfig,
    at_least,
    evaluate_model,
    method_config,
    one_of,
    ranged,
    run_lifelong,
)
from .model import MlpClassifier
from .streams import CORRUPTION_KINDS, IMAGE_SIDE, N_CLASSES, SCHEDULE_MODES, build_schedule, make_source_dataset
from .swag import SwagDiagPosterior, train_source

# impulse_noise is reserved for hyperparameter tuning and kept out of the
# headline schedule; the headline stream ends on its most destructive kind so
# that long-horizon forgetting is visible at the end of a run
HEADLINE_KINDS = ("contrast", "gaussian_noise", "box_blur", "pixelate")
HELD_OUT_KIND = "impulse_noise"

MODEL_CHECKPOINT = "source_model.ptta"
POSTERIOR_CHECKPOINT = "posterior.ptta"


@dataclass(frozen=True)
class DatasetConfig:
    seed: int = at_least(0, 0)
    n_per_class: int = at_least(1, 100)


@dataclass(frozen=True)
class ModelConfig:
    sizes: tuple = (64, 128, 128, 8)
    init_seed: int = at_least(0, 0)


@dataclass(frozen=True)
class SourceTrainConfig:
    epochs: int = at_least(1, 30)
    lr: float = ranged(0.05, lambda v: v > 0, "> 0")
    momentum: float = ranged(0.9, lambda v: 0 <= v < 1, "in [0, 1)")
    batch_size: int = at_least(2, 64)  # train-mode batch norm
    swag_epochs: int = at_least(1, 5)
    shuffle_seed: int = at_least(0, 1)


@dataclass(frozen=True)
class ScheduleConfig:
    kinds: tuple = HEADLINE_KINDS
    mode: str = one_of(SCHEDULE_MODES, "continual5")
    batches_per_segment: int = at_least(1, 25)
    batch_size: int = at_least(2, 64)  # train-mode batch norm
    order_seed: int | None = ranged(None, lambda v: v is None or v >= 0, "null or >= 0")


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    source: SourceTrainConfig = field(default_factory=SourceTrainConfig)
    schedule: ScheduleConfig = field(default_factory=ScheduleConfig)
    adapt: PetalConfig = field(default_factory=PetalConfig)
    seeds: tuple = (0, 1, 2, 3, 4)
    out_dir: str = "runs"


def _from_dict(cls, data, path="config"):
    """``cls`` from a JSON object; a field whose default is a dataclass is a
    nested section, any other is a leaf checked against its default."""
    if not isinstance(data, dict):
        raise ValueError(f"{path} must be an object")
    unknown = set(data) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ValueError(f"unknown keys in {path}: {sorted(unknown)}")
    defaults = cls()
    kwargs = {}
    for name, value in data.items():
        default = getattr(defaults, name)
        if dataclasses.is_dataclass(default):
            kwargs[name] = _from_dict(type(default), value, f"{path}.{name}")
            continue
        _check_leaf(value, default, f"{path}.{name}")
        if type(default) is float:  # stored as a float, as the flag spelling gives it
            value = float(value)
        kwargs[name] = tuple(value) if isinstance(value, list) else value
    return cls(**kwargs)


def _check_leaf(value, default, path):
    """Reject a JSON value whose type is not the field default's. A bool is
    not an int, an int a float can hold is a float, and a tuple default
    checks a list item by item against its first element."""
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
    if type(default) is float and not _is_number(value):
        raise ValueError(f"{path} must be a number a float can hold, got an integer of {len(str(abs(value)))} digits")


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build a config from a JSON document, rejecting unknown keys."""
    cfg = _from_dict(ExperimentConfig, data)
    validate_config(cfg)
    return cfg


def _check_fields(section, path: str) -> None:
    """Reject the first field of a config, in declaration order, that holds a
    NaN or infinite float or a value outside the range the field declares."""
    for f in dataclasses.fields(section):
        value = getattr(section, f.name)
        where = f"{path}.{f.name}"
        if dataclasses.is_dataclass(value):
            _check_fields(value, where)
        elif isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{where} must be finite, got {value}")
        elif "ok" in f.metadata and not f.metadata["ok"](value):
            raise ValueError(f"{where} must be {f.metadata['must']}, got {value!r}")


def validate_config(cfg: ExperimentConfig) -> None:
    """Reject a config no run can use; each message starts with the one field
    at fault, as ``config.<section>.<field>``. ``_check_fields`` checks each
    field against its own range; the checks here span list items or fields."""
    _check_fields(cfg, "config")
    sizes = list(cfg.model.sizes)
    if len(sizes) < 3 or min(sizes) < 1:
        raise ValueError(f"config.model.sizes must be (input, hidden..., classes), each >= 1, got {sizes}")
    if sizes[0] != IMAGE_SIDE**2:
        raise ValueError(f"config.model.sizes must start with the {IMAGE_SIDE**2} pixels of an image, got {sizes}")
    if sizes[-1] < N_CLASSES:
        raise ValueError(f"config.model.sizes must end with at least the {N_CLASSES} classes, got {sizes}")
    if cfg.source.swag_epochs > cfg.source.epochs:
        raise ValueError(
            f"config.source.swag_epochs must be at most config.source.epochs ({cfg.source.epochs}),"
            f" got {cfg.source.swag_epochs}"
        )
    if not cfg.schedule.kinds:
        raise ValueError("config.schedule.kinds must be non-empty")
    for kind in cfg.schedule.kinds:
        if kind not in CORRUPTION_KINDS:
            raise ValueError(f"config.schedule.kinds names an unknown corruption kind {kind!r}")
    eval_size = N_CLASSES * cfg.dataset.n_per_class  # the stream draws its batches from the eval set
    if cfg.schedule.batch_size > eval_size:
        raise ValueError(
            f"config.schedule.batch_size must be at most the eval set's {N_CLASSES} x dataset.n_per_class"
            f" = {eval_size} images, got {cfg.schedule.batch_size}"
        )
    if not cfg.seeds:
        raise ValueError("config.seeds must be non-empty")
    if min(cfg.seeds) < 0 or len(set(cfg.seeds)) != len(cfg.seeds):
        raise ValueError(f"config.seeds must be distinct non-negative integers, got {list(cfg.seeds)}")


def config_to_dict(cfg: ExperimentConfig) -> dict:
    return dataclasses.asdict(cfg)


def load_config(path: str | None) -> ExperimentConfig:
    if path is None:
        return ExperimentConfig()
    with open(path, "r", encoding="utf-8") as handle:
        return config_from_dict(json.load(handle))


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    """``cfg`` with the flags given in ``args`` applied: an absent flag (or
    one a command does not have) is None, so ``--alpha 0`` still overrides."""
    adapt_updates = {}
    for name in ("delta", "rho", "alpha", "tau", "k_aug"):
        value = getattr(args, name, None)
        if value is not None:
            adapt_updates[name] = value
    updates = {"adapt": dataclasses.replace(cfg.adapt, **adapt_updates)}
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
    """Train on the clean synthetic set and write model + posterior checkpoints;
    ``--out`` is made only once training has succeeded."""
    out = Path(cfg.out_dir)
    dataset = make_source_dataset(cfg.dataset.seed, cfg.dataset.n_per_class)
    model = MlpClassifier(cfg.model.sizes, seed=cfg.model.init_seed)
    posterior, train_accuracy = train_source(
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
    out.mkdir(parents=True, exist_ok=True)
    model.save(out / MODEL_CHECKPOINT)
    posterior.save(out / POSTERIOR_CHECKPOINT, model)
    eval_set = make_source_dataset(eval_dataset_seed(cfg), cfg.dataset.n_per_class)
    probe = model.clone()
    probe.load(posterior.mu)
    clean = evaluate_model(probe, eval_set.images, eval_set.labels)
    summary = {
        "epochs": cfg.source.epochs,
        "final_train_accuracy": train_accuracy,
        "clean_test_error": clean.error,
        "model_checkpoint": str(out / MODEL_CHECKPOINT),
        "posterior_checkpoint": str(out / POSTERIOR_CHECKPOINT),
    }
    (out / "train_summary.json").write_text(
        json.dumps(summary, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    return summary


def load_checkpoints(cfg: ExperimentConfig) -> tuple[MlpClassifier, SwagDiagPosterior]:
    out = Path(cfg.out_dir)
    model_path = out / MODEL_CHECKPOINT
    posterior_path = out / POSTERIOR_CHECKPOINT
    if not model_path.exists() or not posterior_path.exists():
        raise FileNotFoundError(
            f"missing checkpoints under {out}; run train-source first"
        )
    try:
        model = MlpClassifier.load_checkpoint(model_path, cfg.model.sizes)
    except CheckpointError as exc:
        raise CheckpointError(f"{model_path}: {exc}") from exc
    try:
        posterior = SwagDiagPosterior.load(posterior_path, model)
    except CheckpointError as exc:
        raise CheckpointError(f"{posterior_path}, the posterior of {model_path}: {exc}") from exc
    return model, posterior


def cmd_adapt(cfg: ExperimentConfig, methods: list[str]) -> list[Path]:
    """Run every (method, seed) pair and write its report files; every name
    is turned into its config, and an unknown one refused, before any run."""
    configs = [(name, method_config(cfg.adapt, name)) for name in methods]
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
    for name, petal_cfg in configs:
        for seed in cfg.seeds:
            # only the report: the run's state goes before the next run starts
            report = run_lifelong(schedule, dataset, posterior, model, petal_cfg, seed)[0]
            run_dir = Path(cfg.out_dir) / name / f"seed{seed}"
            run_dir.mkdir(parents=True, exist_ok=True)
            doc = report.to_document()
            doc["experiment"] = config_to_dict(cfg)
            (run_dir / "report.json").write_text(
                json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8"
            )
            (run_dir / "steps.csv").write_text(report.rows_to_csv(), encoding="utf-8")
            run_dirs.append(run_dir)
    return run_dirs


def _is_number(value) -> bool:
    """A JSON number a float can hold: an integer past the float range is not one."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return isinstance(value, float) or abs(value) <= sys.float_info.max


def _check_report(doc, path: Path) -> str:
    """Reject a report.json that ``cmd_report`` cannot read, naming the file;
    return the method name that ran: ``method``, or ``method_label`` in an
    older report, whose ``method`` named the row's engine method."""

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
        "overall needs error, nll and brier numbers a float can hold",
    )
    segments = doc.get("segments")
    require(
        isinstance(segments, list)
        and all(
            isinstance(s, dict) and {"segment", "kind", "severity"} <= s.keys() and _is_number(s.get("error"))
            for s in segments
        ),
        "each segment needs segment, kind, severity and an error number a float can hold",
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


def _mean_std(values: list[float], what: str) -> tuple[float, float]:
    try:
        mean = sum(values) / len(values)
        if len(values) == 1:
            return mean, 0.0
        var = sum((v - mean) ** 2 for v in values) / len(values)
    except OverflowError as exc:  # the seeds' values each fit a float, their squared spread does not
        raise ValueError(f"{what} overflows a float across seeds: {exc}") from exc
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
        values = [[doc["segments"][idx]["error"] for doc in docs] for idx in range(len(segment_keys))]
        values += [[doc["overall"][key] for doc in docs] for key in ("error", "nll", "brier")]
        cells[method] = {column: _mean_std(v, f"{method} {column}") for column, v in zip(columns, values)}
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
        help="comma-separated method names (default: the config's adapt.method): "
        + ",".join(sorted(METHODS)),
    )
    p_adapt.add_argument("--seeds", help="comma-separated integer seeds")
    p_adapt.add_argument("--schedule", choices=SCHEDULE_MODES)
    p_adapt.add_argument("--delta", type=float)
    p_adapt.add_argument("--rho", type=float)
    p_adapt.add_argument("--alpha", type=float)
    p_adapt.add_argument("--tau", type=float)
    p_adapt.add_argument("--k-aug", dest="k_aug", type=int)

    p_report = sub.add_parser("report", help="aggregate run directories into a table")
    p_report.add_argument("run_dirs", nargs="+")
    p_report.add_argument("--csv", help="also write the CSV table to this path")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # the model checks its outputs for NaN/Inf; numpy's own warnings would add stderr lines
    with np.errstate(all="ignore"):
        try:
            if args.command == "report":
                table, csv_text = cmd_report(args.run_dirs)
                if args.csv:  # first, so an unwritable path fails before any table is printed
                    Path(args.csv).write_text(csv_text, encoding="utf-8")
                sys.stdout.write(table)
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
                names = cfg.adapt.method if args.method is None else args.method
                methods = [m.strip() for m in names.split(",") if m.strip()]
                if not methods:
                    raise ValueError(f"--method must name at least one method, got {args.method!r}")
                if len(set(methods)) != len(methods):
                    raise ValueError(f"--method must not name a method twice, got {args.method!r}")
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
