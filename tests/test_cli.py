import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lifelong_tta.checkpoint import read_checkpoint, write_checkpoint
from lifelong_tta.cli import (
    MODEL_CHECKPOINT,
    POSTERIOR_CHECKPOINT,
    DatasetConfig,
    ExperimentConfig,
    ModelConfig,
    ScheduleConfig,
    SourceTrainConfig,
    cmd_adapt,
    cmd_report,
    cmd_train_source,
    config_from_dict,
    config_to_dict,
    main,
    resolve_method,
)
from lifelong_tta.engine import PetalConfig


def tiny_config(out_dir, **adapt_overrides):
    adapt = PetalConfig(method="petal", k_aug=3, alpha=1e-6, restore="fim", **adapt_overrides)
    return ExperimentConfig(
        dataset=DatasetConfig(seed=0, n_per_class=20),
        model=ModelConfig(sizes=(64, 24, 8)),
        source=SourceTrainConfig(epochs=8, swag_epochs=4),
        schedule=ScheduleConfig(
            kinds=("gaussian_noise", "contrast"), batches_per_segment=2, batch_size=16
        ),
        adapt=adapt,
        seeds=(0,),
        out_dir=str(out_dir),
    )


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("runs")
    cfg = tiny_config(out)
    cmd_train_source(cfg)
    return out, cfg


def test_config_round_trip_and_echo():
    cfg = ExperimentConfig()
    doc = config_to_dict(cfg)
    assert config_from_dict(json.loads(json.dumps(doc))) == cfg


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown keys"):
        config_from_dict({"dataset": {"seed": 0, "typo": 1}})
    with pytest.raises(ValueError, match="unknown keys"):
        config_from_dict({"not_a_section": {}})


def test_config_validates_ranges():
    with pytest.raises(ValueError):
        config_from_dict({"adapt": {"tau": 1.5}})
    with pytest.raises(ValueError):
        config_from_dict({"schedule": {"kinds": ["fog"]}})
    with pytest.raises(ValueError):
        config_from_dict({"model": {"sizes": [64, 8]}})


# config documents whose leaf values have the wrong JSON type
BAD_CONFIG_TYPES = {
    "k_aug_string": {"adapt": {"k_aug": "x"}},
    "tau_string": {"adapt": {"tau": "0.5"}},
    "flag_as_int": {"adapt": {"reset_optimizer_state": 1}},
    "seeds_string": {"seeds": "abc"},
    "seed_float": {"seeds": [0, 1.5]},
    "seed_bool": {"seeds": [True]},
    "size_string": {"model": {"sizes": [64, "24", 8]}},
    "count_bool": {"dataset": {"n_per_class": True}},
    "order_seed_string": {"schedule": {"order_seed": "3"}},
    "out_dir_number": {"out_dir": 5},
}


@pytest.mark.parametrize("case", sorted(BAD_CONFIG_TYPES))
def test_cli_rejects_wrongly_typed_config(tmp_path, capsys, case):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(BAD_CONFIG_TYPES[case]), encoding="utf-8")
    assert main(["adapt", "--config", str(config_path), "--dump-config"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config.") and err.count("\n") == 1


def test_config_type_check_accepts_ints_as_floats_and_null_order_seed():
    assert config_from_dict({"adapt": {"tau": 1, "alpha": 0}}).adapt.tau == 1.0
    assert config_from_dict({"schedule": {"order_seed": None}}).schedule.order_seed is None
    assert config_from_dict({"schedule": {"order_seed": 3}}).schedule.order_seed == 3
    assert config_from_dict({"seeds": [7, 8]}).seeds == (7, 8)


def test_resolve_method_aliases():
    assert resolve_method("petal_fim") == ("petal", "fim")
    assert resolve_method("petal_sres") == ("petal", "stochastic")
    assert resolve_method("petal_none") == ("petal", "none")
    assert resolve_method("tent") == ("tent", None)
    with pytest.raises(ValueError):
        resolve_method("nope")


def test_dump_config_includes_defaults(capsys):
    assert main(["adapt", "--dump-config", "--alpha", "0.5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["adapt"]["alpha"] == 0.5
    assert doc["adapt"]["pi"] == 0.999
    assert doc["seeds"] == [0, 1, 2, 3, 4]


def test_train_source_writes_checkpoints(trained_dir):
    out, cfg = trained_dir
    assert (out / "source_model.ptta").exists()
    assert (out / "posterior.ptta").exists()
    summary = json.loads((out / "train_summary.json").read_text())
    assert summary["final_train_accuracy"] >= 0.9


def test_train_source_with_zero_epochs_errors(tmp_path):
    cfg = dataclasses.replace(tiny_config(tmp_path), source=SourceTrainConfig(epochs=0))
    with pytest.raises(RuntimeError, match="no iterates collected"):
        cmd_train_source(cfg)


def test_cli_refuses_zero_source_epochs_before_writing(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"source": {"epochs": 0}}), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["train-source", "--config", str(config_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: source.epochs must be >= 1\n"
    assert not out.exists()


def test_adapt_without_checkpoints_errors(tmp_path):
    cfg = tiny_config(tmp_path / "empty")
    with pytest.raises(FileNotFoundError, match="train-source"):
        cmd_adapt(cfg, ["source"])


def test_adapt_is_byte_deterministic(trained_dir, tmp_path):
    out, cfg = trained_dir
    first = dataclasses.replace(cfg, out_dir=str(out))
    cmd_adapt(first, ["petal"])
    a_json = (out / "petal" / "seed0" / "report.json").read_bytes()
    a_csv = (out / "petal" / "seed0" / "steps.csv").read_bytes()
    cmd_adapt(first, ["petal"])
    assert (out / "petal" / "seed0" / "report.json").read_bytes() == a_json
    assert (out / "petal" / "seed0" / "steps.csv").read_bytes() == a_csv


def test_source_method_is_pure_evaluation(trained_dir):
    out, cfg = trained_dir
    cmd_adapt(cfg, ["source"])
    first = (out / "source" / "seed0" / "report.json").read_bytes()
    cmd_adapt(cfg, ["source"])
    assert (out / "source" / "seed0" / "report.json").read_bytes() == first


def test_reports_embed_resolved_config(trained_dir):
    out, cfg = trained_dir
    cmd_adapt(cfg, ["petal"])
    doc = json.loads((out / "petal" / "seed0" / "report.json").read_text())
    assert doc["experiment"] == json.loads(json.dumps(config_to_dict(cfg)))
    assert doc["method_label"] == "petal"
    csv_lines = (out / "petal" / "seed0" / "steps.csv").read_text().splitlines()
    assert csv_lines[0] == "step,segment,error,nll,brier,loss,restored"
    assert len(csv_lines) == 1 + 4  # 2 segments x 2 batches


def test_report_table_single_run_has_zero_std(trained_dir):
    out, cfg = trained_dir
    cmd_adapt(cfg, ["petal", "source"])
    table, csv_text = cmd_report([str(out)])
    assert "petal" in table and "source" in table
    lines = csv_text.splitlines()
    header = lines[0].split(",")
    std_columns = [i for i, h in enumerate(header) if h.endswith("_std")]
    for line in lines[1:]:
        cells = line.split(",")
        for i in std_columns:
            assert float(cells[i]) == 0.0


def test_report_flags_best_method_per_column(trained_dir):
    out, cfg = trained_dir
    cmd_adapt(cfg, ["petal", "source"])
    table, _ = cmd_report([str(out)])
    petal_line = next(l for l in table.splitlines() if l.startswith("petal"))
    source_line = next(l for l in table.splitlines() if l.startswith("source"))
    assert "*" in petal_line or "*" in source_line


def test_report_rejects_mixed_schedules(trained_dir, tmp_path):
    out, cfg = trained_dir
    cmd_adapt(cfg, ["petal"])
    other_out = tmp_path / "other"
    other_cfg = dataclasses.replace(
        tiny_config(other_out),
        schedule=ScheduleConfig(kinds=("pixelate",), batches_per_segment=1, batch_size=16),
    )
    cmd_train_source(other_cfg)
    cmd_adapt(other_cfg, ["petal"])
    with pytest.raises(ValueError, match="schedules"):
        cmd_report([str(out), str(other_out)])


def test_cli_main_end_to_end(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    cfg = tiny_config(tmp_path / "runs")
    config_path.write_text(json.dumps(config_to_dict(cfg)), encoding="utf-8")
    assert main(["train-source", "--config", str(config_path)]) == 0
    capsys.readouterr()
    assert main(["adapt", "--config", str(config_path), "--method", "source,petal_fim"]) == 0
    capsys.readouterr()
    assert main(["report", str(tmp_path / "runs")]) == 0
    table = capsys.readouterr().out
    assert "petal_fim" in table and "source" in table


def test_default_config_reaches_clean_error_budget(default_bundle):
    # trained with the stock config, evaluated on fresh draws
    assert default_bundle.summary["clean_test_error"] <= 5.0


def test_report_covers_all_requested_methods(trained_dir):
    out, cfg = trained_dir
    methods = ["source", "bn_adapt", "tent", "cotta", "petal_fim"]
    cmd_adapt(cfg, methods)
    table, csv_text = cmd_report([str(out)])
    for method in methods:
        assert any(line.startswith(method) for line in table.splitlines())
        assert any(line.startswith(method + ",") for line in csv_text.splitlines())


def test_cli_missing_checkpoint_exit_code(tmp_path, capsys):
    assert main(["adapt", "--out", str(tmp_path / "nothing")]) == 2
    assert "train-source" in capsys.readouterr().err


def test_cli_rejects_unknown_method(tmp_path, capsys):
    assert main(["adapt", "--out", str(tmp_path), "--method", "bogus"]) == 2


def test_cli_nonzero_exit_on_non_finite_loss(trained_dir, tmp_path, capsys):
    out, cfg = trained_dir
    config_path = tmp_path / "diverge.json"
    doc = config_to_dict(cfg)
    doc["adapt"].update({"eta": 1e200, "optimizer": "sgd", "alpha": 1.0})
    config_path.write_text(json.dumps(doc), encoding="utf-8")
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["adapt", "--config", str(config_path), "--method", "petal"])
    assert code == 3
    assert "non-finite" in capsys.readouterr().err



# non-finite config floats, from the file or a flag: (command, edit of the
# config document, extra flags, the field the message must name)
NON_FINITE_INPUTS = {
    "alpha_nan_in_file": ("adapt", lambda d: d["adapt"].update(alpha=math.nan), [], "config.adapt.alpha"),
    "eta_inf_in_file": ("adapt", lambda d: d["adapt"].update(eta=math.inf), [], "config.adapt.eta"),
    "augment_noise_inf_in_file": (
        "adapt",
        lambda d: d["adapt"]["augment"].update(noise_std=math.inf),
        [],
        "config.adapt.augment.noise_std",
    ),
    "lr_nan_in_file": ("train-source", lambda d: d["source"].update(lr=math.nan), [], "config.source.lr"),
    "alpha_nan_flag": ("adapt", lambda d: None, ["--method", "tent", "--alpha", "nan"], "config.adapt.alpha"),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE_INPUTS))
def test_cli_rejects_non_finite_config_floats(trained_dir, tmp_path, capsys, case):
    out, cfg = trained_dir
    command, edit, flags, field_name = NON_FINITE_INPUTS[case]
    for name in (MODEL_CHECKPOINT, POSTERIOR_CHECKPOINT):
        shutil.copy(Path(out) / name, tmp_path / name)
    doc = config_to_dict(dataclasses.replace(cfg, out_dir=str(tmp_path)))
    edit(doc)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(doc), encoding="utf-8")  # NaN/Infinity literals
    assert main([command, "--config", str(config_path), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field_name} must be finite") and err.count("\n") == 1
    assert not list(tmp_path.glob("*/seed*"))


# augmentation magnitudes no draw can use: (field, value, flags); the
# --tau 0 case keeps the gate shut, so only the config check can refuse it
BAD_AUGMENT = {
    "negative_brightness": ("brightness", -0.1, []),
    "negative_shift": ("max_shift_px", -1.0, []),
    "negative_rotation": ("max_rot_deg", -5.0, []),
    "negative_rotation_gate_shut": ("max_rot_deg", -5.0, ["--tau", "0"]),
    "negative_noise": ("noise_std", -0.02, []),
    "contrast_above_one": ("contrast", 1.5, []),
    "negative_contrast": ("contrast", -0.2, []),
    "blur_prob_above_one": ("blur_prob", 2.0, []),
    "negative_flip_prob": ("flip_prob", -1.0, []),
}


@pytest.mark.parametrize("case", sorted(BAD_AUGMENT))
def test_cli_rejects_bad_augment_params(trained_dir, tmp_path, capsys, case):
    out, cfg = trained_dir
    field_name, value, flags = BAD_AUGMENT[case]
    for name in (MODEL_CHECKPOINT, POSTERIOR_CHECKPOINT):
        shutil.copy(Path(out) / name, tmp_path / name)
    doc = config_to_dict(dataclasses.replace(cfg, out_dir=str(tmp_path)))
    doc["adapt"]["augment"][field_name] = value
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(doc), encoding="utf-8")
    before = sorted(tmp_path.rglob("*"))
    assert main(["adapt", "--config", str(config_path), "--method", "source,petal", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: augment.{field_name} must be ") and captured.err.count("\n") == 1
    assert sorted(tmp_path.rglob("*")) == before


# adapt argument lists refused before any run writes a file: (flags, the
# name the message must contain)
REFUSED_RUN_LISTS = {
    "negative_seed": (["--method", "source", "--seeds", "0,-1"], "seeds"),
    "duplicate_seed": (["--method", "source", "--seeds", "0,0"], "seeds"),
    "non_integer_seed": (["--method", "source", "--seeds", "0,x"], "seeds"),
    "duplicate_method": (["--method", "source,bn_adapt,source", "--seeds", "0"], "--method"),
    "no_method": (["--method", ",", "--seeds", "0"], "--method"),
}


@pytest.mark.parametrize("case", sorted(REFUSED_RUN_LISTS))
def test_cli_refuses_bad_seeds_and_method_lists(trained_dir, tmp_path, capsys, case):
    out, cfg = trained_dir
    flags, named = REFUSED_RUN_LISTS[case]
    for name in (MODEL_CHECKPOINT, POSTERIOR_CHECKPOINT):
        shutil.copy(Path(out) / name, tmp_path / name)
    config_path = tmp_path / "config.json"
    doc = config_to_dict(dataclasses.replace(cfg, out_dir=str(tmp_path)))
    config_path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["adapt", "--config", str(config_path), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and named in captured.err and captured.err.count("\n") == 1
    assert not list(tmp_path.glob("*/seed*"))


# checkpoint edits that must fail at load time: (file, entry, new value or
# None to delete the entry)
BAD_CHECKPOINT_EDITS = {
    "missing_running_mean": (MODEL_CHECKPOINT, "hidden0.running_mean", None),
    "missing_running_var": (MODEL_CHECKPOINT, "hidden0.running_var", None),
    "short_running_var": (MODEL_CHECKPOINT, "hidden0.running_var", lambda a: a[:-1]),
    "vector_weight": (MODEL_CHECKPOINT, "hidden0.weight", lambda a: a.ravel()),
    "zero_variance": (POSTERIOR_CHECKPOINT, "swag.sigma2.out.bias", lambda a: 0.0 * a),
    "negative_variance": (POSTERIOR_CHECKPOINT, "swag.sigma2.out.bias", lambda a: -a),
    "nan_variance": (POSTERIOR_CHECKPOINT, "swag.sigma2.out.bias", lambda a: np.nan * a),
    "inf_variance": (POSTERIOR_CHECKPOINT, "swag.sigma2.out.bias", lambda a: np.inf * a),
    "nan_mean": (POSTERIOR_CHECKPOINT, "swag.mu.out.bias", lambda a: np.nan * a),
    "missing_posterior_mean": (POSTERIOR_CHECKPOINT, "swag.mu.hidden0.weight", None),
    "extra_posterior_entry": (POSTERIOR_CHECKPOINT, "swag.mu.hidden1.weight", lambda a: np.zeros((24, 8))),
    "empty_count": (POSTERIOR_CHECKPOINT, "swag.count", lambda a: a[:0]),
}


@pytest.mark.parametrize("edit", sorted(BAD_CHECKPOINT_EDITS))
def test_cli_rejects_bad_checkpoint_entries(trained_dir, tmp_path, capsys, edit):
    out, cfg = trained_dir
    leaf, key, change = BAD_CHECKPOINT_EDITS[edit]
    for name in (MODEL_CHECKPOINT, POSTERIOR_CHECKPOINT):
        shutil.copy(Path(out) / name, tmp_path / name)
    entries = read_checkpoint(tmp_path / leaf)
    if change is None:
        del entries[key]
    else:
        entries[key] = change(entries.get(key))
    write_checkpoint(tmp_path / leaf, entries)
    config_path = tmp_path / "config.json"
    doc = config_to_dict(dataclasses.replace(cfg, out_dir=str(tmp_path)))
    config_path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["adapt", "--config", str(config_path), "--method", "petal"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and str(tmp_path / leaf) in err
    assert not list(tmp_path.glob("*/seed*"))


# byte-level damage to one checkpoint: (file, edit of its bytes)
DAMAGED_CHECKPOINTS = {
    "model_bad_magic": (MODEL_CHECKPOINT, lambda blob: b"NOPE" + blob[4:]),
    "model_truncated": (MODEL_CHECKPOINT, lambda blob: blob[:-9]),
    "posterior_bad_magic": (POSTERIOR_CHECKPOINT, lambda blob: b"NOPE" + blob[4:]),
    "posterior_truncated": (POSTERIOR_CHECKPOINT, lambda blob: blob[:-9]),
}


@pytest.mark.parametrize("case", sorted(DAMAGED_CHECKPOINTS))
def test_cli_malformed_checkpoint_message_names_the_file(trained_dir, tmp_path, capsys, case):
    out, cfg = trained_dir
    leaf, damage = DAMAGED_CHECKPOINTS[case]
    for name in (MODEL_CHECKPOINT, POSTERIOR_CHECKPOINT):
        shutil.copy(Path(out) / name, tmp_path / name)
    (tmp_path / leaf).write_bytes(damage((tmp_path / leaf).read_bytes()))
    assert main(["adapt", "--out", str(tmp_path), "--method", "source", "--seeds", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and str(tmp_path / leaf) in err


# edits of a valid report.json that `report` must reject with one line
MALFORMED_REPORTS = {
    "missing_schedule": lambda doc: {k: v for k, v in doc.items() if k != "schedule"},
    "json_list": lambda doc: [doc],
    "null_overall": lambda doc: {**doc, "overall": None},
    "segment_without_error": lambda doc: {
        **doc,
        "segments": [{k: v for k, v in s.items() if k != "error"} for s in doc["segments"]],
    },
}


@pytest.mark.parametrize("case", sorted(MALFORMED_REPORTS))
def test_cli_report_rejects_malformed_report(trained_dir, tmp_path, capsys, case):
    out, cfg = trained_dir
    (run_dir,) = cmd_adapt(cfg, ["source"])
    doc = json.loads((run_dir / "report.json").read_text(encoding="utf-8"))
    bad = tmp_path / "source" / "seed0" / "report.json"
    bad.parent.mkdir(parents=True)
    bad.write_text(json.dumps(MALFORMED_REPORTS[case](doc)), encoding="utf-8")
    assert main(["report", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and str(bad) in err


# edits of the second of two report.json files whose segment list then
# differs from the first's
SEGMENT_EDITS = {
    "fewer_segments": lambda segments: segments[:-1],
    "more_segments": lambda segments: segments + [{**segments[-1], "segment": len(segments)}],
}


@pytest.mark.parametrize("case", sorted(SEGMENT_EDITS))
def test_cli_report_rejects_reports_with_other_segments(trained_dir, tmp_path, capsys, case):
    out, cfg = trained_dir
    (run_dir,) = cmd_adapt(cfg, ["source"])
    doc = json.loads((run_dir / "report.json").read_text(encoding="utf-8"))
    first = tmp_path / "a" / "report.json"
    bad = tmp_path / "b" / "report.json"
    for path in (first, bad):
        path.parent.mkdir()
    first.write_text(json.dumps(doc), encoding="utf-8")
    bad.write_text(
        json.dumps({**doc, "segments": SEGMENT_EDITS[case](doc["segments"])}), encoding="utf-8"
    )
    assert main(["report", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and str(bad) in err


def test_cli_rejects_posterior_of_another_model(trained_dir, tmp_path, capsys):
    out, cfg = trained_dir
    other = dataclasses.replace(
        cfg, model=ModelConfig(sizes=(64, 16, 8)), out_dir=str(tmp_path / "other")
    )
    cmd_train_source(other)
    run = tmp_path / "run"
    run.mkdir()
    shutil.copy(Path(out) / MODEL_CHECKPOINT, run / MODEL_CHECKPOINT)
    shutil.copy(tmp_path / "other" / POSTERIOR_CHECKPOINT, run / POSTERIOR_CHECKPOINT)
    assert main(["adapt", "--out", str(run), "--method", "source", "--seeds", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(run / POSTERIOR_CHECKPOINT) in err and str(run / MODEL_CHECKPOINT) in err


@pytest.mark.parametrize("case", ["train_source_out_is_a_file", "adapt_run_dir_under_a_file"])
def test_cli_unusable_output_paths_exit_2_with_one_line(trained_dir, tmp_path, capsys, case):
    out, cfg = trained_dir
    if case == "train_source_out_is_a_file":  # was a FileExistsError traceback
        blocker = tmp_path / "regular"
        args = ["train-source", "--out", str(blocker)]
    else:  # OUT/source is a file: was a NotADirectoryError traceback
        run = tmp_path / "run"
        run.mkdir()
        for leaf in (MODEL_CHECKPOINT, POSTERIOR_CHECKPOINT):
            shutil.copy(Path(out) / leaf, run / leaf)
        blocker = run / "source"
        config_path = tmp_path / "tiny.json"
        config_path.write_text(json.dumps(config_to_dict(cfg)), encoding="utf-8")
        args = ["adapt", "--config", str(config_path), "--out", str(run), "--method", "source"]
    blocker.write_text("not a directory\n", encoding="utf-8")
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and str(blocker) in err


def test_tune_regularizer_fails_like_the_cli_on_an_unreadable_checkpoint(trained_dir, tmp_path, capsys):
    # a checkpoint path that is a directory: one line and exit 2 from both
    out, _ = trained_dir
    shutil.copy(Path(out) / POSTERIOR_CHECKPOINT, tmp_path / POSTERIOR_CHECKPOINT)
    (tmp_path / MODEL_CHECKPOINT).mkdir()
    script = Path(__file__).resolve().parents[1] / "scripts" / "tune_regularizer.py"
    result = subprocess.run(
        [sys.executable, str(script), "--out", str(tmp_path), "--seeds", "0"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert main(["adapt", "--out", str(tmp_path), "--method", "source", "--seeds", "0"]) == 2
    cli_err = capsys.readouterr().err
    assert result.returncode == 2 and result.stdout == ""
    assert result.stderr == cli_err and cli_err.startswith("error: ") and cli_err.count("\n") == 1
