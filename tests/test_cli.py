import contextlib
import dataclasses
import io
import json
import math
import re
import shutil
import struct
import subprocess
import sys
import tempfile
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lifelong_tta.autodiff import softmax
from lifelong_tta.checkpoint import write_checkpoint
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
    load_checkpoints,
    main,
)
from lifelong_tta.engine import METHODS, PetalConfig, init_adapt_state, method_config, run_lifelong
from lifelong_tta.model import MlpClassifier, bn_affine_filter, param_mask
from lifelong_tta.streams import make_source_dataset
from lifelong_tta.swag import SwagDiagPosterior

from helpers import seeded_generators


def tiny_config(out_dir, **adapt_overrides):
    adapt = PetalConfig(method="petal", k_aug=3, alpha=1e-6, **adapt_overrides)
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


def saved_entries(out, cfg, leaf):
    """The entries of checkpoint ``leaf`` that ``train-source`` wrote under
    ``out`` with ``cfg``."""
    model = MlpClassifier.load_checkpoint(Path(out) / MODEL_CHECKPOINT, cfg.model.sizes)
    if leaf == MODEL_CHECKPOINT:
        return model.state_arrays()
    return SwagDiagPosterior.load(Path(out) / POSTERIOR_CHECKPOINT, model).state_arrays(model)


def test_config_round_trip_and_echo():
    cfg = ExperimentConfig()
    doc = config_to_dict(cfg)
    assert config_from_dict(json.loads(json.dumps(doc))) == cfg


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown keys"):
        config_from_dict({"dataset": {"seed": 0, "typo": 1}})
    with pytest.raises(ValueError, match="unknown keys"):
        config_from_dict({"not_a_section": {}})


# config documents whose leaf values have the wrong JSON type, or values no
# run can use: a negative seed, a stream batch larger than the eval set
# (8 classes x dataset.n_per_class images), model sizes that do not take the
# 64 pixels of an 8x8 image or do not give a logit per class, each half of
# the checks that once shared one message, and an adapt value outside its
# field's range
BAD_CONFIG_TYPES = {
    "k_aug_string": {"adapt": {"k_aug": "x"}},
    "tau_string": {"adapt": {"tau": "0.5"}},
    "seeds_string": {"seeds": "abc"},
    "seed_float": {"seeds": [0, 1.5]},
    "seed_bool": {"seeds": [True]},
    "size_string": {"model": {"sizes": [64, "24", 8]}},
    "count_bool": {"dataset": {"n_per_class": True}},
    "order_seed_string": {"schedule": {"order_seed": "3"}},
    "out_dir_number": {"out_dir": 5},
    "dataset_seed_negative": {"dataset": {"seed": -1}},
    "init_seed_negative": {"model": {"init_seed": -1}},
    "shuffle_seed_negative": {"source": {"shuffle_seed": -1}},
    "order_seed_negative": {"schedule": {"order_seed": -1}},
    "batch_above_eval_set": {"schedule": {"batch_size": 801}},
    "batch_above_small_eval_set": {"schedule": {"batch_size": 17}, "dataset": {"n_per_class": 2}},
    "sizes_input_not_pixels": {"model": {"sizes": [32, 128, 8]}},
    "sizes_fewer_outputs_than_classes": {"model": {"sizes": [64, 128, 4]}},
    "schedule_batch_size_one": {"schedule": {"batch_size": 1}},
    "batches_per_segment_zero": {"schedule": {"batches_per_segment": 0}},
    "source_lr_zero": {"source": {"lr": 0}},
    "source_momentum_one": {"source": {"momentum": 1.0}},
    "tau_above_one": {"adapt": {"tau": 1.5}},
    "kinds_unknown": {"schedule": {"kinds": ["fog"]}},
    "sizes_no_hidden_layer": {"model": {"sizes": [64, 8]}},
    "method_unknown": {"adapt": {"method": "x"}},
    "k_aug_zero": {"adapt": {"k_aug": 0}},
    "pi_above_one": {"adapt": {"pi": 2}},
    "eta_negative": {"adapt": {"eta": -1}},
    "alpha_negative": {"adapt": {"alpha": -1}},
    "rho_above_one": {"adapt": {"rho": 1.5}},
    "delta_negative": {"adapt": {"delta": -0.1}},
    "alpha_past_float_range": {"adapt": {"alpha": 10**400}},
    "source_lr_past_float_range": {"source": {"lr": 10**400}},
    "swag_epochs_above_epochs": {"source": {"epochs": 2, "swag_epochs": 5}},
}


@pytest.mark.parametrize("case", sorted(BAD_CONFIG_TYPES))
def test_cli_rejects_wrongly_typed_config(tmp_path, capsys, case):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(BAD_CONFIG_TYPES[case]), encoding="utf-8")
    assert main(["adapt", "--config", str(config_path), "--dump-config"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config.") and err.count("\n") == 1
    (section, leaves), *_ = BAD_CONFIG_TYPES[case].items()
    if isinstance(leaves, dict):  # the message starts with the bad field
        assert any(err.startswith(f"error: config.{section}.{leaf}") for leaf in leaves)
    # train-source refuses it the same way before it makes --out
    out = tmp_path / "out"
    assert main(["train-source", "--config", str(config_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == err
    assert not out.exists()


@pytest.mark.parametrize("key, value", [("optimizer", "adam"), ("predict_from", "teacher"),
                                        ("reset_optimizer_state", False), ("tent_online", False),
                                        ("restore", "stochastic")])
def test_cli_refuses_removed_adapt_keys(tmp_path, capsys, key, value):
    # the adapt section has no optimizer, predict_from, reset_optimizer_state,
    # tent_online or restore key (steps are Adam steps, petal/cotta predict
    # from the teacher, a restore leaves the moments alone, the oracle reset
    # is the tent_online method, a method's row owns its restore rule): a
    # config naming one, even at its former default, is refused before --out
    # is made
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"adapt": {key: value}}), encoding="utf-8")
    out = tmp_path / "out"
    for command in ("adapt", "train-source"):
        assert main([command, "--config", str(config_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: unknown keys in config.adapt: [{key!r}]\n"
    assert not out.exists()


def test_adapt_has_no_tent_online_flag(capsys):
    # the oracle reset is a method name, `--method tent_online`, not a flag
    with pytest.raises(SystemExit) as exit_info:
        main(["adapt", "--tent-online"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --tent-online" in capsys.readouterr().err


def test_config_type_check_accepts_ints_as_floats_and_null_order_seed():
    adapt = config_from_dict({"adapt": {"tau": 1, "alpha": 0}}).adapt
    assert adapt.tau == 1.0 and type(adapt.tau) is float and type(adapt.alpha) is float
    assert config_from_dict({"schedule": {"order_seed": None}}).schedule.order_seed is None
    assert config_from_dict({"schedule": {"order_seed": 3}}).schedule.order_seed == 3
    assert config_from_dict({"seeds": [7, 8]}).seeds == (7, 8)


def test_method_config_aliases():
    def resolved(name):
        cfg = method_config(PetalConfig(), name)
        assert cfg == dataclasses.replace(PetalConfig(), method=name)  # the name is all it sets
        return cfg.method, METHODS[cfg.method].restore

    # the config keeps the name, whose row the run state looks up and whose restore rule it reads
    assert resolved("petal") == ("petal", "fim")
    assert resolved("petal_fim") == ("petal_fim", "fim")
    assert resolved("petal_sres") == ("petal_sres", "stochastic")
    assert resolved("petal_none") == ("petal_none", "none")
    assert resolved("cotta") == ("cotta", "stochastic")
    assert resolved("tent") == ("tent", None)
    assert resolved("tent_online") == ("tent_online", None)
    with pytest.raises(ValueError, match="unknown method 'nope'"):
        method_config(PetalConfig(), "nope")


@pytest.mark.parametrize("name", list(METHODS))
def test_methods_row_sets_up_the_run_state(trained_dir, monkeypatch, capsys, name):
    # a row's objective and anchor decide what the run state holds: a teacher
    # and its workspace for the teacher objective, Adam moments for any
    # objective, the anchor where it is on; the teacher objective trains all
    # of theta, every other row only the BN gamma/beta coordinates
    out, cfg = trained_dir
    model, posterior = load_checkpoints(cfg)
    row = METHODS[name]
    state = init_adapt_state(model, posterior, method_config(cfg.adapt, name), **seeded_generators(0))
    teacher = row.objective == "teacher_ce"
    assert (state.teacher is not None, state.workspace is not None) == (teacher, teacher)
    assert (state.opt is not None) == (row.objective is not None)
    assert (state.anchor is not None) == row.anchor
    everything = np.arange(model.theta.size)
    affine = np.flatnonzero(param_mask(model, bn_affine_filter))
    assert np.array_equal(everything[state.trained], everything if teacher else affine)
    # the `adapt --help` list of names is the table's
    monkeypatch.setenv("COLUMNS", "200")  # one help line per option
    with pytest.raises(SystemExit):
        main(["adapt", "--help"])
    listed = re.search(r"adapt\.method\): (\S+)", capsys.readouterr().out).group(1)
    assert listed.split(",") == sorted(METHODS)


def test_dump_config_includes_defaults(capsys):
    assert main(["adapt", "--dump-config", "--alpha", "0.5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["adapt"]["alpha"] == 0.5
    assert doc["adapt"]["pi"] == 0.999
    assert doc["seeds"] == [0, 1, 2, 3, 4]


# each adapt flag, its config-file key and a value other than the default
FLAG_KEYS = [
    ("--delta", "0.5", ("adapt", "delta"), 0.5),
    ("--rho", "0.25", ("adapt", "rho"), 0.25),
    ("--alpha", "0.001", ("adapt", "alpha"), 0.001),
    ("--tau", "0.5", ("adapt", "tau"), 0.5),
    ("--k-aug", "5", ("adapt", "k_aug"), 5),
    ("--schedule", "gradual", ("schedule", "mode"), "gradual"),
    ("--seeds", "3,4", ("seeds",), [3, 4]),
    ("--out", "elsewhere", ("out_dir",), "elsewhere"),
]


@pytest.mark.parametrize("flag, text, key, value", FLAG_KEYS, ids=[case[0] for case in FLAG_KEYS])
def test_adapt_flag_and_config_key_dump_the_same_config(tmp_path, capsys, flag, text, key, value):
    doc = config_to_dict(ExperimentConfig())
    section = doc
    for name in key[:-1]:
        section = section[name]
    assert section[key[-1]] != value
    section[key[-1]] = value
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["adapt", "--dump-config", flag, text]) == 0
    by_flag = capsys.readouterr().out
    assert main(["adapt", "--dump-config", "--config", str(config_path)]) == 0
    by_key = capsys.readouterr().out
    assert by_flag == by_key
    assert json.loads(by_flag) == json.loads(json.dumps(doc))


def test_train_source_writes_checkpoints(trained_dir):
    out, cfg = trained_dir
    assert (out / "source_model.ptta").exists()
    assert (out / "posterior.ptta").exists()
    summary = json.loads((out / "train_summary.json").read_text())
    assert summary["final_train_accuracy"] >= 0.9


def test_final_train_accuracy_is_the_saved_models_train_set_accuracy(trained_dir):
    out, cfg = trained_dir
    summary = json.loads((out / "train_summary.json").read_text())
    model = MlpClassifier.load_checkpoint(out / MODEL_CHECKPOINT, cfg.model.sizes)
    dataset = make_source_dataset(cfg.dataset.seed, cfg.dataset.n_per_class)
    logits = model.forward(dataset.images.reshape(len(dataset), -1), "eval")
    preds = softmax(logits).argmax(axis=1)
    assert summary["final_train_accuracy"] == float((preds == dataset.labels).mean())


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
    assert err == "error: config.source.epochs must be >= 1, got 0\n"
    assert not out.exists()


def test_swag_epochs_may_equal_epochs_but_not_exceed_them():
    assert config_from_dict({"source": {"epochs": 5, "swag_epochs": 5}}).source.swag_epochs == 5
    with pytest.raises(ValueError) as info:
        config_from_dict({"source": {"epochs": 2, "swag_epochs": 5}})
    assert str(info.value) == "config.source.swag_epochs must be at most config.source.epochs (2), got 5"


def _copy_checkpoints(out, run):
    run.mkdir()
    for leaf in (MODEL_CHECKPOINT, POSTERIOR_CHECKPOINT):
        shutil.copy(Path(out) / leaf, run / leaf)


def test_cmd_adapt_refuses_an_unknown_name_before_any_run(trained_dir, tmp_path):
    out, cfg = trained_dir
    run = tmp_path / "run"
    _copy_checkpoints(out, run)
    with pytest.raises(ValueError, match="unknown method 'nope'"):
        cmd_adapt(dataclasses.replace(cfg, out_dir=str(run)), ["source", "nope"])
    assert sorted(p.name for p in run.iterdir()) == sorted([MODEL_CHECKPOINT, POSTERIOR_CHECKPOINT])


def test_adapt_runs_the_config_method_without_method_flag(trained_dir, tmp_path, capsys):
    out, cfg = trained_dir
    run = tmp_path / "run"
    _copy_checkpoints(out, run)
    doc = config_to_dict(dataclasses.replace(cfg, out_dir=str(run)))
    doc["adapt"]["method"] = "tent"
    config_path = tmp_path / "tent.json"
    config_path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["adapt", "--config", str(config_path)]) == 0
    assert capsys.readouterr().out == f"{run / 'tent' / 'seed0'}\n"
    assert sorted(p.name for p in run.iterdir()) == sorted([MODEL_CHECKPOINT, POSTERIOR_CHECKPOINT, "tent"])
    report = json.loads((run / "tent" / "seed0" / "report.json").read_text())
    assert report["method"] == "tent" and report["experiment"]["adapt"]["method"] == "tent"


@pytest.mark.parametrize("name", ["petal_fim", "tent_online"])
def test_config_method_runs_as_the_method_flag_does(trained_dir, tmp_path, capsys, name):
    # every METHODS key is a config's adapt.method, not only the engine
    # methods: the config's run writes the steps and the report of the flag's
    out, cfg = trained_dir
    by_config, by_flag = tmp_path / "config", tmp_path / "flag"
    for run in (by_config, by_flag):
        _copy_checkpoints(out, run)
    doc = config_to_dict(cfg)
    plain_path = tmp_path / "plain.json"
    plain_path.write_text(json.dumps(doc), encoding="utf-8")
    doc["adapt"]["method"] = name
    named_path = tmp_path / "named.json"
    named_path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["adapt", "--config", str(named_path), "--out", str(by_config)]) == 0
    assert main(["adapt", "--config", str(plain_path), "--out", str(by_flag), "--method", name]) == 0
    capsys.readouterr()
    config_run, flag_run = (run / name / "seed0" for run in (by_config, by_flag))
    assert (config_run / "steps.csv").read_bytes() == (flag_run / "steps.csv").read_bytes()
    config_report, flag_report = (json.loads((run / "report.json").read_text()) for run in (config_run, flag_run))
    assert config_report.pop("experiment")["adapt"]["method"] == name
    assert flag_report.pop("experiment")["adapt"]["method"] == cfg.adapt.method
    assert config_report == flag_report
    assert config_report["config"]["method"] == config_report["method"] == name


def test_integer_in_a_float_field_writes_the_flags_report(trained_dir, tmp_path, capsys):
    # {"alpha": 0} in the file and --alpha 0 are one run: same report bytes
    out, cfg = trained_dir
    run = tmp_path / "run"
    _copy_checkpoints(out, run)
    doc = config_to_dict(dataclasses.replace(cfg, out_dir=str(run)))
    flag_path = tmp_path / "flag.json"
    flag_path.write_text(json.dumps(doc), encoding="utf-8")
    doc["adapt"]["alpha"] = 0
    file_path = tmp_path / "file.json"
    file_path.write_text(json.dumps(doc), encoding="utf-8")
    written = []
    for args in (["--config", str(file_path)], ["--config", str(flag_path), "--alpha", "0"]):
        assert main(["adapt", *args, "--method", "petal"]) == 0
        written.append((run / "petal" / "seed0" / "report.json").read_bytes())
        assert main(["adapt", *args, "--dump-config"]) == 0
    assert written[0] == written[1]
    assert b'"alpha": 0.0' in written[0]
    dumps = capsys.readouterr().out
    assert dumps.count('"alpha": 0.0,') == 2


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


def test_adapt_drops_each_runs_state_before_the_next_run_starts(trained_dir, tmp_path, monkeypatch):
    out, cfg = trained_dir
    run = tmp_path / "run"
    _copy_checkpoints(out, run)
    cfg = dataclasses.replace(cfg, out_dir=str(run), seeds=(0, 1))
    finished = []  # a weak reference to each finished run's state
    alive_at_start = []
    real_run = run_lifelong

    def recording_run(*args):
        alive_at_start.append([ref() is not None for ref in finished])
        report, state = real_run(*args)
        finished.append(weakref.ref(state))
        return report, state

    monkeypatch.setattr("lifelong_tta.cli.run_lifelong", recording_run)
    cmd_adapt(cfg, ["petal", "tent"])
    # no earlier run's state is alive while a later run executes, and none
    # outlives the command
    assert alive_at_start == [[], [False], [False] * 2, [False] * 3]
    assert [ref() for ref in finished] == [None] * 4


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
    assert doc["method"] == "petal" and "method_label" not in doc
    csv_lines = (out / "petal" / "seed0" / "steps.csv").read_text().splitlines()
    assert csv_lines[0] == "step,segment,error,nll,brier,loss,restored"
    assert len(csv_lines) == 1 + 4  # 2 segments x 2 batches


def test_cli_cotta_restores_at_random_as_cotta_does(trained_dir, tmp_path, capsys):
    # cotta's row restores each coordinate with probability rho, CoTTA's
    # rule: the count varies from step to step and is never the delta share
    # that petal's FIM restore resets on every step
    out, cfg = trained_dir
    run = tmp_path / "run"
    _copy_checkpoints(out, run)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config_to_dict(cfg)), encoding="utf-8")
    assert main(["adapt", "--config", str(config_path), "--out", str(run), "--method", "cotta"]) == 0
    capsys.readouterr()
    rows = (run / "cotta" / "seed0" / "steps.csv").read_text().splitlines()[1:]
    restored = [int(line.split(",")[-1]) for line in rows]
    fim_count = math.floor(cfg.adapt.delta * MlpClassifier(cfg.model.sizes).theta.size)
    assert len(restored) == 4 and len(set(restored)) > 1
    assert fim_count not in restored
    doc = json.loads((run / "cotta" / "seed0" / "report.json").read_text())
    assert doc["method"] == doc["config"]["method"] == "cotta" and "method_label" not in doc


def test_report_groups_an_old_report_under_its_method_label(trained_dir, tmp_path, capsys):
    # a report.json written when "method" named the row's engine method
    # carries the name that ran in "method_label", which the report reads first
    out, cfg = trained_dir
    run = tmp_path / "run"
    _copy_checkpoints(out, run)
    cmd_adapt(dataclasses.replace(cfg, out_dir=str(run)), ["petal_fim"])
    expected = cmd_report([str(run)])
    path = run / "petal_fim" / "seed0" / "report.json"
    doc = json.loads(path.read_text())
    doc["method"], doc["method_label"] = "petal", "petal_fim"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cmd_report([str(run)]) == expected
    assert main(["report", str(run)]) == 0
    table = capsys.readouterr().out
    assert table == expected[0]
    assert [line.split()[0] for line in table.splitlines()[2:]] == ["petal_fim"]


def test_cli_report_csv_writes_the_reports_csv(trained_dir, tmp_path, capsys):
    out, cfg = trained_dir
    run = tmp_path / "run"
    _copy_checkpoints(out, run)
    cmd_adapt(dataclasses.replace(cfg, out_dir=str(run)), ["source", "petal"])
    table, csv_text = cmd_report([str(run)])
    csv_path = tmp_path / "table.csv"
    assert main(["report", str(run), "--csv", str(csv_path)]) == 0
    assert capsys.readouterr().out == table
    assert csv_path.read_text(encoding="utf-8") == csv_text
    # a path whose directory does not exist cannot be written: exit 2, one line,
    # and no table on stdout, which a caller could take for a successful call's
    assert main(["report", str(run), "--csv", str(tmp_path / "missing" / "table.csv")]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


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
    doc["adapt"].update({"eta": 1e200, "alpha": 1.0})
    config_path.write_text(json.dumps(doc), encoding="utf-8")
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["adapt", "--config", str(config_path), "--method", "petal"])
    assert code == 3
    assert "non-finite" in capsys.readouterr().err



# source configs that pass every check but whose SGD diverges: within an
# epoch, where the next step's forward sees the NaN/Inf, and on the one and
# only step, where only the accuracy forward after training sees it (that
# case was a FloatingPointError traceback and exit 1)
DIVERGING_SOURCE_CONFIGS = {
    "diverges_mid_epoch": {"source": {"lr": 1e200, "epochs": 1, "swag_epochs": 1}},
    "last_step_diverges": {"source": {"lr": 1e300, "epochs": 1, "swag_epochs": 1, "batch_size": 800}},
}


@pytest.mark.parametrize("case", sorted(DIVERGING_SOURCE_CONFIGS))
def test_cli_train_source_divergence_exits_2_and_writes_nothing(tmp_path, capsys, case):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(DIVERGING_SOURCE_CONFIGS[case]), encoding="utf-8")
    out = tmp_path / "out"
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["train-source", "--config", str(config_path), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: training diverged at epoch 0") and captured.err.count("\n") == 1
    assert not out.exists()


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
    assert captured.err.startswith(f"error: config.adapt.augment.{field_name} must be ") and captured.err.count("\n") == 1
    assert sorted(tmp_path.rglob("*")) == before


# adapt argument lists refused before any run writes a file: (flags, what
# the message must contain)
REFUSED_RUN_LISTS = {
    "negative_seed": (["--method", "source", "--seeds", "0,-1"], "seeds"),
    "duplicate_seed": (["--method", "source", "--seeds", "0,0"], "seeds"),
    "non_integer_seed": (["--method", "source", "--seeds", "0,x"], "seeds"),
    "duplicate_method": (["--method", "source,bn_adapt,source", "--seeds", "0"],
                         "--method must not name a method twice, got 'source,bn_adapt,source'"),
    "no_method": (["--method", " , ", "--seeds", "0"], "--method must name at least one method, got ' , '"),
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
    entries = saved_entries(out, cfg, leaf)
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
    config_path = tmp_path / "tiny.json"
    config_path.write_text(json.dumps(config_to_dict(cfg)), encoding="utf-8")
    args = ["adapt", "--config", str(config_path), "--out", str(tmp_path), "--method", "source"]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and str(tmp_path / leaf) in err


def _overall_error(value):
    return lambda doc: {**doc, "overall": {**doc["overall"], "error": value}}


# edits of a valid report.json that `report` must reject with one line; a
# tuple holds one edit per seed directory
MALFORMED_REPORTS = {
    "missing_schedule": lambda doc: {k: v for k, v in doc.items() if k != "schedule"},
    "json_list": lambda doc: [doc],
    "null_overall": lambda doc: {**doc, "overall": None},
    "segment_without_error": lambda doc: {
        **doc,
        "segments": [{k: v for k, v in s.items() if k != "error"} for s in doc["segments"]],
    },
    "int_past_float_range": _overall_error(10**400),
    # each error fits a float; the squared spread about their mean does not
    "seed_spread_past_float_range": (_overall_error(1e200), _overall_error(-1e200)),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_REPORTS))
def test_cli_report_rejects_malformed_report(trained_dir, tmp_path, capsys, case):
    out, cfg = trained_dir
    (run_dir,) = cmd_adapt(cfg, ["source"])
    doc = json.loads((run_dir / "report.json").read_text(encoding="utf-8"))
    edits = MALFORMED_REPORTS[case]
    edits = edits if isinstance(edits, tuple) else (edits,)
    for seed, edit in enumerate(edits):
        bad = tmp_path / "source" / f"seed{seed}" / "report.json"
        bad.parent.mkdir(parents=True)
        bad.write_text(json.dumps(edit(doc)), encoding="utf-8")
    assert main(["report", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    # one seed: the line names the file; several: the method and the column
    named = str(bad) if len(edits) == 1 else "source mean_err"
    assert err.startswith("error: ") and err.count("\n") == 1 and named in err


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
    config_path = tmp_path / "tiny.json"
    config_path.write_text(json.dumps(config_to_dict(cfg)), encoding="utf-8")
    assert main(["adapt", "--config", str(config_path), "--out", str(run), "--method", "source"]) == 2
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


def test_tune_regularizer_reads_seeds_like_the_cli(tmp_path, capsys):
    # --out and --seeds go through the CLI's overrides, so a bad seed list
    # gives the CLI's message, before any checkpoint is read
    script = Path(__file__).resolve().parents[1] / "scripts" / "tune_regularizer.py"
    result = subprocess.run(
        [sys.executable, str(script), "--out", str(tmp_path), "--seeds", "0,x"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert main(["adapt", "--out", str(tmp_path), "--method", "source", "--seeds", "0,x"]) == 2
    cli_err = capsys.readouterr().err
    assert result.returncode == 2 and result.stdout == ""
    assert result.stderr == cli_err == "error: --seeds must be comma-separated integers, got '0,x'\n"


def test_tune_regularizer_reads_the_training_config(trained_dir, tmp_path):
    # checkpoints trained under a one-batch-per-segment config: the grid runs
    # that config's dataset, stream lengths and adapt settings, so its first
    # row is the petal_fim run of that config on the held-out kind
    from lifelong_tta.cli import HELD_OUT_KIND, eval_dataset_seed, load_checkpoints
    from lifelong_tta.engine import run_lifelong
    from lifelong_tta.streams import build_schedule, make_source_dataset

    out, cfg = trained_dir
    cfg = dataclasses.replace(cfg, schedule=dataclasses.replace(cfg.schedule, batches_per_segment=1))
    config_path = tmp_path / "one_batch.json"
    config_path.write_text(json.dumps(config_to_dict(cfg)), encoding="utf-8")
    script = Path(__file__).resolve().parents[1] / "scripts" / "tune_regularizer.py"
    result = subprocess.run(
        [sys.executable, str(script), "--config", str(config_path)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    model, posterior = load_checkpoints(cfg)
    schedule = build_schedule((HELD_OUT_KIND,), "continual5", 1, cfg.schedule.batch_size)
    eval_set = make_source_dataset(eval_dataset_seed(cfg), cfg.dataset.n_per_class)
    petal_cfg = dataclasses.replace(cfg.adapt, method="petal", alpha=1e-6)
    report, _ = run_lifelong(schedule, eval_set, posterior, model, petal_cfg, 0)
    assert report.overall["count"] == cfg.schedule.batch_size
    assert lines[0].startswith(f"alpha={1e-6:8.0e}  mean error {report.overall['error']:7.4f}%")
    assert lines[-1].startswith("winner: alpha=")


# a model checkpoint whose entries have the right shapes but values no model
# can run with: (entry, edit)
UNUSABLE_MODEL_ENTRIES = {
    "nan_running_var": ("hidden0.running_var", lambda a: np.where(np.arange(a.size) == 0, np.nan, a)),
    "negative_running_var": ("hidden0.running_var", lambda a: -a),
    "inf_weight": ("out.weight", lambda a: np.where(a > 0, np.inf, a)),
}


@pytest.mark.parametrize("method", ["source", "petal_fim", "bn_adapt"])
@pytest.mark.parametrize("case", sorted(UNUSABLE_MODEL_ENTRIES))
def test_cli_rejects_unusable_model_checkpoint(trained_dir, tmp_path, capsys, case, method):
    # was: a FloatingPointError traceback (source), exit 3 at step 0
    # (petal_fim) or exit 0 (bn_adapt, which never reads the running stats)
    out, cfg = trained_dir
    key, change = UNUSABLE_MODEL_ENTRIES[case]
    for name in (MODEL_CHECKPOINT, POSTERIOR_CHECKPOINT):
        shutil.copy(Path(out) / name, tmp_path / name)
    entries = saved_entries(out, cfg, MODEL_CHECKPOINT)
    entries[key] = change(entries[key])
    write_checkpoint(tmp_path / MODEL_CHECKPOINT, entries)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config_to_dict(dataclasses.replace(cfg, out_dir=str(tmp_path)))), encoding="utf-8")
    assert main(["adapt", "--config", str(config_path), "--method", method]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(tmp_path / MODEL_CHECKPOINT) in err and key in err
    assert not list(tmp_path.glob("*/seed*"))


# a model checkpoint, otherwise valid, with one entry no place in its model
# holds: (hidden widths, entry)
STRAY_MODEL_ENTRIES = {
    "bogus_entry": ((24,), "bogus.entry"),
    "hidden5_of_two_layers": ((24, 16), "hidden5.running_mean"),
}


@pytest.mark.parametrize("case", sorted(STRAY_MODEL_ENTRIES))
def test_cli_rejects_stray_model_checkpoint_entry(tmp_path, capsys, case):
    # was: loaded without complaint, exit 0
    hidden, key = STRAY_MODEL_ENTRIES[case]
    cfg = tiny_config(tmp_path)
    cfg = dataclasses.replace(cfg, model=dataclasses.replace(cfg.model, sizes=(64, *hidden, 8)))
    model = MlpClassifier(cfg.model.sizes, seed=0)
    model.save(tmp_path / MODEL_CHECKPOINT)
    posterior = SwagDiagPosterior(mu=model.flatten(), sigma2=np.full(model.theta.size, 1e-4), count=1)
    posterior.save(tmp_path / POSTERIOR_CHECKPOINT, model)
    entries = model.state_arrays()
    entries[key] = np.zeros(hidden[-1])
    write_checkpoint(tmp_path / MODEL_CHECKPOINT, entries)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config_to_dict(cfg)), encoding="utf-8")
    assert main(["adapt", "--config", str(config_path), "--method", "source"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(tmp_path / MODEL_CHECKPOINT) in err and key in err
    assert not list(tmp_path.glob("*/seed*"))


@pytest.mark.parametrize("config", ["default", "other_sizes"])
def test_cli_refuses_checkpoints_of_other_model_sizes(trained_dir, tmp_path, capsys, config):
    # checkpoints of a 64-24-8 model, read under the default or another
    # model.sizes; was: exit 0, adapting the 64-24-8 model while report.json
    # echoed the config's sizes
    out, cfg = trained_dir
    for name in (MODEL_CHECKPOINT, POSTERIOR_CHECKPOINT):
        shutil.copy(Path(out) / name, tmp_path / name)
    args = ["adapt", "--out", str(tmp_path), "--method", "bn_adapt", "--seeds", "0"]
    if config == "other_sizes":
        config_path = tmp_path / "other.json"
        doc = config_to_dict(dataclasses.replace(cfg, model=ModelConfig(sizes=(64, 16, 8))))
        config_path.write_text(json.dumps(doc), encoding="utf-8")
        args += ["--config", str(config_path)]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(tmp_path / MODEL_CHECKPOINT) in err and "hidden0.weight" in err
    assert not list(tmp_path.glob("*/seed*"))


def run_main(args):
    """(exit code, stdout, stderr) of ``main(args)``; a warning, which a
    command-line run would print to stderr, raises instead."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(args)
    return code, out.getvalue(), err.getvalue()


def assert_clean_exit(code, err, codes=(0, 2)):
    """Exit code among ``codes``; stderr empty on success, else one
    ``error:`` line."""
    assert code in codes
    if code == 0:
        assert err == ""
    else:
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize("method", ["source", "bn_adapt", "petal"])
def test_cli_overflowing_forward_exits_3_with_one_line(trained_dir, tmp_path, method):
    # a finite posterior mean whose first layer overflows; was: a
    # FloatingPointError traceback (source, bn_adapt), or numpy overflow
    # warnings printed ahead of the error line (petal)
    out, cfg = trained_dir
    shutil.copy(Path(out) / MODEL_CHECKPOINT, tmp_path / MODEL_CHECKPOINT)
    entries = saved_entries(out, cfg, POSTERIOR_CHECKPOINT)
    entries["swag.mu.hidden0.weight"] = np.full_like(entries["swag.mu.hidden0.weight"], 1e307)
    write_checkpoint(tmp_path / POSTERIOR_CHECKPOINT, entries)
    config_path = tmp_path / "tiny.json"
    config_path.write_text(json.dumps(config_to_dict(dataclasses.replace(cfg, out_dir=str(tmp_path)))), encoding="utf-8")
    code, _, err = run_main(["adapt", "--config", str(config_path), "--method", method])
    assert_clean_exit(code, err, codes=(3,))
    assert err.startswith("error: non-finite forward at step 0")
    assert not list(tmp_path.glob("*/seed*"))


def _paths(doc, prefix=()):
    """The key path of every value in a JSON document, sections and list
    items included."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _replace(doc, path, value):
    """Put ``value`` at ``path`` in ``doc``, unless an earlier edit took away
    a container on the way."""
    try:
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    except (KeyError, IndexError, TypeError):
        pass


# values a hand-edited JSON file may hold where another type or range belongs
ODD_VALUES = st.one_of(
    st.sampled_from([None, True, False, 0, -1, 2**70, -(2**70), 1e308, -1e308, 0.5, ""]),
    st.builds(list),  # a new object per draw, so no edit writes into another's value
    st.builds(dict),
    st.integers(),
    st.floats(),
    st.text(max_size=4),
    st.lists(st.one_of(st.none(), st.integers(), st.floats(), st.text(max_size=3)), max_size=3),
)
DEFAULT_CONFIG = json.loads(json.dumps(config_to_dict(ExperimentConfig())))
CONFIG_PATHS = list(_paths(DEFAULT_CONFIG))


@settings(max_examples=80, deadline=None)
@given(edits=st.lists(st.tuples(st.sampled_from(CONFIG_PATHS), ODD_VALUES), min_size=1, max_size=3))
def test_cli_any_config_values_exit_0_or_2_with_at_most_one_line(tmp_path_factory, edits):
    doc = json.loads(json.dumps(DEFAULT_CONFIG))
    for path, value in edits:
        _replace(doc, path, value)
    config_path = tmp_path_factory.getbasetemp() / "odd_config.json"
    config_path.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run_main(["adapt", "--config", str(config_path), "--dump-config"])
    assert_clean_exit(code, err)
    if err:  # the message names a real field or section of the config
        named = re.match(r"error: (?:unknown keys in )?config((?:\.\w+|\[\d+\])+)", err)
        assert named, err
        assert tuple(re.sub(r"\[\d+\]", "", named[1]).split(".")[1:]) in CONFIG_PATHS, err


@pytest.fixture(scope="module")
def source_report(trained_dir):
    """A valid report.json document of the source method."""
    _, cfg = trained_dir
    (run_dir,) = cmd_adapt(cfg, ["source"])
    return json.loads((run_dir / "report.json").read_text(encoding="utf-8"))


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_cli_report_of_any_field_values_exits_0_or_2_with_at_most_one_line(tmp_path_factory, source_report, data):
    doc = json.loads(json.dumps(source_report))
    paths = list(_paths(doc))
    for _ in range(data.draw(st.integers(1, 3), label="edits")):
        _replace(doc, data.draw(st.sampled_from(paths), label="path"), data.draw(ODD_VALUES, label="value"))
    root = Path(tempfile.mkdtemp(dir=tmp_path_factory.getbasetemp()))
    report_path = root / "source" / "seed0" / "report.json"
    report_path.parent.mkdir(parents=True)
    report_path.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run_main(["report", str(root)])
    assert_clean_exit(code, err)
    if code:
        assert str(report_path) in err


def _header_fields(blob):
    """(offset, struct format) of every header field after the magic of a
    well-formed checkpoint: version, entry count, and per entry the name
    length, rank and extents."""
    fields = [(4, "<I"), (8, "<I")]
    cursor = 12
    for _ in range(struct.unpack_from("<I", blob, 8)[0]):
        fields.append((cursor, "<H"))
        cursor += 2 + struct.unpack_from("<H", blob, cursor)[0]
        fields.append((cursor, "<B"))
        rank = blob[cursor]
        extents = struct.unpack_from(f"<{rank}I", blob, cursor + 1)
        fields += [(cursor + 1 + 4 * axis, "<I") for axis in range(rank)]
        cursor += 1 + 4 * rank + 8 * math.prod(extents)
    assert cursor == len(blob)
    return fields


@settings(max_examples=40, deadline=None)
@given(
    leaf=st.sampled_from([MODEL_CHECKPOINT, POSTERIOR_CHECKPOINT]),
    damage=st.sampled_from(["flip", "truncate", "field"]),
    data=st.data(),
)
def test_cli_damaged_checkpoint_bytes_exit_cleanly(trained_dir, tmp_path_factory, leaf, damage, data):
    # exit 2 names the damaged file; a finite value that the damage made
    # large enough to overflow the forward aborts the run with exit 3
    out, cfg = trained_dir
    blob = bytearray((Path(out) / leaf).read_bytes())
    if damage == "flip":
        bit = data.draw(st.integers(0, 8 * len(blob) - 1), label="bit")
        blob[bit // 8] ^= 1 << (bit % 8)
    elif damage == "truncate":
        del blob[data.draw(st.integers(0, len(blob) - 1), label="length") :]
    else:
        offset, fmt = data.draw(st.sampled_from(_header_fields(blob)), label="field")
        value = data.draw(st.integers(0, 2 ** (8 * struct.calcsize(fmt)) - 1), label="value")
        struct.pack_into(fmt, blob, offset, value)
    run = Path(tempfile.mkdtemp(dir=tmp_path_factory.getbasetemp()))
    for name in (MODEL_CHECKPOINT, POSTERIOR_CHECKPOINT):
        shutil.copy(Path(out) / name, run / name)
    (run / leaf).write_bytes(bytes(blob))
    config_path = run / "tiny.json"
    config_path.write_text(json.dumps(config_to_dict(dataclasses.replace(cfg, out_dir=str(run)))), encoding="utf-8")
    code, _, err = run_main(["adapt", "--config", str(config_path), "--method", "source"])
    assert_clean_exit(code, err, codes=(0, 2, 3))
    if code:
        assert not list(run.glob("*/seed*"))
    if code == 2:
        assert str(run / leaf) in err
