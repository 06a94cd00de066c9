"""The teacher's draw helper: a run that hands the lowest augmentation draws
of each gate-open step to a forked process writes the bytes of the
in-process loop, leaves no process behind, and fails as that loop fails."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lifelong_tta.engine as engine
from lifelong_tta.cli import ExperimentConfig, ScheduleConfig, cmd_train_source, config_to_dict
from lifelong_tta.engine import (
    STEP_COLUMNS,
    AugmentParams,
    DrawHelper,
    NonFiniteLossError,
    PetalConfig,
    _helper_share,
    adapt_step,
    init_adapt_state,
    method_config,
    run_lifelong,
    teacher_pseudo_label,
)
from lifelong_tta.metrics import MetricAccumulator
from lifelong_tta.model import MlpClassifier
from lifelong_tta.streams import build_schedule, make_source_dataset, stream_batches
from lifelong_tta.swag import train_source

from helpers import seeded_generators

ROOT = Path(__file__).resolve().parents[1]
TEACHER_METHODS = ("petal", "cotta", "petal_fim", "petal_sres", "petal_none")
NO_AUGMENT = AugmentParams(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


@pytest.fixture(scope="module")
def bundle():
    dataset = make_source_dataset(0, 30)
    model = MlpClassifier((64, 32, 8), seed=0)
    posterior, _ = train_source(
        model,
        dataset.images.reshape(len(dataset), -1),
        dataset.labels,
        epochs=12,
        lr=0.05,
        momentum=0.9,
        batch_size=64,
        swag_epochs=5,
        rng=np.random.default_rng(1),
    )
    schedule = build_schedule(("contrast", "gaussian_noise"), "continual5", 2, 16)
    return dataset, model, posterior, schedule


@pytest.fixture
def forks(monkeypatch):
    """The pids of the processes forked while the test runs."""
    pids = []

    def counted(fork=os.fork):
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def replay(bundle, cfg, seed):
    """The run's steps on a state without a helper, seeded as run_lifelong
    seeds its own: (rows, metric accumulator, final state)."""
    dataset, model, posterior, schedule = bundle
    stream_ss, augment_ss, restore_ss = np.random.SeedSequence(seed).spawn(3)
    state = init_adapt_state(
        model,
        posterior,
        cfg,
        rng_augment=np.random.Generator(np.random.PCG64(augment_ss)),
        rng_restore=np.random.Generator(np.random.PCG64(restore_ss)),
    )
    assert state.helper is None
    acc = MetricAccumulator()
    rows = []
    for batch, labels in stream_batches(schedule, dataset, np.random.Generator(np.random.PCG64(stream_ss))):
        step = adapt_step(state, batch.images, cfg)
        err, nll_values, brier_values = acc.update(batch.segment, step.predictions, labels)
        values = (len(rows), batch.segment, 100.0 * float(err.mean()), float(nll_values.mean()),
                  float(brier_values.mean()), step.loss, step.restored)
        rows.append(dict(zip(STEP_COLUMNS, values)))
    return rows, acc, state


def test_the_helper_takes_whole_blocks_nearest_half_the_draws():
    assert engine._DRAW_BLOCK == 4
    shares = {k: _helper_share(k) for k in (1, 2, 3, 4, 5, 7, 8, 9, 12, 13, 32, 33)}
    assert shares == {1: 0, 2: 0, 3: 0, 4: 0, 5: 4, 7: 4, 8: 4, 9: 4, 12: 8, 13: 8, 32: 16, 33: 16}


@pytest.mark.parametrize("params", [AugmentParams(), NO_AUGMENT], ids=["default", "zero"])
@pytest.mark.parametrize("k_aug", [1, 2, 5, 9, 32])
@pytest.mark.parametrize("name", TEACHER_METHODS)
def test_run_with_the_helper_writes_the_bytes_of_an_in_process_replay(bundle, forks, name, k_aug, params):
    cfg = method_config(PetalConfig(k_aug=k_aug, tau=2.0, augment=params), name)  # the gate opens on every step
    report, state = run_lifelong(bundle[3], bundle[0], bundle[2], bundle[1], cfg, seed=4)
    assert len(forks) == (1 if _helper_share(k_aug) else 0)
    assert state.helper is None
    assert_no_child_left()
    rows, acc, expected = replay(bundle, cfg, seed=4)
    assert report.rows_to_csv() == dataclasses.replace(report, rows=rows).rows_to_csv()
    assert len(rows) == 4 and report.rows == rows
    for segment in report.segments:
        assert dataclasses.asdict(acc.segment_summary(segment["segment"])).items() <= segment.items()
    assert dataclasses.asdict(acc.overall()).items() <= report.overall.items()
    assert state.student.theta.tobytes() == expected.student.theta.tobytes()
    assert state.teacher.theta.tobytes() == expected.teacher.theta.tobytes()
    assert state.rng_augment.bit_generator.state == expected.rng_augment.bit_generator.state


def test_a_step_of_another_shape_than_the_helpers_runs_in_process(bundle, forks):
    # the mapping is made for the first gate-open step's (draws, B); a batch
    # of another size runs every draw in main, and the next one of the first
    # size goes to the helper again
    dataset, model, posterior, _ = bundle
    cfg = PetalConfig(k_aug=9, tau=2.0)
    state = init_adapt_state(model, posterior, cfg, **seeded_generators(2))
    expected = init_adapt_state(model, posterior, cfg, **seeded_generators(2))
    state.helper = DrawHelper()
    images = dataset.images.reshape(len(dataset), -1)
    try:
        for rows in (slice(0, 19), slice(19, 31), slice(31, 50)):
            labels = teacher_pseudo_label(state, images[rows], cfg)
            assert labels.tobytes() == teacher_pseudo_label(expected, images[rows], cfg).tobytes()
            assert not np.shares_memory(labels, state.helper.probs)
        assert len(forks) == 1
    finally:
        state.helper.close()
    assert_no_child_left()


@pytest.mark.parametrize(
    "name, overrides", [("petal_fim", {"tau": 0.0}), ("tent", {}), ("bn_adapt", {}), ("source", {})]
)
def test_runs_without_teacher_draws_fork_nothing(bundle, forks, name, overrides):
    cfg = method_config(dataclasses.replace(PetalConfig(), **overrides), name)
    report, state = run_lifelong(bundle[3], bundle[0], bundle[2], bundle[1], cfg, seed=0)
    assert len(report.rows) == 4
    assert forks == [] and state.helper is None


@pytest.fixture
def poison(monkeypatch):
    """``poison(step, draws)``: from then on, the contrast factor of the first
    sample of those draws (numbered within the step) is NaN at that step."""
    target = {}
    drawn = []  # [whether the current step is the target, draws it has taken so far]

    def teacher_pseudo_label(state, images, cfg, original=engine.teacher_pseudo_label):
        drawn[:] = [state.step == target["step"], 0]
        return original(state, images, cfg)

    def draw_numbers(rng, params, numbers, noise, original=engine.draw_numbers):
        original(rng, params, numbers, noise)
        active, first = drawn
        for k in range(numbers.shape[0]):
            if active and first + k in target["draws"]:
                numbers[k, engine._NUMBERS.index("contrast"), 0] = np.nan
        drawn[1] += numbers.shape[0]

    monkeypatch.setattr(engine, "teacher_pseudo_label", teacher_pseudo_label)
    monkeypatch.setattr(engine, "draw_numbers", draw_numbers)
    return lambda step, draws: target.update(step=step, draws=set(draws))


@pytest.mark.parametrize("draws", [(0,), (15,), (16,), (31,), (3, 20)], ids=str)
def test_a_nan_in_either_share_raises_the_in_process_message(bundle, forks, poison, draws):
    # K = 32: the helper takes draws 0-15, main 16-31; the helper was forked
    # on step 0, so step 2's NaN meets a running helper or main's own blocks
    cfg = method_config(PetalConfig(tau=2.0), "petal_fim")
    poison(2, draws)
    with pytest.raises(NonFiniteLossError) as expected:
        replay(bundle, cfg, seed=1)
    with pytest.raises(NonFiniteLossError) as raised:
        run_lifelong(bundle[3], bundle[0], bundle[2], bundle[1], cfg, seed=1)
    assert str(raised.value) == str(expected.value) == "non-finite forward at step 2: input contains NaN or Inf"
    assert len(forks) == 1
    assert_no_child_left()


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """Checkpoints of a short two-kind stream, and a config whose gate opens
    on nearly every step."""
    out = tmp_path_factory.mktemp("trained")
    cfg = ExperimentConfig(
        schedule=ScheduleConfig(kinds=("contrast", "gaussian_noise"), batches_per_segment=3, batch_size=32),
        seeds=(0,),
        out_dir=str(out),
    )
    cmd_train_source(cfg)
    doc = config_to_dict(cfg)
    doc["adapt"]["tau"] = 1.0
    (out / "config.json").write_text(json.dumps(doc), encoding="utf-8")
    return out


def cli(script, args, cwd, trained):
    """A process running ``script`` then ``main(args)``, the package from this checkout."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, "-c", script + "from lifelong_tta.cli import main\nsys.exit(main(sys.argv[1:]))\n"]
    cmd += [*args, "--config", str(trained / "config.json"), "--method", "petal_fim,cotta"]
    return subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="pins a process to one core")
def test_outputs_do_not_depend_on_scheduling(trained, tmp_path):
    # three runs at once, each with its helper: six processes on the
    # machine's cores, one run and its helper pinned to a single core
    pin = "import os, sys\nos.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
    runs = []
    for i, script in enumerate((pin, "import sys\n", "import sys\n")):
        (tmp_path / f"run{i}" / "out").mkdir(parents=True)
        for leaf in ("source_model.ptta", "posterior.ptta"):
            (tmp_path / f"run{i}" / "out" / leaf).write_bytes((trained / leaf).read_bytes())
        runs.append(cli(script, ["adapt", "--out", "out", "--k-aug", "9"], tmp_path / f"run{i}", trained))
    for proc in runs:
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
    outputs = [
        {path.relative_to(tmp_path / f"run{i}").as_posix(): path.read_bytes()
         for path in sorted((tmp_path / f"run{i}" / "out").glob("*/seed0/*"))}
        for i in range(3)
    ]
    assert len(outputs[0]) == 4 and outputs[0] == outputs[1] == outputs[2]


def test_killing_the_helper_mid_run_ends_main_with_one_line_and_exit_2(trained, tmp_path):
    # main sends step 2's draws to a helper that is gone
    script = (
        "import os, signal, sys\n"
        "import lifelong_tta.engine as engine\n"
        "def step(state, images, cfg, original=engine.adapt_step):\n"
        "    if state.step == 2:\n"
        "        os.kill(state.helper.pid, signal.SIGKILL)\n"
        "    return original(state, images, cfg)\n"
        "engine.adapt_step = step\n"
    )
    proc = cli(script, ["adapt", "--out", str(trained)], tmp_path, trained)
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 2, err
    assert out == ""
    assert err.startswith("error: the teacher draw helper process ") and err.count("\n") == 1
    assert not (trained / "petal_fim" / "seed0" / "report.json").exists()
