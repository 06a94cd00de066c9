"""The teacher's draw helper: a run that hands the lowest augmentation draws
of each gate-open step to a forked process writes the bytes of the
in-process loop, leaves no process behind, and fails as that loop fails."""

import dataclasses
import json
import os
import subprocess
import sys
import time
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
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


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
    n = engine._DRAW_BLOCK
    expected = {1: 0, 2: 0, n - 1: 0, n: 0, n + 1: n, 2 * n - 1: n, 2 * n: n, 2 * n + 1: n, 3 * n: 2 * n,
                3 * n + 1: 2 * n, 8 * n: 4 * n, 8 * n + 1: 4 * n}
    assert {k: _helper_share(k) for k in expected} == expected
    # the default K, and the K = 9 and 17 that the CI and compare_outputs.sh run to cover the helper
    assert {k: _helper_share(k) for k in (32, 9, 17)} == {32: 16, 9: n, 17: n}


@pytest.mark.parametrize("params", [AugmentParams(), NO_AUGMENT], ids=["default", "zero"])
@pytest.mark.parametrize("k_aug", [1, 2, 5, 9, 17, 32])
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


@pytest.fixture
def main_draws(monkeypatch):
    """The ``draw_numbers`` calls made in this process, one (generator, number
    of draws) entry per call; a helper's calls stay in its own copy of the list."""
    calls = []

    def draw_numbers(rng, params, numbers, noise, original=engine.draw_numbers):
        calls.append((rng, numbers.shape[0]))
        original(rng, params, numbers, noise)

    monkeypatch.setattr(engine, "draw_numbers", draw_numbers)
    return calls


def test_a_run_with_the_helper_draws_nothing_in_main(bundle, forks, main_draws):
    cfg = method_config(PetalConfig(k_aug=9, tau=2.0), "cotta")
    report, state = run_lifelong(bundle[3], bundle[0], bundle[2], bundle[1], cfg, seed=3)
    assert len(report.rows) == 4 and len(forks) == 1
    assert main_draws == []
    assert_no_child_left()


@pytest.mark.parametrize("k_aug", [9, 17])
def test_a_state_without_a_helper_draws_each_gate_open_step_in_one_call(bundle, main_draws, k_aug):
    # all K draws' numbers are one chunk, however many blocks run them
    dataset, model, posterior, _ = bundle
    cfg = PetalConfig(k_aug=k_aug, tau=2.0)
    state = init_adapt_state(model, posterior, cfg, **seeded_generators(6))
    images = dataset.images.reshape(len(dataset), -1)
    for step in range(3):
        main_draws.clear()
        teacher_pseudo_label(state, images[19 * step : 19 * (step + 1)], cfg)
        assert main_draws == [(state.rng_augment, k_aug)]


def test_helper_steps_write_the_bytes_of_in_process_steps(bundle, forks):
    # the mapping is sized for the first gate-open step's batch and serves
    # every later step; a batch of another size is refused before anything
    # goes down the pipe, so the steps after it are served as if it never came
    dataset, model, posterior, _ = bundle
    cfg = PetalConfig(k_aug=9, tau=2.0)
    state = init_adapt_state(model, posterior, cfg, **seeded_generators(2))
    expected = init_adapt_state(model, posterior, cfg, **seeded_generators(2))
    state.helper = DrawHelper(cfg.k_aug, cfg.augment)
    images = dataset.images.reshape(len(dataset), -1)
    try:
        for step in range(4):
            if step == 2:
                with pytest.raises(ValueError):
                    teacher_pseudo_label(state, images[200:212], cfg)
            rows = images[19 * step : 19 * (step + 1)]
            labels = teacher_pseudo_label(state, rows, cfg)
            assert labels.tobytes() == teacher_pseudo_label(expected, rows, cfg).tobytes()
            assert state.rng_augment.bit_generator.state == expected.rng_augment.bit_generator.state
            assert not np.shares_memory(labels, state.helper.chunk[2])
        assert len(forks) == 1
    finally:
        state.helper.close()
    assert_no_child_left()


def test_a_run_ending_on_a_pending_prefetch_reaps_its_helper(bundle, forks, monkeypatch):
    # after the last gate-open step the helper draws a step that never comes;
    # it is still drawing when the run returns, and is reaped all the same
    main = os.getpid()

    def draw_numbers(rng, params, numbers, noise, original=engine.draw_numbers):
        original(rng, params, numbers, noise)
        if os.getpid() != main:
            time.sleep(0.05)

    monkeypatch.setattr(engine, "draw_numbers", draw_numbers)
    cfg = method_config(PetalConfig(k_aug=9, tau=2.0), "petal_fim")
    report, state = run_lifelong(bundle[3], bundle[0], bundle[2], bundle[1], cfg, seed=5)
    assert report.rows == replay(bundle, cfg, seed=5)[0]
    assert len(forks) == 1 and state.helper is None
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
    """``poison(k_aug, step, draws)`` arms the next run: the contrast factor of
    the first sample of those draws (numbered within gate-open step ``step``)
    is NaN. Draws are counted over the run in draw order, in whichever
    process takes them: draw d of the run is draw d mod K of gate-open step
    d // K."""
    target = {}

    def draw_numbers(rng, params, numbers, noise, original=engine.draw_numbers):
        original(rng, params, numbers, noise)
        for k in range(numbers.shape[0]):
            step, draw = divmod(target["drawn"] + k, target["k_aug"])
            if step == target["step"] and draw in target["draws"]:
                numbers[k, engine._NUMBERS.index("contrast"), 0] = np.nan
        target["drawn"] += numbers.shape[0]

    monkeypatch.setattr(engine, "draw_numbers", draw_numbers)
    return lambda k_aug, step, draws: target.update(k_aug=k_aug, step=step, draws=set(draws), drawn=0)


@pytest.mark.parametrize("draws", [(0,), (15,), (16,), (31,), (3, 20)], ids=str)
def test_a_nan_in_either_share_raises_the_in_process_message(bundle, forks, poison, draws):
    # K = 32: the helper takes draws 0-15, main 16-31; the helper was forked
    # on step 0, so step 2's NaN meets a running helper or main's own blocks
    cfg = method_config(PetalConfig(tau=2.0), "petal_fim")
    poison(cfg.k_aug, 2, draws)
    with pytest.raises(NonFiniteLossError) as expected:
        replay(bundle, cfg, seed=1)
    poison(cfg.k_aug, 2, draws)
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


def cli(script, args, cwd, trained, unset=()):
    """A process running ``script`` then ``main(args)``, the package from this
    checkout, without the environment variables named in ``unset``."""
    env = {name: value for name, value in os.environ.items() if name not in unset}
    env["PYTHONPATH"] = str(ROOT / "src")
    cmd = [sys.executable, "-c", script + "from lifelong_tta.cli import main\nsys.exit(main(sys.argv[1:]))\n"]
    cmd += [*args, "--config", str(trained / "config.json"), "--method", "petal_fim,cotta"]
    return subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def copy_checkpoints(trained, out):
    out.mkdir(parents=True)
    for leaf in ("source_model.ptta", "posterior.ptta"):
        (out / leaf).write_bytes((trained / leaf).read_bytes())


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="pins a process to one core")
def test_outputs_do_not_depend_on_scheduling(trained, tmp_path):
    # three runs at once, each with its helper: six processes on the
    # machine's cores, one run and its helper pinned to a single core
    pin = "import os, sys\nos.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
    runs = []
    for i, script in enumerate((pin, "import sys\n", "import sys\n")):
        copy_checkpoints(trained, tmp_path / f"run{i}" / "out")
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


@pytest.mark.skipif(engine._openblas("set") is None, reason="numpy's BLAS exports no OpenBLAS thread-count setter")
def test_with_blas_unpinned_main_and_the_helper_run_one_blas_thread_while_it_lives(trained, tmp_path):
    # no BLAS thread variable is set, so OpenBLAS starts with its own count;
    # each augment call, main's and the helper's, logs its process's count as
    # OpenBLAS's getter reports it, and main logs its count at start and exit
    log = tmp_path / "threads.log"
    script = (
        "import atexit, ctypes, os, sys\n"
        "import numpy as np\n"
        "import lifelong_tta.engine as engine\n"
        "lib = ctypes.CDLL((getattr(np, '_core', None) or np.core)._multiarray_umath.__file__)\n"
        "names = ('scipy_openblas_get_num_threads64_', 'openblas_get_num_threads64_', 'openblas_get_num_threads')\n"
        "get = next(getattr(lib, name) for name in names if hasattr(lib, name))\n"
        f"log = open({str(log)!r}, 'a', buffering=1)\n"
        "def write(tag):\n"
        "    log.write(f'{tag} {os.getpid()} {get()}\\n')\n"
        "def augment(*args, original=engine.augment):\n"
        "    write('augment')\n"
        "    return original(*args)\n"
        "engine.augment = augment\n"
        "write('start')\n"
        "atexit.register(write, 'exit')\n"
    )
    copy_checkpoints(trained, tmp_path / "out")
    proc = cli(script, ["adapt", "--out", "out", "--k-aug", "9"], tmp_path, trained, unset=BLAS_THREAD_VARS)
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    lines = [line.split() for line in log.read_text(encoding="utf-8").splitlines()]
    (start,), (end,) = ([line for line in lines if line[0] == tag] for tag in ("start", "exit"))
    main = start[1]
    augments = {(pid == main, threads) for tag, pid, threads in lines if tag == "augment"}
    assert augments == {(True, "1"), (False, "1")}  # main and helpers, each on one thread
    assert end == ["exit", main, start[2]]  # main's own count is back once the helpers are reaped


def test_killing_the_helper_mid_run_ends_main_with_one_line_and_exit_2(trained, tmp_path):
    # at step 2 main asks a helper that is gone for its draws
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
