"""Smoke self-test of the benchmark: every workload at a tiny length.

    python3 -m pytest perfbench/tests

Each workload runs once untraced and once traced, in its own process, as the
benchmark is run for real. The test checks that every declared metric is
emitted with its unit, that the correctness checks pass, that tracing leaves
the program's outputs byte-identical, and that those outputs equal the ones
``lifelong-tta adapt`` writes for the same config and seeds.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from run import BLAS_THREAD_VARS, DERIVED, END_TO_END, PER_LAYER  # noqa: E402
from speed import EVERY_S, REFERENCE_S, SpeedProbe  # noqa: E402
from workloads import WORKLOADS, program_seeds  # noqa: E402

# workloads whose methods never draw augmentations
NO_AUGMENTATION = ("headline_forward", "no_aug_selftrain", "no_aug_petal")

TIMEOUT = 300


def _bench(work_dir: Path, workload: str, trace: int, cwd: Path = ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke",
           "--work-dir", str(work_dir)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT)


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def smoke(request, tmp_path_factory):
    """Both runs of one workload: {trace: (result line, result.json)}."""
    runs = {}
    for trace in (0, 1):
        work = tmp_path_factory.mktemp(f"{request.param}-trace{trace}")
        proc = _bench(work, request.param, trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        record = json.loads((work / request.param / "result.json").read_text())
        runs[trace] = (result, record, work / request.param)
    return request.param, runs


def test_every_metric_is_emitted_with_its_unit(smoke):
    _, runs = smoke
    expected = {
        0: END_TO_END,
        1: {name: unit for name, (unit, _, _) in PER_LAYER.items()} | DERIVED,
    }
    for trace, (result, _, _) in runs.items():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert {k: m["unit"] for k, m in result["metrics"].items()} == expected[trace]
        assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    assert all(m["value"] > 0 for m in runs[0][0]["metrics"].values())


def test_correctness_checks_pass(smoke):
    _, runs = smoke
    for result, record, _ in runs.values():
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert record["summary"]["problems"] == []


def test_tracing_leaves_outputs_byte_identical(smoke):
    _, runs = smoke
    assert runs[0][1]["summary"]["runs"] == runs[1][1]["summary"]["runs"]


def test_trace_separates_the_layers(smoke):
    name, runs = smoke
    metrics = runs[1][0]["metrics"]
    if name in NO_AUGMENTATION:
        assert metrics["engine.augment_calls"]["value"] == 0
        assert metrics["engine.gate_open_frac"]["value"] == 0
    else:
        assert metrics["engine.augment_calls"]["value"] > 0
    if name == "petal_long":
        step = metrics["engine.step_s"]["value"]
        phases = ("engine.loss_s", "engine.adam_s", "engine.ema_s", "engine.fim_mask_s",
                  "engine.restore_s", "autodiff.backward_s", "model.taped_forward_s")
        assert all(metrics["engine.pseudo_label_s"]["value"] > metrics[p]["value"] for p in phases)
        assert metrics["engine.pseudo_label_s"]["value"] < step


def test_outputs_equal_those_of_the_cli(smoke, tmp_path):
    """The same config and seeds through ``lifelong-tta`` give the same bytes."""
    name, runs = smoke
    _, record, work = runs[0]
    shutil.copy(work / "config.json", tmp_path / "config.json")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    env.pop("PETAL_THREADS", None)
    methods = ",".join(WORKLOADS[name].methods)
    for argv in (["train-source"], ["adapt", "--method", methods]):
        proc = subprocess.run(
            [sys.executable, "-m", "lifelong_tta", *argv, "--config", "config.json"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=TIMEOUT,
        )
        assert proc.returncode == 0, proc.stderr
    for run in record["summary"]["runs"]:
        run_dir = tmp_path / "runs" / run["run"]
        assert hashlib.sha256((run_dir / "report.json").read_bytes()).hexdigest() == run["report_sha256"]
        assert hashlib.sha256((run_dir / "steps.csv").read_bytes()).hexdigest() == run["steps_sha256"]


def test_benchmark_json_declares_what_the_benchmark_emits():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == END_TO_END
    per_layer = {name: unit for name, (unit, _, _) in PER_LAYER.items()} | DERIVED
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == per_layer


def test_probe_scales_to_the_reference_speed():
    """Readings at twice the reference time halve an interval, and the
    probe's own time inside an interval is left out."""
    probe = SpeedProbe()
    for k in range(10):  # a reading of 2 * REFERENCE_S every EVERY_S
        probe.starts.append(k * EVERY_S)
        probe.ends.append(k * EVERY_S + 2 * REFERENCE_S)
        probe.took.append(2 * REFERENCE_S)
    step = (EVERY_S / 4, EVERY_S / 2)  # between two readings
    assert math.isclose(probe.scaled(*step), (step[1] - step[0]) / 2)
    span = (0.0, 9 * EVERY_S)  # nine readings inside, the tenth starts at its end
    net = span[1] - 9 * 2 * REFERENCE_S
    assert math.isclose(probe.scaled(*span), net / 2)
    probe.read()
    assert 0 < probe.took[-1] < 1


def test_seed_lists_are_reproducible_and_disjoint():
    dev = {s for seed in range(50) for s in program_seeds(seed, 2, "dev")}
    held_out = {s for seed in range(50) for s in program_seeds(seed, 2, "heldout")}
    assert program_seeds(7, 2, "dev") == program_seeds(7, 2, "dev")
    assert not dev & held_out


def test_fails_without_the_program(tmp_path):
    """With only BENCHMARK.json and the benchmark's files there is no program
    to measure: exit non-zero and print no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = _bench(tmp_path / "work", "petal_long", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
