"""Benchmark of the lifelong-tta engine: end-to-end and per-layer metrics.

One workload per process. Set-up (train-source, checkpoint write and read,
eval-dataset and schedule build) runs first and is timed as ``setup_s``;
then passes of the workload run one after another, in whole passes, for at
most ``--seconds`` seconds (at least one pass). Every run's report.json and
steps.csv are checked and hashed. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``, the
end-to-end metrics with ``--trace 0`` and the per-layer ones with
``--trace 1``. End-to-end times are scaled to a reference CPU speed
(speed.py), because the host's own speed drifts within seconds.

    python3 perfbench/run.py --workload petal_long --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --seconds 20        # every workload, fresh processes, one table

BLAS is pinned to one thread and ``PETAL_THREADS`` is removed before numpy
loads, so the process uses no more threads than cores.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from layers import Tracer, instrument
from speed import SpeedProbe
from workloads import SEED_LISTS, SEEDS_PER_PASS, SETUP_REPEATS, WORKLOADS, program_seeds

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "samples_per_s": "samples/s",
    "step_ms_p50": "ms",
    "step_ms_p90": "ms",
    "error_pct": "%",
    "nll": "nats",
    "peak_rss_mb": "MB",
}

# per-layer metric -> (unit, how it is read from the traced run). "time"
# sums the outermost spans of that name, "self" a layer's self time, "calls"
# counts spans, "count" reads a counter.
PER_LAYER = {
    "cli.adapt_s": ("s", "time", "cli.adapt"),
    "cli.output_bytes": ("bytes", "count", "cli.output_bytes"),
    "swag.train_source_s": ("s", "time", "swag.train_source"),
    "swag.sgd_steps": ("count", "count", "swag.sgd_steps"),
    "checkpoint.write_s": ("s", "time", "checkpoint.write"),
    "checkpoint.read_s": ("s", "time", "checkpoint.read"),
    "checkpoint.bytes": ("bytes", "count", "checkpoint.bytes"),
    "streams.dataset_s": ("s", "time", "streams.dataset"),
    "streams.wait_s": ("s", "time", "streams.wait"),
    "streams.batches": ("count", "count", "streams.wait"),
    "engine.step_s": ("s", "time", "engine.step"),
    "engine.pseudo_label_s": ("s", "time", "engine.pseudo_label"),
    "engine.augment_s": ("s", "time", "engine.augment"),
    "engine.augment_calls": ("count", "calls", "engine.augment"),
    "engine.loss_s": ("s", "time", "engine.loss"),
    "engine.adam_s": ("s", "time", "engine.adam"),
    "engine.ema_s": ("s", "time", "engine.ema"),
    "engine.fim_mask_s": ("s", "time", "engine.fim_mask"),
    "engine.restore_s": ("s", "time", "engine.restore"),
    "model.forward_calls": ("count", "calls", "model.forward"),
    "model.forward_rows": ("count", "count", "model.forward_rows"),
    "model.forward_s": ("s", "time", "model.forward"),
    "model.taped_forward_s": ("s", "time", "model.taped_forward"),
    "model.flatten_calls": ("count", "count", "model.flatten"),
    "model.load_calls": ("count", "count", "model.load"),
    "model.flatten_load_s": ("s", "time", "model.flatten_load"),
    "autodiff.backward_s": ("s", "time", "autodiff.backward"),
    "autodiff.backward_calls": ("count", "calls", "autodiff.backward"),
    "autodiff.tensor_count": ("count", "count", "autodiff.tensor"),
    "autodiff.tape_nodes": ("count", "count", "autodiff.tape_nodes"),
    "metrics.score_s": ("s", "time", "metrics.score"),
}
LAYERS = ("cli", "swag", "checkpoint", "streams", "engine", "model", "autodiff", "metrics")
PER_LAYER.update({f"{layer}.self_s": ("s", "self", layer) for layer in LAYERS})
# ratios, and the traced run's own throughput to show the tracing overhead
DERIVED = {
    "engine.gate_open_frac": "ratio",
    "engine.restored_per_step": "count/step",
    "trace.samples_per_s": "samples/s",
}

# source and bn_adapt have no objective; their loss column is NaN by design
NO_OBJECTIVE = ("source", "bn_adapt")


def pin_threads() -> None:
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("PETAL_THREADS", None)


def import_program():
    """The lifelong_tta package from this checkout's ``src``, never another copy."""
    src = ROOT / "src"
    if not (src / "lifelong_tta" / "__init__.py").is_file():
        raise SystemExit(f"error: no lifelong_tta sources under {src}")
    sys.path.insert(0, str(src))
    import lifelong_tta
    import lifelong_tta.cli  # noqa: F401  (loads every layer module)

    if Path(lifelong_tta.__file__).resolve().parent != (src / "lifelong_tta").resolve():
        raise SystemExit(f"error: imported lifelong_tta from {lifelong_tta.__file__}")
    return lifelong_tta


def environment(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(np),
        "thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS + ("PETAL_THREADS",)},
    }


def _blas_threads(np):
    """The thread count OpenBLAS reports, or None when it cannot be asked."""
    import ctypes

    core = getattr(np, "_core", None) or np.core
    try:
        lib = ctypes.CDLL(core._multiarray_umath.__file__)
    except OSError:
        return None
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
        fn = getattr(lib, symbol, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# set-up, passes and correctness checks


def set_up(lt, cfg) -> tuple[tuple[float, float], str]:
    """train-source (SGD, checkpoint write, eval-dataset build), checkpoint
    read and schedule build; returns its (start, end) and a digest of what
    it wrote."""
    cli = lt.cli
    start = time.perf_counter()
    cli.cmd_train_source(cfg)
    cli.load_checkpoints(cfg)
    sched = cfg.schedule
    cli.build_schedule(sched.kinds, sched.mode, sched.batches_per_segment, sched.batch_size,
                       order_seed=sched.order_seed)
    end = time.perf_counter()
    out = Path(cfg.out_dir)
    written = [out / cli.MODEL_CHECKPOINT, out / cli.POSTERIOR_CHECKPOINT, out / "train_summary.json"]
    return (start, end), sha256(b"".join(sha256(p.read_bytes()).encode() for p in written))


def check_run(run_dir: Path, method: str, n_batches: int, batch_size: int) -> dict:
    """Hash a run's outputs and check them; ``problems`` lists what failed."""
    report_bytes = (run_dir / "report.json").read_bytes()
    steps_bytes = (run_dir / "steps.csv").read_bytes()
    doc = json.loads(report_bytes)
    rows = list(csv.DictReader(io.StringIO(steps_bytes.decode("utf-8"))))
    overall = doc["overall"]
    problems = []
    if len(rows) != n_batches or overall["count"] != n_batches * batch_size:
        problems.append(f"{len(rows)} steps / {overall['count']} samples, "
                        f"expected {n_batches} / {n_batches * batch_size}")
    if method not in NO_OBJECTIVE and not math.isfinite(float(rows[-1]["loss"])):
        problems.append("final loss is not finite")
    if not (math.isfinite(overall["error"]) and math.isfinite(overall["nll"])):
        problems.append("overall error or nll is not finite")
    step_error = math.fsum(float(r["error"]) for r in rows) / max(len(rows), 1)
    if not math.isclose(overall["error"], step_error, rel_tol=1e-12, abs_tol=1e-9):
        problems.append(f"error {overall['error']!r} != steps.csv mean {step_error!r}")
    return {
        "run": f"{method}/{run_dir.name}",
        "samples": overall["count"],
        "error": overall["error"],
        "nll": overall["nll"],
        "report_sha256": sha256(report_bytes),
        "steps_sha256": sha256(steps_bytes),
        "problems": problems,
    }


def run_pass(lt, cfg, methods, n_batches: int) -> tuple[tuple[float, float], list[dict] | None]:
    """One cmd_adapt call over every (method, seed), and the checks of its
    runs; returns the call's (start, end), and None in place of the runs if
    the call raised or wrote other runs."""
    start = time.perf_counter()
    try:
        run_dirs = lt.cli.cmd_adapt(cfg, list(methods))
        end = time.perf_counter()
        runs = [check_run(Path(d), Path(d).parent.name, n_batches, cfg.schedule.batch_size)
                for d in run_dirs]
    except Exception:  # the whole pass counts as failed, and the loop goes on
        traceback.print_exc()
        return (start, time.perf_counter()), None
    expected = [f"{m}/seed{s}" for m in methods for s in cfg.seeds]
    if [r["run"] for r in runs] != expected:
        print(f"cmd_adapt wrote {[r['run'] for r in runs]}, expected {expected}", file=sys.stderr)
        return (start, end), None
    return (start, end), runs


# ---------------------------------------------------------------------------
# one workload


def run_workload(args) -> tuple[dict, dict]:
    pin_threads()
    lt = import_program()
    import numpy as np

    spec = WORKLOADS[args.workload]
    seeds = program_seeds(args.seed, SEEDS_PER_PASS, args.seed_list)
    cfg = spec.config(lt.cli, seeds, args.smoke)
    sched = cfg.schedule
    n_batches = lt.streams.build_schedule(
        sched.kinds, sched.mode, sched.batches_per_segment, sched.batch_size
    ).n_batches

    work = Path(args.work_dir).resolve() / spec.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    os.chdir(work)  # cfg.out_dir is relative, as a user's would be
    (work / "config.json").write_text(
        json.dumps(lt.cli.config_to_dict(cfg), sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )

    tracer = Tracer()
    probe = SpeedProbe()
    repeats = 1 if args.trace or args.smoke else SETUP_REPEATS
    passes: list[tuple[tuple[float, float], list[dict] | None]] = []
    with instrument(tracer, probe, lt, layers=bool(args.trace)):
        setups = []
        for _ in range(repeats):
            probe.read()  # a reading at each edge of a set-up, which has no step at its start
            setups.append(set_up(lt, cfg))
        tracer.phase = "pass"
        while True:
            probe.read()
            passes.append(run_pass(lt, cfg, spec.methods, n_batches))
            spent = sum(end - start for (start, end), _ in passes)  # the budget is wall time
            if spent + spent / len(passes) > args.seconds:
                break
        probe.read()
    tracer.write(work / "spans.jsonl")

    runs_per_pass = len(spec.methods) * len(seeds)
    attempted = runs_per_pass * len(passes)
    failed = 0
    reference = next((runs for _, runs in passes if runs is not None), None)
    if reference is None:
        raise SystemExit("error: every pass failed; no metric can be measured")
    for _, runs in passes:
        if runs is None:
            failed += runs_per_pass
            continue
        for run, first in zip(runs, reference):
            same = (run["report_sha256"], run["steps_sha256"]) == (
                first["report_sha256"], first["steps_sha256"])
            if not same:
                run["problems"].append("outputs differ from the first pass")
            failed += bool(run["problems"])
    problems = sorted({p for _, runs in passes if runs for r in runs for p in r["problems"]})
    if len({digest for _, digest in setups}) != 1:
        problems.append("set-up outputs differ between repeats")
    correct = failed == 0 and not problems

    # every pass does the same work, so throughput is one pass's samples
    # over the median pass time; times are at the probe's reference speed
    good = [probe.scaled(*interval) for interval, runs in passes if runs is not None]
    samples_per_s = sum(r["samples"] for r in reference) / statistics.median(good)
    step_stats = {method: step_percentiles([probe.scaled(*step) for step in steps])
                  for method, steps in tracer.step_times("pass").items()}
    setup_seconds = [probe.scaled(*interval) for interval, _ in setups]
    summary = {
        "workload": spec.name,
        "seed": args.seed,
        "seed_list": args.seed_list,
        "program_seeds": list(seeds),
        "methods": list(spec.methods),
        "passes": len(passes),
        "pass_seconds": good,
        "pass_wall_seconds": [end - start for (start, end), _ in passes],
        "steps_by_method": step_stats,
        "setup_seconds": setup_seconds,
        "setup_wall_seconds": [end - start for (start, end), _ in setups],
        "probe_ms": {"median": 1e3 * statistics.median(probe.took),
                     "min": 1e3 * min(probe.took), "max": 1e3 * max(probe.took),
                     "readings": len(probe.took)},
        "environment": environment(np),
        "runs": reference,
        "outputs_sha256": sha256("".join(
            r["report_sha256"] + r["steps_sha256"] for r in reference).encode()),
        "problems": problems,
    }
    if args.trace:
        metrics = per_layer_metrics(tracer, len(passes), samples_per_s)
    else:
        metrics = end_to_end_metrics(setup_seconds, samples_per_s, step_stats, reference)
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    (work / "result.json").write_text(
        json.dumps({"summary": summary, "result": result}, indent=2) + "\n", encoding="utf-8"
    )
    return summary, result


def step_percentiles(times: list[float]) -> dict:
    """Median and 90th percentile of one method's step times, in ms, with
    the sample count and how many samples lie beyond the 90th percentile."""
    ms = [1e3 * t for t in times]
    p90 = statistics.quantiles(ms, n=10)[8] if len(ms) > 1 else ms[0]
    return {"p50": statistics.median(ms), "p90": p90, "samples": len(ms),
            "beyond_p90": sum(t > p90 for t in ms)}


def end_to_end_metrics(setup_seconds, samples_per_s, step_stats, runs) -> dict:
    # a workload holds at most two methods of about the same step cost; take
    # each method's percentile and their geometric mean, so a pooled
    # percentile does not sit on the edge between the two methods
    values = {
        "setup_s": statistics.median(setup_seconds),
        "samples_per_s": samples_per_s,
        "step_ms_p50": statistics.geometric_mean(s["p50"] for s in step_stats.values()),
        "step_ms_p90": statistics.geometric_mean(s["p90"] for s in step_stats.values()),
        "error_pct": statistics.fmean(r["error"] for r in runs),
        "nll": statistics.fmean(r["nll"] for r in runs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def per_layer_metrics(tracer, n_passes: int, samples_per_s: float) -> dict:
    """Per-layer values of one set-up plus one pass: set-up totals plus pass
    totals divided by the number of passes, which are identical."""
    setup = tracer.totals("setup")
    passes = tracer.totals("pass")

    def read(source: str, key: str) -> float:
        if source == "count":
            return tracer.counts[("setup", key)] + tracer.counts[("pass", key)] / n_passes
        table = {"time": 1, "self": 2, "calls": 0}[source]
        return setup[table][key] + passes[table][key] / n_passes

    values = {name: read(source, key) for name, (_, source, key) in PER_LAYER.items()}
    pseudo_calls = read("calls", "engine.pseudo_label")
    values["engine.gate_open_frac"] = (
        read("count", "engine.gate_open") / pseudo_calls if pseudo_calls else 0.0)
    step_calls = read("calls", "engine.step")
    values["engine.restored_per_step"] = (
        read("count", "engine.restored") / step_calls if step_calls else 0.0)
    values["trace.samples_per_s"] = samples_per_s
    units = {name: unit for name, (unit, _, _) in PER_LAYER.items()} | DERIVED
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def describe(summary: dict, result: dict) -> list[str]:
    """Human-readable lines printed before the JSON result."""
    env = summary["environment"]
    lines = [
        f"workload {summary['workload']}: methods {','.join(summary['methods'])}, "
        f"program seeds {summary['program_seeds']} ({summary['seed_list']} list, seed {summary['seed']})",
        f"environment: nproc {env['nproc']} (usable {env['usable_cpus']}), python {env['python']}, "
        f"numpy {env['numpy']}, blas {env['blas']}, blas threads {env['blas_threads']}",
        f"passes {summary['passes']} ({', '.join(f'{t:.2f}' for t in summary['pass_seconds'])} s "
        f"at the reference speed; {', '.join(f'{t:.2f}' for t in summary['pass_wall_seconds'])} s wall)",
        "speed probe ms: median {median:.3f}, min {min:.3f}, max {max:.3f} "
        "({readings} readings)".format(**summary["probe_ms"]),
        "step ms by method: " + "; ".join(
            f"{m} p50 {s['p50']:.3f} p90 {s['p90']:.3f} (n={s['samples']}, {s['beyond_p90']} beyond p90)"
            for m, s in summary["steps_by_method"].items()),
        f"failed_frac {result['failed'] / result['attempted']:.4f} "
        f"({result['failed']} of {result['attempted']} runs)",
        f"outputs sha256 {summary['outputs_sha256']}",
    ]
    lines += [f"problem: {p}" for p in summary["problems"]]
    lines += [f"{name:28s} {m['value']:.6g} {m['unit']}" for name, m in result["metrics"].items()]
    return lines


# ---------------------------------------------------------------------------
# every workload, each in its own process


def run_all(args) -> int:
    table = {}
    ok = True
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seed-list", args.seed_list,
                   "--seconds", str(args.seconds), "--trace", str(trace),
                   "--work-dir", str(Path(args.work_dir).resolve())]
            if args.smoke:
                cmd.append("--smoke")
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode or 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok &= result["correct"]
            table.setdefault(name, {"failed_frac": (result["failed"] / result["attempted"], "")})
            table[name].update({k: (m["value"], m["unit"]) for k, m in result["metrics"].items()})
    names = list(table)
    print(f"{'metric':28s} " + " ".join(f"{n:>18s}" for n in names))
    for metric in next(iter(table.values())):
        unit = next(table[n][metric][1] for n in names)
        cells = " ".join(f"{table[n][metric][0]:18.6g}" for n in names)
        print(f"{metric:28s} {cells} {unit}")
    print(json.dumps({"correct": ok, "workloads": {n: {k: v[0] for k, v in t.items()}
                                                   for n, t in table.items()}}))
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0,
                        help="benchmark seed; the program seeds are drawn from it")
    parser.add_argument("--seed-list", default="dev", choices=sorted(SEED_LISTS),
                        help="dev while writing a change, heldout to confirm it")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="upper bound on the measured time, in whole passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny schedules and one set-up, for the self-test")
    parser.add_argument("--work-dir", default=str(BENCH_DIR / ".work"))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    summary, result = run_workload(args)
    for line in describe(summary, result):
        print(line, file=sys.stdout)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
