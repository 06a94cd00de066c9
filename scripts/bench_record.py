"""Write a speed record, ``BENCH_<label>.json``, for one source tree.

    python3 scripts/bench_record.py --label head
    python3 scripts/bench_record.py --label parent --tree ../parent-checkout

The file goes to the root of this checkout, whichever tree is measured.
The record holds the machine (CPU model, usable cores, Python, numpy, BLAS
and its thread count), four end-to-end wall times of the tree (``train-source``
with the default config; the headline ``adapt``: source, bn_adapt, tent,
cotta and petal_fim on seeds 0-4 of the default stream; the same ``adapt``
with the BLAS thread variables unset, which must write the same bytes; and
the tier-1 suite), the per-method step p50/p90 of one
``perfbench/run.py --seconds 20 --trace 0`` run of each workload in the
tree's ``BENCHMARK.json``, read from that run's ``result.json``, and the
SHA-256 of every file the headline commands write. Every command runs in a
fresh process with the tree's ``src`` on PYTHONPATH and, but for the unpinned
``adapt``, BLAS on one thread, one after another, so run nothing else
meanwhile.
Two records compare only when made on the same machine.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HEADLINE_METHODS = "source,bn_adapt,tent,cotta,petal_fim"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PERFBENCH_SECONDS = 20


def timed(cmd: list[str], cwd: Path, env: dict) -> tuple[float, str]:
    """Wall seconds and standard output of ``cmd``, which must succeed."""
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True)
    seconds = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"error: {' '.join(cmd)} exited {proc.returncode}:\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return seconds, proc.stdout


def cpu_model() -> str | None:
    try:
        text = Path("/proc/cpuinfo").read_text(encoding="utf-8")
    except OSError:
        return platform.processor() or None
    found = re.search(r"^model name\s*:\s*(.+)$", text, re.MULTILINE)
    return found.group(1).strip() if found else None


def commit(tree: Path) -> dict:
    """The tree's git commit, and whether its files differ from it (None outside git)."""
    head = subprocess.run(["git", "-C", str(tree), "rev-parse", "HEAD"], capture_output=True, text=True)
    if head.returncode != 0:
        return {"commit": None, "uncommitted_changes": None}
    status = subprocess.run(["git", "-C", str(tree), "status", "--porcelain"], capture_output=True, text=True)
    return {"commit": head.stdout.strip(), "uncommitted_changes": bool(status.stdout.strip())}


def digests(work: Path) -> dict:
    """The SHA-256 of every file under ``work/runs``, keyed by its path from ``work``."""
    return {
        path.relative_to(work).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted((work / "runs").rglob("*"))
        if path.is_file()
    }


def record(tree: Path, work: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), **{var: "1" for var in BLAS_THREAD_VARS})
    program = [sys.executable, "-m", "lifelong_tta"]
    headline = program + ["adapt", "--out", "runs", "--method", HEADLINE_METHODS, "--seeds", "0,1,2,3,4"]
    # relative --out, so report.json records the same out_dir under any work directory
    train_s, _ = timed(program + ["train-source", "--out", "runs"], work, env)
    # the headline adapt runs twice on train-source's outputs: BLAS pinned, then with the BLAS thread variables unset
    unpinned = work / "unpinned"
    shutil.copytree(work / "runs", unpinned / "runs")
    adapt_s, _ = timed(headline, work, env)
    outputs = digests(work)
    unpinned_env = {var: value for var, value in env.items() if var not in BLAS_THREAD_VARS}
    unpinned_s, _ = timed(headline, unpinned, unpinned_env)
    if digests(unpinned) != outputs:
        raise SystemExit("error: the headline adapt with BLAS unpinned wrote other bytes than with BLAS pinned")
    suite_s, suite_out = timed([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"], tree, env)
    suite_line = suite_out.strip().splitlines()[-1]

    workloads = {}
    environment = None
    for spec in json.loads((tree / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]:
        name = spec["name"]
        bench = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", name, "--seconds", str(PERFBENCH_SECONDS),
                 "--trace", "0", "--work-dir", str(work / "perfbench")]
        wall_s, _ = timed(bench, tree, env)
        result = json.loads((work / "perfbench" / name / "result.json").read_text(encoding="utf-8"))
        summary = result["summary"]
        environment = environment or summary["environment"]
        workloads[name] = {
            "steps_ms": {method: {"p50": s["p50"], "p90": s["p90"], "samples": s["samples"]}
                         for method, s in summary["steps_by_method"].items()},
            "end_to_end": {metric: m["value"] for metric, m in result["result"]["metrics"].items()},
            "passes": summary["passes"],
            "outputs_sha256": summary["outputs_sha256"],
            "wall_s": wall_s,
        }
    return {
        **commit(tree),
        "made": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "machine": {
            "cpu_model": cpu_model(),
            "usable_cores": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": environment["numpy"],
            "blas": environment["blas"],
            "blas_threads": environment["blas_threads"],
        },
        "wall_s": {"train_source": train_s, "headline_adapt": adapt_s, "headline_adapt_blas_unpinned": unpinned_s,
                   "tier1_suite": suite_s},
        "tier1_result": suite_line,
        "headline": {"methods": HEADLINE_METHODS.split(","), "seeds": [0, 1, 2, 3, 4], "stream": "continual5"},
        "perfbench": {"seconds": PERFBENCH_SECONDS, "trace": 0, "workloads": workloads},
        "headline_outputs_sha256": outputs,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="the record is written to BENCH_<label>.json")
    parser.add_argument("--tree", default=str(ROOT), help="the source tree to measure (default: this checkout)")
    args = parser.parse_args(argv)
    if not re.fullmatch(r"[A-Za-z0-9_.-]+", args.label):
        parser.error("--label takes letters, digits, '.', '_' and '-' only")
    work = Path(tempfile.mkdtemp(prefix="bench_record_"))
    try:
        doc = record(Path(args.tree).resolve(), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    doc = {"label": args.label, **doc}
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
