"""helo benchmark: one workload, one seed, one JSON result line.

Run from the root of a checkout (nothing to build: helo is imported from
``src/``):

  python3 perfbench/run.py --workload train_dmer --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics of BENCHMARK.json with no
instrumentation besides the step clock.  ``--trace 1`` runs the session
once untraced and once traced with the same work, and reports the
per-layer metrics of BENCHMARK.json, among them ``trace.overhead_ratio``
(traced over untraced wall time).  ``--size tiny`` is for the benchmark's
own tests.  The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``; the line before it and
``.bench_out/<run>.json`` hold the machine facts, work counts and any
failed checks.  Spans of a traced run go to ``.bench_out/<run>.spans.csv.gz``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
THREAD_ENV = ("HELO_THREADS", "OPENBLAS_NUM_THREADS")
EVAL_THREADS = "1"


def machine_facts(env_seen: dict) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cap = re.search(r"MAX_THREADS=(\d+)", blas.get("openblas configuration", ""))
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "max_threads": int(cap.group(1)) if cap else None,
        },
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "env": env_seen,
    }


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
        capture_output=True,
        text=True,
        timeout=30,
    )
    return done.stdout.strip() or None


def _source_digest() -> str:
    """Identifies the measured code where there is no git metadata."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _select(wanted: list[dict], measured: dict) -> dict:
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    return {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}


def run(args) -> tuple[dict, dict]:
    """Returns (result line, report)."""
    from session import SIZES, WORKLOADS, Tally, run_session
    from tracing import Tracer

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload]
    size = SIZES[args.size]
    if args.trace:
        # Layer numbers need no medians: both sessions of a traced run save,
        # load and evaluate twice, which keeps the run far inside 180 s.
        size = dataclasses.replace(size, rounds=2, rounds_s=0.0)
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}"
    workdir = OUT / f"{label}.tmp{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds}
    try:
        plain = run_session(workload, args.seed, args.seconds, size, workdir, tally)
        report["counts"] = plain.counts
        report["phase_s"] = plain.phase_s
        report["round_s"] = plain.round_s
        report["end_to_end"] = plain.metrics
        if args.trace:
            with Tracer() as tracer:
                traced = run_session(workload, args.seed, args.seconds, size, workdir, tally)
            tally.check("every wrapped function restored", not tracer.unrestored)
            layers = tracer.summary()
            layers["trace.overhead_ratio"] = traced.wall_s / plain.wall_s
            report["per_layer"] = layers
            tracer.write_spans(OUT / f"{label}.spans.csv.gz")
            measured, wanted = layers, spec["per_layer"]
        else:
            measured, wanted = plain.metrics, spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report["failed_checks"] = tally.failures
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": _select(wanted, measured),
    }
    return result, report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "helo" / "__init__.py").is_file():
        print(f"perfbench: no helo sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from session import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}")
    env_seen = {k: os.environ.get(k) for k in THREAD_ENV}
    # evaluate_model runs on one thread.  Its default pool of os.cpu_count()
    # threads, on 2 vCPUs of a shared host, is both slower than one thread and
    # 1.3-1.8x slower in some minutes than in others, while one thread keeps
    # within a few percent; the benchmark measures the program, not the host.
    os.environ["HELO_THREADS"] = EVAL_THREADS

    result, report = run(args)
    report["machine"] = machine_facts(env_seen)
    report["machine"]["helo_threads_used"] = EVAL_THREADS
    report["result"] = result
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}.json"
    (OUT / name).write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps({k: v for k, v in report.items() if k != "result"}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
