"""Closed-loop benchmark of the weakdrive CLI tasks.

One client runs one task invocation at a time, at ``--parallel 1``, each in
a fresh worker process, until ``--seconds`` have passed (at least two
invocations, so ``report.json`` can be compared byte for byte).  Every
invocation's outputs are checked; see ``checks.py``.

    python3 perfbench/run.py --workload sweep-halves --seed 0 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` alternates
untraced and traced invocations and prints the per-layer metrics.  The
last line of standard output is the result object; the line before it
records the workload, the environment and the problems found.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

from checks import check_outputs  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 5
MIN_INVOCATIONS = 2
# a run must end within 180 s; workers still running at this point are
# killed, and no invocation starts that would likely end after it
RUN_LIMIT_S = 160.0

END_TO_END = {"task_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "config.parse_s": "s",
    "geometry.build_s": "s",
    "coupling.build_s": "s",
    "perturbation.solve_u_s": "s",
    "perturbation.solve_v_s": "s",
    "perturbation.pair_matvecs": "count",
    "perturbation.pair_dim": "count",
    "perturbation.rss_growth_mb": "MB",
    "negativity.pt_build_s": "s",
    "negativity.pt_eig_s": "s",
    "negativity.pt_calls": "count",
    "negativity.pt_dim": "count",
    "negativity.modes_s": "s",
    "negativity.report_s": "s",
    "exact.liouvillian_s": "s",
    "exact.steady_state_s": "s",
    "exact.negativity_s": "s",
    "exact.calls": "count",
    "runner.self_s": "s",
    "runner.points": "count",
    "reporting.write_s": "s",
    "reporting.bytes": "bytes",
    "trace.task_s": "s",
    "trace.overhead_s": "s",
    "trace.absent_names": "count",
    "error_rate": "ratio",
}


def _worker_env() -> dict:
    """Worker environment: the machine's default BLAS thread count, fixed
    explicitly so an inherited setting cannot change results in the last
    digits."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    threads = str(len(os.sched_getaffinity(0)))
    env["OPENBLAS_NUM_THREADS"] = threads
    env["OMP_NUM_THREADS"] = threads
    return env


def _invoke(workdir: str, tag: str, task: str, cfg_path: str, env: dict, deadline: float,
            setup_only: bool = False, trace: bool = False) -> dict:
    out = os.path.join(workdir, tag)
    result_path = out + ".json"
    cmd = [sys.executable, WORKER, "--src", SRC, "--task", task, "--config", cfg_path,
           "--out", out, "--result", result_path]
    if setup_only:
        cmd.append("--setup-only")
    if trace:
        cmd.append("--trace")
    spawned = time.monotonic()
    cmd += ["--spawned", repr(spawned)]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(deadline - spawned, 0.1))
    except subprocess.TimeoutExpired:
        return {"out": out, "error": f"worker killed at the run's {RUN_LIMIT_S:g} s limit"}
    if proc.returncode != 0 or not os.path.exists(result_path):
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"out": out, "error": f"worker exit {proc.returncode}: {' | '.join(tail)}"}
    with open(result_path) as fh:
        rec = json.load(fh)
    rec["out"] = out
    if rec.get("rc", 0) != 0:
        rec["error"] = f"weakdrive exit code {rec['rc']}: {proc.stderr.strip()[-300:]}"
    return rec


def check_run(workload, positions, cfg: dict, outdir: str, reference,
              first_report: Optional[bytes] = None) -> list:
    """Output problems of one invocation, including a ``report.json`` that
    differs from the run's first one."""
    found = check_outputs(workload, positions, cfg, outdir, reference)
    if first_report is not None:
        with open(os.path.join(outdir, "report.json"), "rb") as fh:
            if fh.read() != first_report:
                found.append((None, "report.json differs from the first invocation's"))
    return found


def failed_points(workload, found: list) -> int:
    """Failed operations: every point when the whole invocation failed."""
    if any(point is None for point, _ in found):
        return workload.points
    return len({point for point, _ in found})


def _load_reference(name: str, seed: int):
    with open(os.path.join(HERE, "reference.json")) as fh:
        ref = json.load(fh).get(name)
    return ref["rows"] if ref and ref["seed"] == seed else None


def _environment(records: list) -> dict:
    commit = ""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "weakdrive", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(fh.read())
    measured = next((r for r in records if "blas" in r), {})
    return {
        "git_commit": commit or None,
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": measured.get("numpy"),
        "scipy": measured.get("scipy"),
        "blas": measured.get("blas"),
        "OPENBLAS_NUM_THREADS": _worker_env()["OPENBLAS_NUM_THREADS"],
    }


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(p) for p in glob.glob(os.path.join(path, "*")))


def _layer_metrics(traced: list, untraced: list, error_rate: float) -> dict:
    def med(values):
        return statistics.median(values) if values else 0.0

    def span(name):
        return med([r["trace"]["spans"].get(name, 0.0) for r in traced])

    def count(name):
        return med([r["trace"]["counts"].get(name, 0) for r in traced])

    def field(name):
        return med([r["trace"][name] for r in traced])

    out = {name: span(name) for name, unit in PER_LAYER.items() if unit == "s"}
    out.update({
        "perturbation.pair_matvecs": count("perturbation.pair_matvecs"),
        "perturbation.pair_dim": field("pair_dim"),
        "perturbation.rss_growth_mb": field("rss_growth_mb"),
        "negativity.pt_calls": count("negativity.pt_calls"),
        "negativity.pt_dim": field("pt_dim"),
        "exact.calls": count("exact.calls"),
        "runner.self_s": field("runner_self_s"),
        "runner.points": med([r["points"] for r in traced]),
        "reporting.bytes": med([r["bytes"] for r in traced]),
        "trace.task_s": med([r["task_s"] for r in traced]),
        "trace.overhead_s": med([r["task_s"] for r in traced]) - med([r["task_s"] for r in untraced]),
        "trace.absent_names": field("absent_count"),
        "error_rate": error_rate,
    })
    return out


def _layer_split(metrics: dict) -> dict:
    task = metrics["trace.task_s"] or 1.0
    exact = sum(metrics[k] for k in ("exact.liouvillian_s", "exact.steady_state_s", "exact.negativity_s"))
    return {
        "perturbation.solve_v": metrics["perturbation.solve_v_s"] / task,
        "negativity.pt_eig": metrics["negativity.pt_eig_s"] / task,
        "exact": exact / task,
    }


def run(workload, seed: int, seconds: float, trace: bool) -> int:
    positions = workload.positions(seed)
    cfg = workload.config(positions)
    reference = _load_reference(workload.name, seed)
    env = _worker_env()
    deadline = time.monotonic() + RUN_LIMIT_S
    workdir = os.path.join(ROOT, ".perfbench", f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        cfg_path = os.path.join(workdir, "config.json")
        with open(cfg_path, "w") as fh:
            json.dump(cfg, fh)

        setup = []
        for k in range(SETUP_PROBES):
            rec = _invoke(workdir, f"setup-{k}", workload.task, cfg_path, env, deadline,
                          setup_only=True)
            if "error" in rec:
                print(rec["error"], file=sys.stderr)
                return 1
            setup.append(rec["setup_s"])

        records, problems = [], []
        attempted = failed = 0
        first_report = None
        start = time.monotonic()
        while len(records) < MIN_INVOCATIONS or time.monotonic() - start < seconds:
            k = len(records)
            traced = trace and k % 2 == 1
            t0 = time.monotonic()
            rec = _invoke(workdir, f"inv-{k}", workload.task, cfg_path, env, deadline, trace=traced)
            rec["traced"] = traced
            records.append(rec)
            if "error" in rec:
                found = [(None, rec["error"])]
            else:
                with open(os.path.join(rec["out"], "report.json"), "rb") as fh:
                    report = fh.read()
                first_report = first_report or report
                found = check_run(workload, positions, cfg, rec["out"], reference, first_report)
                rec["bytes"] = _dir_bytes(rec["out"])
                rec["points"] = workload.points - len(json.loads(report).get("point_errors", []))
                if "trace" in rec:
                    rec["trace"]["absent_count"] = len(rec["trace"]["absent"])
            attempted += workload.points
            failed += failed_points(workload, found)
            problems += [f"invocation {k}: {msg}" for _, msg in found]
            shutil.rmtree(rec["out"], ignore_errors=True)
            now = time.monotonic()
            if now + (now - t0) > deadline:
                break

        measured = [r for r in records if "task_s" in r]
        untraced = [r for r in measured if not r["traced"]]
        traced_ok = [r for r in measured if r["traced"] and "trace" in r and "bytes" in r]
        if not untraced or (trace and not traced_ok):
            print("no invocation produced measurements: " + "; ".join(problems[:3]), file=sys.stderr)
            return 1
        setup += [r["setup_s"] for r in measured]
        error_rate = failed / attempted

        info = {
            "workload": workload.name,
            "task": workload.task,
            "seed": seed,
            "n": workload.n,
            "pair_dim": workload.pair_dim,
            "pt_dim": workload.pt_dim,
            "points": workload.points,
            "samples": {"task": len(untraced), "traced": len(traced_ok), "setup": len(setup)},
            "task_s_samples": [r["task_s"] for r in untraced],
            "peak_rss_mb_samples": [r["peak_rss_mb"] for r in untraced],
            "environment": _environment(measured),
            "problems": problems[:20],
        }
        if trace:
            metrics = _layer_metrics(traced_ok, untraced, error_rate)
            info["layer_split"] = _layer_split(metrics)
            info["absent"] = sorted({a for r in traced_ok for a in r["trace"]["absent"]})
            units = PER_LAYER
        else:
            metrics = {
                "task_s": statistics.median(r["task_s"] for r in untraced),
                "cpu_s": statistics.median(r["cpu_s"] for r in untraced),
                "setup_s": statistics.median(setup),
                "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
            }
            units = END_TO_END
        print(json.dumps(info))
        print(json.dumps({
            "correct": failed == 0 and not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # turn SIGTERM into SystemExit, so the running worker is killed and
    # waited for, and the scratch directory removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(SRC, "weakdrive", "__init__.py")):
        print(f"no weakdrive package under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    return run(workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
