"""The benchmark's own tests, on the smoke variants of each workload.

    python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys
import types

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
from spans import Recorder  # noqa: E402
from workloads import MIN_DISTANCE, WORKLOADS  # noqa: E402

SMOKE = [name for name in WORKLOADS if name.endswith("-smoke")]


def _bench(workload, trace, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


def _declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", SMOKE)
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    proc = _bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = _declared("per_layer" if trace else "end_to_end")
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == declared
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def _solve_outputs(tmp_path, name):
    import weakdrive.cli

    w = WORKLOADS[name]
    pos = w.positions(5)
    cfg = w.config(pos)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert weakdrive.cli.main([w.task, "--config", str(path), "--out", str(out)]) == 0
    return w, pos, cfg, out


def _failed(w, pos, cfg, out, first_report=None):
    found = run.check_run(w, pos, cfg, str(out), None, first_report)
    return run.failed_points(w, found)


@pytest.mark.parametrize(
    "name, table",
    [("solve-embedded-dense-smoke", "v.csv"), ("sweep-halves-smoke", "sweep.csv"),
     ("oracle-n5-smoke", "oracle.csv")],
)
def test_corrupted_output_is_counted_as_failure(tmp_path, name, table):
    w, pos, cfg, out = _solve_outputs(tmp_path, name)
    assert _failed(w, pos, cfg, out) == 0
    lines = (out / table).read_text().splitlines()
    fields = lines[-1].split(",")
    fields[-1] = repr(float(fields[-1]) * (1 + 1e-9) + 1e-9)
    lines[-1] = ",".join(fields)
    (out / table).write_text("\n".join(lines) + "\n")
    assert _failed(w, pos, cfg, out) >= 1


def test_changed_report_is_counted_as_failure(tmp_path):
    w, pos, cfg, out = _solve_outputs(tmp_path, "solve-embedded-dense-smoke")
    first = (out / "report.json").read_bytes()
    (out / "report.json").write_bytes(first.replace(b"\n", b"\n ", 1))
    assert _failed(w, pos, cfg, out, first) == 1


def test_missing_names_are_recorded_as_absent():
    def task(cfg, parallelism=1):
        return "done"

    runner = types.SimpleNamespace(TASK_RUNNERS={"solve": task}, steady_state=lambda: None)
    rec = Recorder()
    rec.install({"runner": runner, "cli": types.SimpleNamespace()}, "solve")
    assert "runner.coupling_matrix" in rec.absent
    assert "perturbation.solve_v" in rec.absent
    assert "runner.steady_state" not in rec.absent
    assert runner.TASK_RUNNERS["solve"](None) == "done"
    assert rec.totals()["runner.task"] >= 0.0


def test_positions_follow_the_seed():
    for w in WORKLOADS.values():
        a, b = w.positions(7), w.positions(7)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, w.positions(8))
        d = np.linalg.norm(a[:, None] - a[None, :], axis=-1)[np.triu_indices(w.n, 1)]
        assert d.min() >= MIN_DISTANCE - 1e-12


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(SMOKE[0], 0, cwd=tmp_path, script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
