"""The CLI's one-thread OpenBLAS policy (weakdrive.blas)."""

import json
import os
import subprocess
import sys

import pytest

import weakdrive
from weakdrive import blas, cli

SRC = os.path.dirname(os.path.dirname(os.path.abspath(weakdrive.__file__)))

CONFIG = {
    "geometry": {"mode": "explicit", "positions": [[0, 0, 0], [1.0, 0, 0], [0, 0.8, 0.3]]},
    "dipole": [0, 0, 1],
    "beam": {"direction": [0, 1, 0]},
    "delta": 0.1,
    "eta": 0.05,
    "partition": {"A": [0], "B": [1, 2]},
}


def _solve(tmp_path, name="out"):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(CONFIG))
    out = tmp_path / name
    assert cli.main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    return json.loads((out / "report.json").read_text())["provenance"]


def test_outputs_do_not_depend_on_the_inherited_thread_count(tmp_path):
    # at 160 atoms eig and inv of the pair solve round differently at one
    # and at two OpenBLAS threads; the CLI runs one either way
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        **CONFIG,
        "geometry": {"mode": "random", "count": 160, "box": 20.0, "min_distance": 0.5},
        "seed": 3,
        "delta": 0.3,
        "partition": {"A": [0, 1, 2, 3, 4], "B": [5, 6, 7, 8, 9]},
    }))
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}"
        env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS=threads)
        subprocess.run(
            [sys.executable, "-m", "weakdrive.cli", "solve", "--config", str(cfg),
             "--out", str(out)],
            env=env, check=True, capture_output=True, timeout=300,
        )
        outs.append(out)
    names = sorted(os.listdir(outs[0]))
    assert names == sorted(os.listdir(outs[1])) == ["curve.csv", "report.json", "u.csv", "v.csv"]
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
    recorded = json.loads((outs[0] / "report.json").read_text())["provenance"]["blas_threads"]
    assert recorded == (None if blas.threads() is None else 1)


@pytest.mark.parametrize("env", ["3", None])
def test_cli_restores_the_callers_threads_and_environment(tmp_path, monkeypatch, env):
    libs = blas._libraries()
    if not libs:
        pytest.skip("no OpenBLAS found in this process")
    if env is None:
        monkeypatch.delenv(blas.ENV, raising=False)
    else:
        monkeypatch.setenv(blas.ENV, env)
    before = [get_n() for get_n, _ in libs]
    try:
        for _, set_n in libs:
            set_n(2)
        assert _solve(tmp_path)["blas_threads"] == 1
        assert cli.main(["solve"]) == cli.EXIT_CONFIG  # no config: an early return
        assert [get_n() for get_n, _ in libs] == [2] * len(libs)
        assert os.environ.get(blas.ENV) == env
    finally:
        for (_, set_n), n in zip(libs, before):
            set_n(n)


def test_run_without_openblas_records_null(tmp_path, monkeypatch):
    monkeypatch.setattr(blas, "_MODULES", ())
    monkeypatch.delenv(blas.ENV, raising=False)
    assert blas.threads() is None
    assert _solve(tmp_path)["blas_threads"] is None
    assert blas.ENV not in os.environ
