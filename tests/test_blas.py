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


LINUX = pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs Linux /proc")

# a fresh interpreter that imports weakdrive, idles 300 ms and prints the
# OpenBLAS thread count and the CPU its other threads (the pool) used, ms
IDLE_SCRIPT = """
import os, time
from weakdrive import blas
time.sleep(0.3)
ticks = 0
for tid in os.listdir("/proc/self/task"):
    if tid != str(os.getpid()):
        with open(f"/proc/self/task/{tid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        ticks += int(fields[11]) + int(fields[12])  # utime, stime
print(blas.threads(), 1e3 * ticks / os.sysconf("SC_CLK_TCK"))
"""


def _fresh(script, **env):
    base = {k: v for k, v in os.environ.items() if k != blas.TIMEOUT_ENV}
    run = subprocess.run([sys.executable, "-c", script], env=dict(base, PYTHONPATH=SRC, **env),
                         check=True, capture_output=True, text=True, timeout=60)
    return run.stdout.split()


@LINUX
def test_idle_pool_does_not_spin_after_import():
    # at OpenBLAS's default timeout the pool thread spins 90-130 ms of CPU
    # after numpy's import; weakdrive sets it before numpy loads OpenBLAS
    threads, pool_ms = _fresh(IDLE_SCRIPT, OPENBLAS_NUM_THREADS="2")
    if threads == "None":
        pytest.skip("no OpenBLAS found")
    assert float(pool_ms) < 40.0


@LINUX
@pytest.mark.parametrize("env, expected", [({}, blas.IDLE_TIMEOUT), ({blas.TIMEOUT_ENV: "25"}, "25")])
def test_a_callers_idle_timeout_wins(env, expected):
    script = "import os, weakdrive; print(os.environ.get('OPENBLAS_THREAD_TIMEOUT'))"
    assert _fresh(script, **env) == [expected]
