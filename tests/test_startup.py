"""Import hygiene: scipy.linalg and numpy.ma stay out of ordinary runs.

scipy.linalg costs ~0.3 s to import and only the Schur fallback of the pair
solve uses it; numpy.ma is pulled in by np.unique. Each check runs in a
fresh interpreter, because this test process has long since imported both.
"""

import json
import os
import subprocess
import sys

import weakdrive

SRC = os.path.dirname(os.path.dirname(os.path.abspath(weakdrive.__file__)))
TESTS = os.path.dirname(os.path.abspath(__file__))

CONFIG = {
    "geometry": {
        "mode": "explicit",
        "positions": [[0, 0, 0], [1.0, 0, 0], [0, 0.8, 0.3], [0.5, 0.5, 1.2]],
    },
    "dipole": [0, 0, 1],
    "beam": {"direction": [0, 1, 0]},
    "delta": 0.1,
    "partition": {"A": [0, 1], "B": [2, 3]},
    "seed": 7,
}

CLI_SCRIPT = """
import sys
import weakdrive, weakdrive.cli

def loaded():
    return {m: m in sys.modules for m in ("scipy", "scipy.linalg", "numpy.ma")}

print(loaded())
for task, cfg, out in zip(sys.argv[1::3], sys.argv[2::3], sys.argv[3::3]):
    assert weakdrive.cli.main([task, "--config", cfg, "--out", out]) == 0
    print(loaded())
"""

SCHUR_SCRIPT = """
import sys
import numpy as np
from test_perturbation import _defective_coupling
from weakdrive import perturbation
from weakdrive.errors import ResonantSingularityError

assert "scipy.linalg" not in sys.modules
coupling = _defective_coupling()
try:
    perturbation.eigenbasis(coupling, 0.3)
except ResonantSingularityError as exc:
    assert exc.cond > perturbation.EIG_COND_GUARD
else:
    raise AssertionError("eigenbasis accepted the defective coupling")
u = perturbation.solve_u(coupling, 0.3, np.exp(1j * np.arange(6)))
v = perturbation.solve_v(coupling, 0.3, u)
r = perturbation.pair_rhs(coupling, u) - perturbation.pair_map_apply(coupling, 0.3, v)
assert np.max(np.abs(r)) <= perturbation.RESIDUAL_TOL
assert "scipy.linalg" in sys.modules
"""


def _run(script, *args, path=SRC):
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_runs_leave_scipy_linalg_and_numpy_ma_unloaded(tmp_path):
    args = []
    for task, extra in (
        ("solve", {"eta": 0.05}),
        ("sweep", {"eta_sweep": {"min": 0.01, "max": 0.5, "points": 8}}),
    ):
        cfg = tmp_path / f"{task}.json"
        cfg.write_text(json.dumps({**CONFIG, **extra}))
        args += [task, str(cfg), str(tmp_path / task)]
    lines = [ln for ln in _run(CLI_SCRIPT, *args).splitlines() if ln.startswith("{")]
    assert len(lines) == 3  # after the import, after solve, after sweep
    for line in lines:
        assert line == "{'scipy': True, 'scipy.linalg': False, 'numpy.ma': False}"


def test_schur_fallback_loads_scipy_linalg_on_first_use():
    _run(SCHUR_SCRIPT, path=os.pathsep.join([SRC, TESTS]))
