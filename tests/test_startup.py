"""Import hygiene: scipy.linalg, numpy.ma, OpenSSL and the validate
checks stay out of ordinary runs.

scipy.linalg costs ~0.3 s to import and only exact.propagate_truncated
uses it; numpy.ma is pulled in by np.unique. hashlib's _hashlib maps
OpenSSL's libcrypto (3.3 MB resident), and config_hash takes the
interpreter's built-in sha256 instead; weakdrive.checks is used by the
validate task alone. Each check runs in a fresh interpreter, because this
test process has long since imported all of them.
"""

import hashlib
import json
import os
import subprocess
import sys

import weakdrive
from weakdrive.reporting import config_hash

SRC = os.path.dirname(os.path.dirname(os.path.abspath(weakdrive.__file__)))

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

FARFIELD = {"k0_distance": 1e7, "theta": 1.0, "n_a": 10, "n_b": 10,
            "omega_over_gamma": 0.1, "mean_spacing": 1.0}

CLI_SCRIPT = """
import sys
import weakdrive, weakdrive.cli

def loaded():
    return {m: m in sys.modules for m in sys.argv[1].split(",")}

print(loaded())
for task, cfg, out in zip(sys.argv[2::3], sys.argv[3::3], sys.argv[4::3]):
    assert weakdrive.cli.main([task, "--config", cfg, "--out", out]) == 0
    print(loaded())
"""

def _run(script, *args, path=SRC):
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _loaded_after(tmp_path, modules, runs):
    """Whether each module is loaded after importing weakdrive.cli and after
    each (task, config) run, in one fresh interpreter: one line a stage."""
    args = [",".join(modules)]
    for task, config in runs:
        cfg = tmp_path / f"{task}.json"
        cfg.write_text(json.dumps(config))
        args += [task, str(cfg), str(tmp_path / task)]
    lines = [ln for ln in _run(CLI_SCRIPT, *args).splitlines() if ln.startswith("{")]
    assert len(lines) == 1 + len(runs)
    return lines


def test_cli_runs_leave_scipy_linalg_and_numpy_ma_unloaded(tmp_path):
    runs = [
        ("solve", {**CONFIG, "eta": 0.05}),
        ("sweep", {**CONFIG, "eta_sweep": {"min": 0.01, "max": 0.5, "points": 8}}),
    ]
    for line in _loaded_after(tmp_path, ("scipy", "scipy.linalg", "numpy.ma"), runs):
        assert line == "{'scipy': True, 'scipy.linalg': False, 'numpy.ma': False}"


def test_cli_runs_leave_openssl_and_checks_unloaded(tmp_path):
    grid = {"eta_sweep": {"min": 0.01, "max": 0.1, "points": 4}}
    runs = [
        ("solve", {**CONFIG, "eta": 0.05}),
        ("sweep", {**CONFIG, **grid}),
        ("oracle-compare", {**CONFIG, **grid}),
        ("bounds", {"farfield": FARFIELD}),
    ]
    for line in _loaded_after(tmp_path, ("_hashlib", "weakdrive.checks"), runs):
        assert line == "{'_hashlib': False, 'weakdrive.checks': False}"


def test_validate_loads_checks(tmp_path):
    lines = _loaded_after(tmp_path, ("weakdrive.checks",), [("validate", {"seed": 0})])
    assert lines == ["{'weakdrive.checks': False}", "{'weakdrive.checks': True}"]


def test_config_hash_is_sha256_of_the_canonical_json():
    canonical = json.dumps(CONFIG, sort_keys=True, separators=(",", ":")).encode()
    assert config_hash(CONFIG) == hashlib.sha256(canonical).hexdigest()
    assert config_hash(CONFIG) == (
        "1d443e77df776a96216c5aca7819df0ccac93b1172734819a1280120d5aab26a"
    )

