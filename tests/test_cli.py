import json
import re
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from weakdrive import checks, cli, coupling, negativity, perturbation
from weakdrive.checks import run_checks
from weakdrive.config import parse_config
from weakdrive.coupling import coupling_matrix
from weakdrive.errors import ConfigError
from weakdrive.exact import N_CAP
from weakdrive.geometry import Drive, Ensemble, PlaneWave, random_ensemble
from weakdrive.perturbation import steady_state
from weakdrive.reporting import CHUNK_ROWS, config_hash, fmt_value
from weakdrive.runner import ResultBundle, run_solve, run_validate

PAIR_CONFIG = {
    "geometry": {"mode": "explicit", "positions": [[0, 0, 0], [1.0, 0, 0]]},
    "dipole": [0, 0, 1],
    "beam": {"direction": [0, 1, 0]},
    "delta": 0.0,
    "eta": 0.05,
    "partition": {"A": [0], "B": [1]},
    "seed": 7,
}


def _write(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_solve_matches_closed_form(tmp_path, capsys):
    cfg = _write(tmp_path, PAIR_CONFIG)
    out = tmp_path / "out"
    assert cli.main(["solve", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    ens = Ensemble(PAIR_CONFIG["geometry"]["positions"], [0, 0, 1])
    drive = Drive(delta=0.0, eta=0.05, beam=PlaneWave(np.array([0.0, 1.0, 0.0])))
    state = steady_state(coupling_matrix(ens), drive, ens)
    z12 = coupling_matrix(ens)[0, 1]
    v_closed = -2.0 * z12 / (0.5 + z12) ** 2
    expected = drive.eta**2 * abs(v_closed)
    assert report["negativity"]["negativity2"] == pytest.approx(expected, rel=1e-12)
    assert "provenance" in report
    assert (out / "u.csv").exists() and (out / "v.csv").exists()


def test_solve_optional_coupling_dump(tmp_path):
    config = dict(PAIR_CONFIG)
    config["dump_coupling"] = True
    cfg = _write(tmp_path, config)
    out = tmp_path / "out"
    assert cli.main(["solve", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "z.csv").read_text().strip().splitlines()
    assert lines[0] == "mu,nu,re,im"
    assert len(lines) == 1 + 4  # full 2 x 2 table
    assert (out / "curve.csv").read_text().startswith("eta,N_model")


def test_seed_flag_overrides_config(tmp_path):
    config = {
        "geometry": {"mode": "random", "count": 3, "box": 30.0, "min_distance": 1.0},
        "dipole": [0, 0, 1],
        "beam": {"direction": [0, 1, 0]},
        "delta": 0.0,
        "eta": 0.05,
        "partition": {"A": [0], "B": [1, 2]},
        "seed": 1,
    }
    cfg = _write(tmp_path, config)
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert cli.main(["solve", "--config", cfg, "--out", str(out1)]) == 0
    assert cli.main(["solve", "--config", cfg, "--out", str(out2), "--seed", "2"]) == 0
    rep1 = json.loads((out1 / "report.json").read_text())
    rep2 = json.loads((out2 / "report.json").read_text())
    assert rep1["provenance"]["seed"] == 1
    assert rep2["provenance"]["seed"] == 2
    assert (out1 / "u.csv").read_text() != (out2 / "u.csv").read_text()


def test_sweep_exact_with_embedded_partition(tmp_path):
    # exact column must trace out the third atom before transposing
    config = {
        "geometry": {
            "mode": "explicit",
            "positions": [[0, 0, 0], [1.2, 0, 0], [0, 1.5, 0]],
        },
        "dipole": [0, 0, 1],
        "beam": {"direction": [0, 1, 0]},
        "delta": 0.0,
        "eta_sweep": {"min": 0.01, "max": 0.02, "points": 2},
        "partition": {"A": [0], "B": [1]},
        "seed": 1,
        "exact": True,
    }
    cfg = _write(tmp_path, config)
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "sweep.csv").read_text().strip().splitlines()[1:]
    for row in rows:
        eta, n_model, n_pt, n_exact = map(float, row.split(","))
        assert abs(n_exact - n_pt) <= 20.0 * eta**3


def test_rerun_is_bit_identical(tmp_path):
    cfg = _write(tmp_path, PAIR_CONFIG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["solve", "--config", cfg, "--out", str(out1)]) == 0
    assert cli.main(["solve", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    assert (out1 / "v.csv").read_bytes() == (out2 / "v.csv").read_bytes()


def test_empty_partition_rejected(tmp_path, capsys):
    bad = dict(PAIR_CONFIG)
    bad["partition"] = {"A": [], "B": [1]}
    cfg = _write(tmp_path, bad)
    assert cli.main(["solve", "--config", cfg]) == 2
    assert "partition.A" in capsys.readouterr().err


def test_unknown_field_rejected(tmp_path, capsys):
    bad = dict(PAIR_CONFIG)
    bad["mystery"] = 1
    cfg = _write(tmp_path, bad)
    assert cli.main(["solve", "--config", cfg]) == 2
    assert "mystery" in capsys.readouterr().err


def test_config_mask_matches_library_plane_wave():
    # beam.mask goes into PlaneWave as it is: a library drive with the same
    # mask gives the same w, u and v bit for bit
    config = {
        "geometry": {"mode": "random", "count": 8, "box": 4.0, "min_distance": 0.5},
        "dipole": [0, 0, 1],
        "beam": {"direction": [0, 1, 0], "mask": [5, 2, 5]},
        "delta": 0.3,
        "eta": 0.05,
        "partition": {"A": [0, 1], "B": [3, 4]},
        "seed": 7,
    }
    cfg = parse_config(config, "solve")
    assert cfg.drive.beam.mask == frozenset({2, 5})
    ens = random_ensemble(8, 4.0, 7, [0.0, 0.0, 1.0], min_distance=0.5)
    drive = Drive(delta=0.3, eta=0.05, beam=PlaneWave([0.0, 1.0, 0.0], mask={2, 5}))
    parsed = steady_state(coupling_matrix(cfg.ensemble), cfg.drive, cfg.ensemble)
    library = steady_state(coupling_matrix(ens), drive, ens)
    assert np.count_nonzero(library.w == 0) == 2 and library.w[2] == library.w[5] == 0
    for name in ("w", "u", "v"):
        assert np.array_equal(getattr(parsed, name), getattr(library, name))


def test_dark_groups_still_correlated(tmp_path):
    config = {
        "geometry": {
            "mode": "explicit",
            "positions": [[0, 0, 0], [40.0, 0, 0], [0, 55.0, 0]],
        },
        "dipole": [0, 0, 1],
        "beam": {"direction": [0, 1, 0], "mask": [1, 2]},
        "delta": 0.0,
        "eta": 0.05,
        "partition": {"A": [1], "B": [2]},
        "seed": 1,
    }
    cfg = _write(tmp_path, config)
    out = tmp_path / "out"
    assert cli.main(["solve", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["negativity"]["negativity2"] > 0.0
    # the negative mode never closes (lambda4 = 0): the model has no maximum
    assert report["negativity"]["n_max"] is None
    rows = (out / "v.csv").read_text().strip().splitlines()[1:]
    dark_pair = [r for r in rows if r.startswith("1,2,")][0]
    re_part, im_part = map(float, dark_pair.split(",")[2:])
    assert abs(complex(re_part, im_part)) > 0.0


@pytest.mark.parametrize(
    "task, table, header",
    [
        ("sweep", "sweep.csv", "eta,N_model,N_pt,N_exact"),
        ("oracle-compare", "oracle.csv", "eta,N_exact,N_perturbative,abs_error"),
    ],
    ids=["sweep", "oracle-compare"],
)
def test_sweep_parallel_determinism(tmp_path, task, table, header):
    config = dict(PAIR_CONFIG)
    del config["eta"]
    config["eta_sweep"] = {"min": 0.01, "max": 0.05, "points": 9}
    config["exact"] = task == "sweep"
    cfg = _write(tmp_path, config)
    out1, out2 = tmp_path / "p1", tmp_path / "p2"
    assert cli.main([task, "--config", cfg, "--out", str(out1), "--parallel", "1"]) == 0
    assert cli.main([task, "--config", cfg, "--out", str(out2), "--parallel", "2"]) == 0
    assert (out1 / table).read_bytes() == (out2 / table).read_bytes()
    assert (out1 / table).read_text().splitlines()[0] == header
    rep1 = json.loads((out1 / "report.json").read_text())
    rep2 = json.loads((out2 / "report.json").read_text())
    assert rep1["provenance"].pop("parallelism") == 1
    assert rep2["provenance"].pop("parallelism") == 2
    assert rep1 == rep2


def test_sweep_farfield_pair_threshold_matches_bound(tmp_path):
    # one atom per group at k0 D = 1e6; the transverse offset pi/3 sets the
    # drive phases so |w_1^2 + w_2^2| = 1, the normalisation behind the
    # guaranteed-entanglement window
    config = {
        "geometry": {
            "mode": "explicit",
            "positions": [[0, 0, 0], [1e6, np.pi / 3, 0]],
        },
        "dipole": [0, 0, 1],
        "beam": {"direction": [0, 1, 0]},
        "delta": 0.0,
        "eta_sweep": {"min": 0.0002, "max": 0.0008, "points": 31},
        "partition": {"A": [0], "B": [1]},
        "seed": 3,
    }
    cfg = _write(tmp_path, config)
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    omega_numeric = report["threshold"]["omega_sweep_estimate"]
    from weakdrive.farfield import FarFieldConfig, bound_omega

    distance = np.hypot(1e6, np.pi / 3)
    bound = bound_omega(FarFieldConfig(distance, np.pi / 2, 1, 1, delta=0.0))
    assert abs(omega_numeric - bound) / bound <= 0.01


def test_sweep_threshold_matches_per_point_loop():
    # the vectorised modelled minimum eigenvalue against the per-point loop
    # it replaced, on a grid where numpy's vector power (eta_grid**4) would
    # move the estimate in its last bit
    from weakdrive.negativity import _interp_last_sign_change
    from weakdrive.runner import run_sweep

    config = dict(PAIR_CONFIG)
    del config["eta"]
    config["geometry"] = {"mode": "lattice", "edge": 2, "spacing": 0.9}
    config["partition"] = {"A": [0, 1, 2], "B": [5, 6, 7]}
    config["eta_sweep"] = {"min": 0.001, "max": 0.3, "points": 16}
    cfg = parse_config(config, "sweep")
    report = run_sweep(cfg).report
    l2, l4 = (np.array(report["modes"][k]) for k in ("lambda2", "lambda4"))
    grid = cfg.eta_grid
    min_lam = np.array([float((eta**2 * l2 + eta**4 * l4).min()) for eta in grid.tolist()])
    expected = _interp_last_sign_change(grid, min_lam)
    assert expected is not None
    assert report["threshold"]["eta_sweep_estimate"] == expected


def test_sweep_below_threshold_all_positive(tmp_path):
    config = dict(PAIR_CONFIG)
    del config["eta"]
    # closing amplitude for this pair sits near eta ~ 0.18; stay well under
    config["eta_sweep"] = {"min": 0.005, "max": 0.05, "points": 7}
    cfg = _write(tmp_path, config)
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "sweep.csv").read_text().strip().splitlines()[1:]
    for row in rows:
        eta, n_model, n_pt = map(float, row.split(","))
        assert n_model > 0.0
        assert n_pt > 0.0


def test_sweep_without_crossing_prints_no_threshold(tmp_path, capsys):
    config = dict(PAIR_CONFIG)
    del config["eta"]
    config["eta_sweep"] = {"min": 0.005, "max": 0.05, "points": 7}
    cfg = _write(tmp_path, config)
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    threshold = json.loads((out / "report.json").read_text())["threshold"]
    assert threshold["eta_sweep_estimate"] is None
    assert threshold["omega_sweep_estimate"] is None
    lines = capsys.readouterr().out.splitlines()
    assert (
        "sweep threshold: none, the modelled minimum eigenvalue does not change sign on the grid"
        in lines
    )
    assert not any("eta =  (" in line for line in lines)


@pytest.mark.parametrize(
    "mask, lambda2_negative, n_max, line",
    [
        ([0, 1, 2], False, 0.0, "extremum: none, no mode's modelled eigenvalue is negative"),
        ([1, 2], True, None,
         "extremum: none, a negative mode never closes (lambda4 <= 0) or a mode opens (lambda4 < 0)"),
    ],
    ids=["all-dark", "dark-groups"],
)
def test_sweep_without_extremum_prints_why(tmp_path, capsys, mask, lambda2_negative, n_max, line):
    # every atom dark gives no negative mode; dark groups lit only through
    # the third atom give a negative mode whose dilute lambda4 is 0
    config = {
        "geometry": {"mode": "explicit", "positions": [[0, 0, 0], [40.0, 0, 0], [0, 55.0, 0]]},
        "dipole": [0, 0, 1],
        "beam": {"direction": [0, 1, 0], "mask": mask},
        "delta": 0.0,
        "eta_sweep": {"min": 0.01, "max": 0.2, "points": 5},
        "partition": {"A": [1], "B": [2]},
        "seed": 1,
    }
    cfg = _write(tmp_path, config)
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["extremum"]["eta_max"] is None
    assert report["extremum"]["n_max"] == n_max
    assert (min(report["modes"]["lambda2"]) < 0) == lambda2_negative
    lines = capsys.readouterr().out.splitlines()
    assert line in lines
    assert not any(ln.startswith("extremum: N_max") for ln in lines)


@pytest.mark.parametrize("task", ["sweep", "oracle-compare"])
def test_sweep_records_point_failures_and_continues(tmp_path, monkeypatch, task):
    import weakdrive.runner as runner_mod
    from weakdrive.errors import SolverConvergenceError

    real = runner_mod.steady_state_exact

    def flaky(liouv, eta):
        # fail one grid point; the walk must keep the others
        if flaky.calls == 1:
            flaky.calls += 1
            raise SolverConvergenceError(1.0, 0)
        flaky.calls += 1
        return real(liouv, eta)

    config = dict(PAIR_CONFIG)
    del config["eta"]
    # the modelled minimum eigenvalue changes sign between the failing
    # point and the last one (eta_model ~ 0.28)
    config["eta_sweep"] = {"min": 0.1, "max": 0.3, "points": 3}
    config["exact"] = task == "sweep"
    cfg = parse_config(config, task)
    grid = cfg.eta_grid.tolist()
    clean = runner_mod.TASK_RUNNERS[task](cfg, parallelism=1)
    flaky.calls = 0
    monkeypatch.setattr(runner_mod, "steady_state_exact", flaky)
    bundle = runner_mod.TASK_RUNNERS[task](cfg, parallelism=1)
    errors = bundle.report["point_errors"]
    assert [e["eta"] for e in errors] == [grid[1]]
    (columns,) = bundle.tables.values()
    assert columns["eta"].tolist() == [grid[0], grid[2]]
    (clean_columns,) = clean.tables.values()
    assert columns.keys() == clean_columns.keys()
    for name, column in columns.items():
        assert column.tolist() == clean_columns[name][[0, 2]].tolist()
    if task == "sweep":
        # the estimate interpolates the model over the whole grid, so an
        # exact failure next to the crossing moves nothing
        assert bundle.report["threshold"] == clean.report["threshold"]
        assert grid[1] < bundle.report["threshold"]["eta_sweep_estimate"] < grid[2]


def test_sweep_warns_about_a_failed_point_and_exits_0(tmp_path, capsys, monkeypatch):
    import weakdrive.runner as runner_mod
    from weakdrive.errors import SolverConvergenceError

    real = runner_mod.steady_state_exact
    grid = parse_config(SWEEP_CONFIG, "sweep").eta_grid.tolist()

    def flaky(liouv, eta):
        if eta == grid[1]:
            raise SolverConvergenceError(1.0, 0)
        return real(liouv, eta)

    monkeypatch.setattr(runner_mod, "steady_state_exact", flaky)
    cfg = _write(tmp_path, {**SWEEP_CONFIG, "exact": True})
    assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "warning: 1 grid point(s) failed; see report.json"
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert [e["eta"] for e in report["point_errors"]] == [grid[1]]


def test_sweep_exact_above_the_cap_exits_2_before_any_solve(tmp_path, capsys, monkeypatch):
    import weakdrive.runner as runner_mod

    def never(*args):
        raise AssertionError("solved before the exact cap was checked")

    monkeypatch.setattr(runner_mod, "steady_state", never)
    positions = [[2.0 * k, 0.0, 0.0] for k in range(N_CAP + 1)]
    config = {**SWEEP_CONFIG, "exact": True,
              "geometry": {"mode": "explicit", "positions": positions}}
    assert cli.main(["sweep", "--config", _write(tmp_path, config)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: exact: ")


@pytest.mark.parametrize("task", ["solve", "sweep"])
def test_package_error_exits_3_and_writes_nothing(tmp_path, capsys, monkeypatch, task):
    import weakdrive.runner as runner_mod
    from weakdrive.errors import ResonantSingularityError

    def singular(*args):
        raise ResonantSingularityError(0.0, 1e17)

    monkeypatch.setattr(runner_mod, "steady_state", singular)
    base = PAIR_CONFIG if task == "solve" else SWEEP_CONFIG
    out = tmp_path / "out"
    assert cli.main([task, "--config", _write(tmp_path, base), "--out", str(out)]) == 3
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("numerical failure: ")
    assert "overflow" not in err[0]
    assert not (out / "report.json").exists() and captured.out == ""


@pytest.mark.parametrize(
    "group_a, group_b, tol",
    [([0], [1, 2], 0.0), ([2], [0, 1], 1e-15)],
    ids=["a-first", "b-first"],
)
def test_sweep_exact_and_oracle_compare_agree(group_a, group_b, tol):
    # one covering partition run both ways: the same N_pt, and the same
    # N_exact up to the reordering of the atoms when B precedes A
    from weakdrive.runner import run_oracle_compare, run_sweep

    config = dict(PAIR_CONFIG)
    del config["eta"]
    config["geometry"] = {
        "mode": "explicit",
        "positions": [[0, 0, 0], [1.2, 0, 0], [0, 1.5, 0]],
    }
    config["partition"] = {"A": group_a, "B": group_b}
    config["eta_sweep"] = {"min": 0.01, "max": 0.3, "points": 4}
    oracle = run_oracle_compare(parse_config(config, "oracle-compare"))
    config["exact"] = True
    sweep = run_sweep(parse_config(config, "sweep"))
    sweep_columns, oracle_columns = sweep.tables["sweep"], oracle.tables["oracle"]
    assert len(sweep_columns["eta"]) == len(oracle_columns["eta"]) == 4
    assert sweep_columns["eta"].tolist() == oracle_columns["eta"].tolist()
    assert sweep_columns["N_pt"].tolist() == oracle_columns["N_perturbative"].tolist()
    assert np.abs(sweep_columns["N_exact"] - oracle_columns["N_exact"]).max() <= tol


def test_solve_negativity_pt_equals_sweep_n_pt(tmp_path):
    # an embedded partition of four atoms: solve at eta and a sweep whose
    # last grid point is that eta report the same N_pt, bit for bit
    from weakdrive.runner import run_solve, run_sweep

    config = dict(PAIR_CONFIG)
    config["geometry"] = {
        "mode": "explicit",
        "positions": [[0, 0, 0], [1.2, 0, 0], [0, 1.5, 0], [0.7, 0.6, 0.9]],
    }
    config["partition"] = {"A": [3], "B": [0, 2]}
    config["eta"] = 0.13
    solve = run_solve(parse_config(config, "solve"))
    del config["eta"]
    config["eta_sweep"] = {"min": 0.01, "max": 0.13, "points": 5}
    sweep = run_sweep(parse_config(config, "sweep"))
    columns = sweep.tables["sweep"]
    assert list(columns) == ["eta", "N_model", "N_pt"]
    assert columns["eta"][-1] == 0.13
    assert solve.report["negativity"]["negativity_pt"] == columns["N_pt"][-1]


@pytest.mark.parametrize("task", ["solve", "sweep", "oracle-compare"])
def test_task_restricts_the_state_once(monkeypatch, task):
    # one restriction of the solved state and one pair matrix per task feed
    # both V and the partial transpose
    from weakdrive import negativity
    from weakdrive.perturbation import PerturbState
    from weakdrive.runner import TASK_RUNNERS

    calls = {"restrict_state": 0, "v_matrix": 0}
    restrict, v_matrix = negativity.restrict_state, PerturbState.v_matrix

    def counted_restrict(*args):
        calls["restrict_state"] += 1
        return restrict(*args)

    def counted_v_matrix(self):
        calls["v_matrix"] += 1
        return v_matrix(self)

    monkeypatch.setattr(negativity, "restrict_state", counted_restrict)
    monkeypatch.setattr(PerturbState, "v_matrix", counted_v_matrix)
    config = dict(PAIR_CONFIG)
    config["geometry"] = {"mode": "explicit", "positions": [[0, 0, 0], [1.2, 0, 0], [0, 1.5, 0]]}
    config["partition"] = {"A": [2], "B": [0, 1]}
    if task != "solve":
        del config["eta"]
        config["eta_sweep"] = {"min": 0.01, "max": 0.04, "points": 3}
    TASK_RUNNERS[task](parse_config(config, task))
    assert calls == {"restrict_state": 1, "v_matrix": 1}


def test_bounds_task(tmp_path):
    config = {
        "delta": 0.0,
        "farfield": {
            "k0_distance": 1e7,
            "theta": np.pi / 2,
            "n_a": 100,
            "n_b": 100,
            "omega_over_gamma": 0.1,
            "mean_spacing": 1.0,
        },
    }
    cfg = _write(tmp_path, config)
    out = tmp_path / "out"
    assert cli.main(["bounds", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert set(report) >= {"D0", "bound_omega", "N_max", "eta_max", "L_min", "n_min"}
    assert 48.0 <= report["L_min"] <= 54.0


@pytest.mark.parametrize("theta", [-1.0, 4.0])
def test_bounds_outside_zero_to_pi_writes_finite_json(tmp_path, capsys, theta):
    config = {"delta": 0.0, "farfield": {**FARFIELD, "theta": theta}}
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["bounds", "--config", _write(tmp_path, config), "--out", str(out)]) == 0

    def no_constant(name):
        raise AssertionError(f"report.json holds {name}")

    report = json.loads((out / "report.json").read_text(), parse_constant=no_constant)
    for key in ("D0", "bound_omega", "N_max", "eta_max", "L_min", "n_min"):
        assert np.isfinite(report[key])
    assert "nan" not in capsys.readouterr().out


def test_bounds_rejects_negative_drive(tmp_path, capsys):
    config = {
        "delta": 0.0,
        "farfield": {
            "k0_distance": 1e7,
            "theta": np.pi / 2,
            "n_a": 100,
            "n_b": 100,
            "omega_over_gamma": -0.1,
            "mean_spacing": 1.0,
        },
    }
    cfg = _write(tmp_path, config)
    assert cli.main(["bounds", "--config", cfg]) == 2
    assert "farfield.omega_over_gamma: must be non-negative" in capsys.readouterr().err


@pytest.mark.parametrize(
    "task, table, zero_row",
    [("sweep", "sweep.csv", "0,0,0"), ("oracle-compare", "oracle.csv", "0,0,0,0")],
)
def test_linear_sweep_from_zero_drive(tmp_path, task, table, zero_row):
    config = dict(PAIR_CONFIG)
    del config["eta"]
    config["eta_sweep"] = {"min": 0, "max": 0.03, "points": 4}
    cfg = _write(tmp_path, config)
    out = tmp_path / "out"
    assert cli.main([task, "--config", cfg, "--out", str(out)]) == 0
    lines = (out / table).read_text().strip().splitlines()
    assert lines[1] == zero_row
    assert len(lines) == 1 + 4
    assert json.loads((out / "report.json").read_text())["point_errors"] == []


def test_oracle_compare_errors(tmp_path, capsys):
    config = dict(PAIR_CONFIG)
    del config["eta"]
    config["eta_sweep"] = {"min": 0.01, "max": 0.04, "points": 3}
    config["partition"] = {"A": [0], "B": []}
    cfg = _write(tmp_path, config)
    assert cli.main(["oracle-compare", "--config", cfg]) == 2

    # partition not covering the ensemble
    config["geometry"] = {
        "mode": "explicit",
        "positions": [[0, 0, 0], [1.0, 0, 0], [0, 2.0, 0]],
    }
    config["partition"] = {"A": [0], "B": [1]}
    cfg = _write(tmp_path, config)
    assert cli.main(["oracle-compare", "--config", cfg]) == 2

    # too many atoms for the exact solver -> configuration error, before any solve
    n = N_CAP + 1
    config["geometry"] = {
        "mode": "explicit",
        "positions": [[float(i), 0.0, 0.0] for i in range(n)],
    }
    config["partition"] = {"A": list(range(n // 2)), "B": list(range(n // 2, n))}
    cfg = _write(tmp_path, config)
    capsys.readouterr()
    assert cli.main(["oracle-compare", "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith(
        f"config error: geometry: oracle comparison needs {N_CAP} atoms or fewer, got {n}")


def test_oracle_compare_table(tmp_path):
    config = dict(PAIR_CONFIG)
    del config["eta"]
    config["eta_sweep"] = {"min": 0.01, "max": 0.03, "points": 3}
    cfg = _write(tmp_path, config)
    out = tmp_path / "out"
    assert cli.main(["oracle-compare", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "oracle.csv").read_text().strip().splitlines()
    assert lines[0] == "eta,N_exact,N_perturbative,abs_error"
    eta, n_exact, n_pt, err = map(float, lines[1].split(","))
    assert err == pytest.approx(abs(n_exact - n_pt), rel=1e-12)
    assert err < 1e-5


def test_oracle_compare_three_plus_three(tmp_path):
    # six atoms are past the dense generator: the exact column comes from
    # the level solve alone, and the perturbative gap closes at weak drive
    config = dict(PAIR_CONFIG)
    del config["eta"]
    config["geometry"] = {
        "mode": "explicit",
        "positions": [[0, 0, 0], [1.1, 0, 0], [0, 1.3, 0], [0.9, 1.2, 0.4],
                      [0.2, 0.3, 1.5], [1.4, 0.8, 1.1]],
    }
    config["delta"] = 0.3
    config["partition"] = {"A": [0, 1, 2], "B": [3, 4, 5]}
    config["eta_sweep"] = {"min": 0.005, "max": 0.01, "points": 2}
    cfg = _write(tmp_path, config)
    out = tmp_path / "out"
    assert cli.main(["oracle-compare", "--config", cfg, "--out", str(out)]) == 0
    assert json.loads((out / "report.json").read_text())["point_errors"] == []
    rows = [list(map(float, r.split(",")))
            for r in (out / "oracle.csv").read_text().strip().splitlines()[1:]]
    assert [r[0] for r in rows] == [0.005, 0.01]
    for eta, n_exact, n_pt, err in rows:
        assert n_exact > 0.0
        assert err == pytest.approx(abs(n_exact - n_pt), rel=1e-12)
        assert err <= 1e-2 * n_exact
    # the gap falls by eta^3 to eta^4 under halving
    assert 8.0 <= rows[1][3] / rows[0][3] <= 32.0


def _z_asymmetry(build_scenario):
    def fault(seed):
        # the state stays solved on the clean Z; only the checked Z is broken
        sc = build_scenario(seed)
        z = sc.coupling.copy()
        z[0, 1] += 1e-3
        return replace(sc, coupling=z)
    return fault


def _decay_times_20(pair_values):
    # off-diagonal decay 20 times too strong next to the 1/2 diagonal
    return lambda separations, dipole: 20.0 * pair_values(separations, dipole)


def _sorted_restriction(restrict_state):
    # a restriction that sorts its subset puts B before A in the swapped
    # partition's local order, so its V is another block of the pairs
    return lambda state, subset: restrict_state(state, sorted(subset))


def _positive_lambda2(lambda2_spectrum):
    # +s in place of -s: still the right magnitudes, so only the
    # independent eigvalsh route can see it
    def fault(V):
        vals, vecs = lambda2_spectrum(V)
        return np.abs(vals), vecs
    return fault


def _first_row_border(cores):
    # the border written to the first row only: eigvalsh, which reads the
    # lower triangle, would see no pairs
    def fault(self, etas):
        out = cores(self, etas)
        out[:, -1, 0] = 0.0
        return out
    return fault


def _off_trace(build_pt_matrix):
    def fault(state, part):
        pt = build_pt_matrix(state, part)
        return replace(pt, s=pt.s + 1e-6)
    return fault


def _reversed_u(restrict_state):
    def fault(state, subset):
        sub = restrict_state(state, subset)
        return replace(sub, u=sub.u[::-1])
    return fault


def _reach_without_conj(restricted_pt):
    # reach read as |u @ U|, without the conjugate on the rows of A
    def fault(sub, vmat, na):
        u = sub.u
        in_a = np.arange(sub.n) < na
        block = np.where(in_a[:, None] == in_a[None, :], np.outer(u, np.conj(u)),
                         np.outer(u, u) + vmat)
        _, U = np.linalg.eigh(np.where(in_a[:, None], block, np.conj(block)))
        return replace(restricted_pt(sub, vmat, na), reach=np.abs(u @ U))
    return fault


def _without_v(build_pt_matrix):
    # the partial transpose without the pair correlations v, which carry
    # the entanglement: the gap to the oracle no longer falls by eta^3 to eta^4
    return lambda state, part: build_pt_matrix(replace(state, v=np.zeros_like(state.v)), part)


def _uncorrected_ground(assemble_state):
    # the ground population without its -eta^2 sum|u|^2 correction
    def fault(state):
        rho = assemble_state(state).copy()
        rho[0, 0] = 1.0
        return rho
    return fault


def _half_pair_source(pair_rhs):
    return lambda coupling, u: pair_rhs(coupling, u) / 2


# one fault per validate check, keyed by check name: (owner, attribute,
# fault), where fault takes the attribute and returns its broken stand-in
CHECK_FAULTS = {
    "z_symmetry": (checks, "build_scenario", _z_asymmetry),
    "gamma_psd": (coupling, "pair_values", _decay_times_20),
    "group_swap": (negativity, "restrict_state", _sorted_restriction),
    "eig_pairing": (checks, "lambda2_spectrum", _positive_lambda2),
    "pt_hermitian": (negativity.PartialTransposeMatrix, "cores", _first_row_border),
    "pt_trace": (checks, "build_pt_matrix", _off_trace),
    "restriction_partial_trace": (checks, "restrict_state", _reversed_u),
    "phase_invariance": (negativity, "_restricted_pt", _reach_without_conj),
    "oracle_negativity_scaling": (checks, "build_pt_matrix", _without_v),
    "oracle_state_scaling": (checks, "assemble_state", _uncorrected_ground),
    "propagator_fixed_point": (perturbation, "pair_rhs", _half_pair_source),
}
CHECKS_BY_NAME = {check.__name__.removeprefix("check_"): check for check in checks.ALL_CHECKS}


def test_every_validate_check_has_a_fault_and_passes_clean():
    assert list(CHECK_FAULTS) == list(CHECKS_BY_NAME)
    results = run_checks(seed=1)
    assert [r.name for r in results] == list(CHECKS_BY_NAME)
    assert all(r.passed for r in results)


@pytest.mark.parametrize("name", list(CHECK_FAULTS))
def test_validate_check_fails_under_its_fault(monkeypatch, name):
    owner, attribute, fault = CHECK_FAULTS[name]
    # the oracle errors are cached: a clean entry would hide the fault and a
    # faulted one would leak into later runs
    checks._oracle_errors.cache_clear()
    with monkeypatch.context() as m:
        m.setattr(owner, attribute, fault(getattr(owner, attribute)))
        result = CHECKS_BY_NAME[name](checks.build_scenario(1))
    checks._oracle_errors.cache_clear()
    assert result.name == name
    assert not result.passed, result


def test_readme_lists_the_validate_checks_in_order():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("`validate` writes `report.json`", 1)[1]
    section = section.split("The two oracle checks", 1)[0]
    assert re.findall(r"^- `(\w+)`:", section, flags=re.M) == list(CHECKS_BY_NAME)


def test_validate_cli_and_fault_injection(capsys, monkeypatch):
    assert cli.main(["validate"]) == 0
    assert "PASS z_symmetry" in capsys.readouterr().out
    monkeypatch.setattr(checks, "build_scenario", _z_asymmetry(checks.build_scenario))
    bundle = run_validate(parse_config({"seed": 1}, "validate"))
    broken = {c["name"]: c for c in bundle.report["checks"]}
    # the pair solve refuses the asymmetric Z instead of solving it
    assert not broken["phase_invariance"]["passed"]
    assert broken["phase_invariance"]["note"].startswith("pair solve refused")
    assert not bundle.report["all_passed"]


def test_validate_prints_shortest_round_trip_values(tmp_path, capsys):
    # stdout prints repr(float), which reads back exactly; report.json keeps
    # the full values
    assert cli.main(["validate", "--out", str(tmp_path)]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("PASS")]
    assert any(line.startswith("PASS pt_trace: measured=") and line.endswith(" threshold=1e-12")
               for line in lines)
    report = json.loads((tmp_path / "report.json").read_text())
    assert len(lines) == len(report["checks"]) == 11
    for line, check in zip(lines, report["checks"]):
        measured, threshold = (part.split("=")[1] for part in line.split()[2:])
        assert float(measured) == check["measured"] and float(threshold) == check["threshold"]
        assert measured == repr(float(check["measured"]))


def test_rounding_level_zero_mode_never_sets_the_threshold(tmp_path):
    # 2 + 3 atoms with group B dark: V has rank 2, and the structural zero
    # mode's lambda2 rounds to about -1e-17. Read as negative, it closed at
    # eta ~ 6e6 and hid the sweep's sign change.
    positions = np.random.default_rng(1).uniform(0, 30, (5, 3)).tolist()
    base = {
        "geometry": {"mode": "explicit", "positions": positions},
        "dipole": [0, 0, 1],
        "beam": {"direction": [0, 1, 0], "mask": [2, 3, 4]},
        "delta": 0.0,
        "partition": {"A": [0, 1], "B": [2, 3, 4]},
    }
    solve_cfg = _write(tmp_path, {**base, "eta": 0.05}, "solve.json")
    assert cli.main(["solve", "--config", solve_cfg, "--out", str(tmp_path / "solve")]) == 0
    neg = json.loads((tmp_path / "solve" / "report.json").read_text())["negativity"]
    assert neg["eta_threshold"] == pytest.approx(0.2183, rel=1e-3)
    zero = [m for m in neg["modes"] if m["lambda2"] == 0.0]
    assert len(zero) == 1
    assert zero[0]["eta_zero"] is None and zero[0]["omega_zero"] is None

    sweep = {**base, "eta_sweep": {"min": 0.01, "max": 0.5, "points": 50, "log": False}}
    sweep_cfg = _write(tmp_path, sweep, "sweep.json")
    assert cli.main(["sweep", "--config", sweep_cfg, "--out", str(tmp_path / "sweep")]) == 0
    thr = json.loads((tmp_path / "sweep" / "report.json").read_text())["threshold"]
    assert thr["eta_model"] == neg["eta_threshold"]
    # the zero mode's rounding-level eta^4 lambda4 is left out of the
    # minimum; kept in, it pinned the estimate to the grid point 0.22
    assert abs(thr["eta_sweep_estimate"] - neg["eta_threshold"]) <= 5e-4


def test_solve_bundle_writes_the_same_bytes_twice(tmp_path):
    positions = np.random.default_rng(2).uniform(0, 8, (40, 3)).tolist()
    config = {**PAIR_CONFIG, "geometry": {"mode": "explicit", "positions": positions},
              "dump_coupling": True}
    bundle = run_solve(parse_config(config, "solve"))
    assert len(bundle.tables["v"]["mu"]) == 780 > CHUNK_ROWS
    bundle.write(str(tmp_path / "first"))
    bundle.write(str(tmp_path / "second"))
    assert (tmp_path / "first" / "report.json").read_bytes() == (
        tmp_path / "second" / "report.json").read_bytes()
    for name, columns in bundle.tables.items():
        first = (tmp_path / "first" / f"{name}.csv").read_text()
        assert first == (tmp_path / "second" / f"{name}.csv").read_text()
        # one fmt_value call per cell, as a reference for the chunked writer
        cells = zip(*columns.values())
        assert first.splitlines() == [",".join(columns)] + [
            ",".join(map(fmt_value, row)) for row in cells]
    assert len((tmp_path / "first" / "v.csv").read_text().splitlines()) == 1 + 780


def test_validate_exit_code_on_failure(monkeypatch, capsys):
    failing = ResultBundle(
        report={
            "checks": [
                {"name": "synthetic", "passed": False, "measured": 1.0, "threshold": 0.0}
            ],
            "all_passed": False,
        },
        failure="validation FAILED",
    )
    monkeypatch.setitem(cli.TASK_RUNNERS, "validate", lambda cfg, parallelism=1: failing)
    assert cli.main(["validate"]) == 4


def test_validate_runs_the_seed_it_records():
    measured = {}
    for seed in (0, 1):
        report = run_validate(parse_config({"seed": seed}, "validate")).report
        assert report["provenance"]["seed"] == seed
        assert report["all_passed"]
        measured[seed] = [c["measured"] for c in report["checks"]]
        assert measured[seed] == [c.measured for c in run_checks(seed=seed)]
    assert measured[0] != measured[1]


def test_parallel_flag_must_be_positive(capsys):
    assert cli.main(["validate", "--parallel", "0"]) == 2


def test_parallel_help_starts_no_processes(capsys):
    with pytest.raises(SystemExit):
        cli.main(["sweep", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert (
        "--parallel PARALLEL must be >= 1; recorded in the provenance only, every task "
        "runs in this process" in text
    )
    assert "worker" not in text


def test_seed_override_changes_hash(tmp_path):
    data = dict(PAIR_CONFIG)
    base = config_hash(parse_config(data, "solve").raw)
    data2 = dict(PAIR_CONFIG)
    data2["seed"] = 8
    other = config_hash(parse_config(data2, "solve").raw)
    assert base != other
    assert base == config_hash(parse_config(dict(PAIR_CONFIG), "solve").raw)


def test_config_validation_details():
    with pytest.raises(ConfigError, match="eta"):
        parse_config({**PAIR_CONFIG, "eta_sweep": {"min": 0.1, "max": 0.2, "points": 3}}, "solve")
    with pytest.raises(ConfigError, match=r"geometry\.mode"):
        parse_config({**PAIR_CONFIG, "geometry": {"mode": "ring"}}, "solve")
    with pytest.raises(ConfigError, match=r"eta_sweep\.min"):
        cfg = dict(PAIR_CONFIG)
        del cfg["eta"]
        parse_config({**cfg, "eta_sweep": {"min": 0.5, "max": 0.2, "points": 3}}, "sweep")
    with pytest.raises(ConfigError, match=r"beam\.mask"):
        bad = dict(PAIR_CONFIG)
        bad["beam"] = {"direction": [0, 1, 0], "mask": [-1]}
        parse_config(bad, "solve")
    with pytest.raises(ConfigError, match="unknown task 'plot'"):
        parse_config(PAIR_CONFIG, "plot")


def test_lattice_geometry_matches_explicit_corners(tmp_path):
    # the lattice mode numbers its sites with the last axis fastest: the
    # same cube given as explicit positions gives the same outputs
    lattice = dict(PAIR_CONFIG)
    lattice["geometry"] = {"mode": "lattice", "edge": 2, "spacing": 1.3}
    lattice["partition"] = {"A": [0, 1], "B": [6, 7]}
    corners = [[1.3 * i, 1.3 * j, 1.3 * k] for i in (0, 1) for j in (0, 1) for k in (0, 1)]
    assert parse_config(lattice, "solve").ensemble.positions.tolist() == corners
    explicit = {**lattice, "geometry": {"mode": "explicit", "positions": corners}}
    outs = []
    for name, config in (("lattice", lattice), ("explicit", explicit)):
        out = tmp_path / name
        assert cli.main(["solve", "--config", _write(tmp_path, config), "--out", str(out)]) == 0
        outs.append(out)
    assert len((outs[0] / "u.csv").read_text().splitlines()) == 1 + 8
    for table in ("u.csv", "v.csv", "curve.csv"):
        assert (outs[0] / table).read_bytes() == (outs[1] / table).read_bytes()
    reports = [json.loads((o / "report.json").read_text()) for o in outs]
    assert reports[0]["negativity"] == reports[1]["negativity"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["solve", "--config", "{missing}"], "config: file not found: "),
        (["solve", "--config", "{invalid}"], "config: invalid JSON: "),
        (["solve"], "config: --config is required for this task"),
        (["sweep"], "config: --config is required for this task"),
        (["bounds", "--seed", "3"], "config: --config is required for this task"),
        (["solve", "--config", "{directory}"], "config: cannot read "),
        (["solve", "--config", "{latin1}"], "config: cannot read "),
        (["validate", "--out", "{taken}"], "out: cannot write results: "),
        (["validate", "--out", "{taken}/sub"], "out: cannot write results: "),
    ],
)
def test_config_file_errors_exit_2(tmp_path, capsys, argv, message):
    invalid = tmp_path / "invalid.json"
    invalid.write_text('{"delta": 0.0,')
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"delta": 0.0, "note": "\u00e9"}'.encode("latin-1"))
    taken = tmp_path / "taken"
    taken.write_text("")
    paths = {"missing": str(tmp_path / "absent.json"), "invalid": str(invalid),
             "directory": str(tmp_path), "latin1": str(latin1), "taken": str(taken)}
    argv = [a.format(**paths) for a in argv]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {message}") and err.count("\n") == 1


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
@pytest.mark.parametrize("task", ["validate", "solve"])
def test_seed_override_outside_u64_exits_2(tmp_path, capsys, task, seed):
    # on a random geometry, where the seed is drawn from
    cloud = {"mode": "random", "count": 4, "box": 3.0, "min_distance": 0.5}
    argv = [task, "--seed", seed]
    if task == "solve":
        argv += ["--config", _write(tmp_path, {**PAIR_CONFIG, "geometry": cloud})]
    assert cli.main(argv) == 2
    assert "config error: seed: " in capsys.readouterr().err


SWEEP_CONFIG = {k: v for k, v in PAIR_CONFIG.items() if k != "eta"}
SWEEP_CONFIG["eta_sweep"] = {"min": 0.01, "max": 0.04, "points": 3}
FARFIELD = {"k0_distance": 1e7, "theta": 1.0, "n_a": 10, "n_b": 10,
            "omega_over_gamma": 0.1, "mean_spacing": 1.0}


@pytest.mark.parametrize(
    "task, change, path",
    [
        ("solve", {"geometry": {"mode": "lattice", "edge": 0, "spacing": 1.0}}, "geometry.edge"),
        ("solve", {"geometry": {"mode": "lattice", "edge": 2, "spacing": 0.0}}, "geometry.spacing"),
        ("solve", {"geometry": {"mode": "lattice", "edge": 2.5, "spacing": 1.0}}, "geometry.edge"),
        ("solve", {"geometry": {"mode": "lattice", "edge": 2}}, "geometry.spacing"),
        ("solve", {"geometry": {"mode": "explicit", "positions": []}}, "geometry.positions"),
        ("solve", {"geometry": {"mode": "explicit", "positions": [[0, 0]]}},
         "geometry.positions[0]"),
        ("solve", {"geometry": {"mode": "random", "count": 0, "box": [1, 1, 1]}}, "geometry.count"),
        ("solve", {"geometry": {"mode": "random", "count": 9, "box": 1.0, "min_distance": 1.0}},
         "geometry"),
        ("solve", {"geometry": []}, "geometry"),
        ("solve", {"dipole": [0, 0, 2]}, "dipole"),
        ("solve", {"dipole": [0, 0, "z"]}, "dipole[2]"),
        ("solve", {"beam": {"direction": [0, 2, 0]}}, "beam.direction"),
        ("solve", {"beam": {"direction": [0, 1, 0], "mask": [5]}}, "beam.mask"),
        ("solve", {"beam": {"direction": [0, 1, 0], "mask": 5}}, "beam.mask"),
        ("solve", {"eta": -0.1}, "eta"),
        ("solve", {"exact": 1}, "exact"),
        ("solve", {"dump_coupling": "yes"}, "dump_coupling"),
        ("solve", {"partition": {"A": [0], "B": [4]}}, "partition"),
        ("sweep", {"eta_sweep": {"min": 0.01, "max": 0.04, "points": 3, "log": 1}},
         "eta_sweep.log"),
        ("sweep", {"eta_sweep": {"min": 0.01, "max": 0.04, "points": 1}}, "eta_sweep.points"),
        ("sweep", {"eta_sweep": {"min": 0, "max": 0.04, "points": 3, "log": True}},
         "eta_sweep.min"),
        ("sweep", {"eta_sweep": {"min": -0.01, "max": 0.04, "points": 3}}, "eta_sweep.min"),
        ("bounds", {"farfield": {**FARFIELD, "k0_distance": 0.0}}, "farfield.k0_distance"),
        ("bounds", {"farfield": {**FARFIELD, "n_b": 0}}, "farfield.n_b"),
        ("bounds", {"farfield": {**FARFIELD, "mean_spacing": -1.0}}, "farfield.mean_spacing"),
        ("solve", {"geometry": {"mode": "random", "count": 2, "box": 1.0, "min_distance": -0.5}},
         "geometry.min_distance"),
        ("solve", {"geometry": {"mode": "explicit", "positions": [[0, 0, 0], [0, 0, 0]]}},
         "geometry.positions"),
        ("solve", {"seed": -1}, "seed"),
        ("solve", {"seed": 2**64}, "seed"),
        ("bounds", {"farfield": {**FARFIELD, "n_a": 0}}, "farfield.n_a"),
        ("solve", {"eta": float("nan")}, "eta"),
        ("solve", {"eta": float("inf")}, "eta"),
        ("solve", {"eta": 10**400}, "eta"),
        ("solve", {"delta": float("nan")}, "delta"),
        ("sweep", {"eta_sweep": {"min": 0.01, "max": float("inf"), "points": 3}},
         "eta_sweep.max"),
        ("oracle-compare", {"eta_sweep": {"min": 0.01, "max": float("inf"), "points": 3}},
         "eta_sweep.max"),
        ("solve", {"geometry": {"mode": "explicit",
                                "positions": [[0, 0, 0], [float("nan"), 0, 0]]}},
         "geometry.positions[1][0]"),
        ("bounds", {"farfield": {**FARFIELD, "theta": float("nan")}}, "farfield.theta"),
        # points that round onto each other between min and max
        ("sweep", {"eta_sweep": {"min": 0.1, "max": 0.10000000000000003, "points": 50}},
         "eta_sweep.points"),
        ("sweep", {"eta_sweep": {"min": 0.1, "max": 0.10000000000000003, "points": 50,
                                 "log": True}}, "eta_sweep.points"),
    ],
)
def test_invalid_field_exits_2_with_its_path(tmp_path, capsys, task, change, path):
    base = {"solve": PAIR_CONFIG, "sweep": SWEEP_CONFIG, "oracle-compare": SWEEP_CONFIG,
            "bounds": {"delta": 0.0}}[task]
    cfg = _write(tmp_path, {**base, **change})
    assert cli.main([task, "--config", cfg]) == 2
    assert f"config error: {path}: " in capsys.readouterr().err


NINE_ATOMS = {"geometry": {"mode": "explicit",
                            "positions": [[1.2 * i, 0.4 * (i % 2), 0] for i in range(9)]},
              "partition": {"A": [0, 1, 2, 3], "B": [4, 5, 6, 7, 8]}}


@pytest.mark.parametrize(
    "task, change, path",
    [
        ("solve", {"geometry": {"mode": "random", "count": 2, "box": 1.0, "min_distance": 5.0}},
         "geometry"),
        ("solve", {"geometry": {"mode": "explicit", "positions": [[0, 0, 0], [0, 0, 0]]}},
         "geometry.positions"),
        ("solve", {"beam": {"direction": [0, 2, 0]}}, "beam.direction"),
        ("solve", {"beam": {"direction": [0, 1, 0], "mask": [2]}}, "beam.mask"),
        ("solve", {"partition": {"A": [0], "B": [2]}}, "partition"),
        ("solve", {"partition": {"A": [0, 1], "B": [1]}}, "partition"),
        ("oracle-compare", {"geometry": {"mode": "explicit",
                                         "positions": [[0, 0, 0], [1, 0, 0], [0, 1, 0]]}},
         "partition"),
        ("oracle-compare", NINE_ATOMS, "geometry"),
        ("sweep", {**NINE_ATOMS, "exact": True}, "exact"),
    ],
)
def test_parse_config_raises_every_configuration_error(task, change, path):
    # errors found by building the ensemble, drive and partition, and the
    # oracle's coverage and atom cap, come from parse_config, before any solve
    base = {"solve": PAIR_CONFIG, "sweep": SWEEP_CONFIG, "oracle-compare": SWEEP_CONFIG}[task]
    with pytest.raises(ConfigError) as exc:
        parse_config({**base, **change}, task)
    assert exc.value.path == path


@pytest.mark.parametrize(
    "task, config",
    [
        ("solve", {**PAIR_CONFIG, "eta": 1e200}),
        ("solve", {**PAIR_CONFIG, "delta": 1e300}),
        ("bounds", {"delta": 0.0, "farfield": {**FARFIELD, "k0_distance": 1e-300,
                                               "mean_spacing": 1e300,
                                               "omega_over_gamma": 1e300}}),
    ],
)
def test_finite_input_that_overflows_exits_3(tmp_path, capsys, task, config):
    cfg = _write(tmp_path, config)
    assert cli.main([task, "--config", cfg]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("numerical failure: floating-point overflow")


def _solve_lines(report):
    neg = report["negativity"]
    return [f"negativity2 = {fmt_value(neg['negativity2'])} (entanglement {neg['entanglement']})"]


def _bounds_lines(report):
    keys = ("D0", "bound_omega", "N_max", "eta_max", "L_min", "n_min")
    return [f"{key} = {fmt_value(report[key])}" for key in keys]


@pytest.mark.parametrize("task, config, lines", [
    ("solve", PAIR_CONFIG, _solve_lines),
    ("bounds", {"delta": 0.0, "farfield": FARFIELD}, _bounds_lines),
    ("oracle-compare", SWEEP_CONFIG, lambda report: []),
])
def test_console_lines_follow_the_report(tmp_path, capsys, task, config, lines):
    out = tmp_path / "out"
    assert cli.main([task, "--config", _write(tmp_path, config), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [f"results written to {out}"] + lines(report)
    assert captured.err == ""


def test_seed_override_on_a_non_object_config_exits_2(tmp_path, capsys):
    # the override used to copy the config with dict(), which raised
    # TypeError on a JSON array
    path = tmp_path / "array.json"
    path.write_text("[1, 2]")
    assert cli.main(["solve", "--config", str(path), "--seed", "3"]) == 2
    assert capsys.readouterr().err == "config error: config: expected an object, got list\n"
