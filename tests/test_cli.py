import json

import numpy as np
import pytest

from weakdrive import cli
from weakdrive.checks import run_checks
from weakdrive.config import parse_config
from weakdrive.coupling import coupling_matrix
from weakdrive.errors import ConfigError
from weakdrive.exact import N_CAP
from weakdrive.geometry import Drive, PlaneWave, explicit_ensemble
from weakdrive.perturbation import steady_state
from weakdrive.reporting import config_hash
from weakdrive.runner import ResultBundle, run_validate

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
    ens = explicit_ensemble(PAIR_CONFIG["geometry"]["positions"], [0, 0, 1])
    drive = Drive(delta=0.0, eta=0.05, beam=PlaneWave(np.array([0.0, 1.0, 0.0])))
    state = steady_state(coupling_matrix(ens), drive, ens)
    z12 = coupling_matrix(ens).z[0, 1]
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
    from weakdrive.farfield import bound_omega, farfield_parameters

    distance = np.hypot(1e6, np.pi / 3)
    bound = bound_omega(farfield_parameters(distance, np.pi / 2, 1, 1, delta=0.0))
    assert abs(omega_numeric - bound) / bound <= 0.01


def test_sweep_threshold_matches_per_point_loop():
    # the vectorised modelled minimum eigenvalue against the per-point loop
    # it replaced, on a grid where numpy's vector power (eta_grid**4) would
    # move the estimate in its last bit
    from weakdrive.runner import _interp_last_sign_change, run_sweep

    config = dict(PAIR_CONFIG)
    del config["eta"]
    config["geometry"] = {"mode": "lattice", "edge": 2, "spacing": 0.9}
    config["partition"] = {"A": [0, 1, 2], "B": [5, 6, 7]}
    config["eta_sweep"] = {"min": 0.001, "max": 0.3, "points": 16}
    cfg = parse_config(config, "sweep")
    report = run_sweep(cfg).report
    l2, l4 = (np.array(report["modes"][k]) for k in ("lambda2", "lambda4"))
    grid = cfg.eta_sweep.grid()
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
        ([1, 2], True, None, "extremum: none, a negative mode never closes (lambda4 = 0)"),
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

    def flaky(liouv):
        # fail one grid point; the walk must keep the others
        if flaky.calls == 1:
            flaky.calls += 1
            raise SolverConvergenceError(1.0, 0)
        flaky.calls += 1
        return real(liouv)

    config = dict(PAIR_CONFIG)
    del config["eta"]
    # the modelled minimum eigenvalue changes sign between the failing
    # point and the last one (eta_model ~ 0.28)
    config["eta_sweep"] = {"min": 0.1, "max": 0.3, "points": 3}
    config["exact"] = task == "sweep"
    cfg = parse_config(config, task)
    grid = cfg.eta_sweep.grid().tolist()
    clean = runner_mod.TASK_RUNNERS[task](cfg, parallelism=1)
    flaky.calls = 0
    monkeypatch.setattr(runner_mod, "steady_state_exact", flaky)
    bundle = runner_mod.TASK_RUNNERS[task](cfg, parallelism=1)
    errors = bundle.report["point_errors"]
    assert [e["eta"] for e in errors] == [grid[1]]
    ((header, rows),) = bundle.tables.values()
    assert [r[0] for r in rows] == [grid[0], grid[2]]
    ((_, clean_rows),) = clean.tables.values()
    assert rows == [clean_rows[0], clean_rows[2]]
    if task == "sweep":
        # the estimate interpolates the model over the whole grid, so an
        # exact failure next to the crossing moves nothing
        assert bundle.report["threshold"] == clean.report["threshold"]
        assert grid[1] < bundle.report["threshold"]["eta_sweep_estimate"] < grid[2]


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
    _, sweep_rows = sweep.tables["sweep"]
    _, oracle_rows = oracle.tables["oracle"]
    assert len(sweep_rows) == len(oracle_rows) == 4
    for (eta, _, n_pt, n_exact), (o_eta, o_exact, o_pt, _) in zip(sweep_rows, oracle_rows):
        assert eta == o_eta
        assert n_pt == o_pt
        assert abs(n_exact - o_exact) <= tol


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
    _, rows = sweep.tables["sweep"]
    eta, _, n_pt = rows[-1]
    assert eta == 0.13
    assert solve.report["negativity"]["negativity_pt"] == n_pt


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

    # too many atoms for the exact solver -> numerical failure
    n = N_CAP + 1
    config["geometry"] = {
        "mode": "explicit",
        "positions": [[float(i), 0.0, 0.0] for i in range(n)],
    }
    config["partition"] = {"A": list(range(n // 2)), "B": list(range(n // 2, n))}
    cfg = _write(tmp_path, config)
    assert cli.main(["oracle-compare", "--config", cfg]) == 3


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


def test_validate_cli_and_fault_injection(capsys):
    assert cli.main(["validate"]) == 0
    out = capsys.readouterr().out
    assert "PASS z_symmetry" in out
    bundle = run_validate(parse_config({"seed": 1}, "validate"), inject="z_asymmetry")
    broken = {c["name"]: c for c in bundle.report["checks"]}
    assert not broken["z_symmetry"]["passed"]
    # the pair solve refuses the asymmetric Z instead of solving it
    assert not broken["phase_invariance"]["passed"]
    assert broken["phase_invariance"]["note"].startswith("pair solve refused")
    assert not bundle.report["all_passed"]


def test_validate_exit_code_on_failure(monkeypatch, capsys):
    failing = ResultBundle(
        report={
            "checks": [
                {"name": "synthetic", "passed": False, "measured": 1.0, "threshold": 0.0}
            ],
            "all_passed": False,
        }
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


def test_lattice_geometry_matches_explicit_corners(tmp_path):
    # the lattice mode numbers its sites with the last axis fastest: the
    # same cube given as explicit positions gives the same outputs
    lattice = dict(PAIR_CONFIG)
    lattice["geometry"] = {"mode": "lattice", "edge": 2, "spacing": 1.3}
    lattice["partition"] = {"A": [0, 1], "B": [6, 7]}
    assert parse_config(lattice, "solve").geometry == lattice["geometry"]
    corners = [[1.3 * i, 1.3 * j, 1.3 * k] for i in (0, 1) for j in (0, 1) for k in (0, 1)]
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
    ],
)
def test_config_file_errors_exit_2(tmp_path, capsys, argv, message):
    invalid = tmp_path / "invalid.json"
    invalid.write_text('{"delta": 0.0,')
    paths = {"missing": str(tmp_path / "absent.json"), "invalid": str(invalid)}
    argv = [a.format(**paths) for a in argv]
    assert cli.main(argv) == 2
    assert f"config error: {message}" in capsys.readouterr().err


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
        ("bounds", {"farfield": {**FARFIELD, "n_b": 0}}, "farfield.n_a"),
        ("bounds", {"farfield": {**FARFIELD, "mean_spacing": -1.0}}, "farfield.mean_spacing"),
    ],
)
def test_invalid_field_exits_2_with_its_path(tmp_path, capsys, task, change, path):
    base = {"solve": PAIR_CONFIG, "sweep": SWEEP_CONFIG, "bounds": {"delta": 0.0}}[task]
    cfg = _write(tmp_path, {**base, **change})
    assert cli.main([task, "--config", cfg]) == 2
    assert f"config error: {path}: " in capsys.readouterr().err
