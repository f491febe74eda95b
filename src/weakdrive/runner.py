"""Task orchestration: solve, sweep, bounds, oracle comparison, validation.

Sweeps and oracle comparisons solve the amplitudes once and then walk the
eta grid in order, in-process: a grid point costs one partial-transpose
core of dimension n + 2 (plus, with the exact column, one Lindblad steady
state). A point that raises a package error is recorded in point_errors
and the walk goes on. The --parallel degree is validated and recorded in
the provenance but does not change how points run, so results do not
depend on it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import __version__
from .basis import pair_arrays
from .checks import run_checks
from .config import RunConfig, build_drive, build_ensemble, build_partition
from .coupling import coupling_matrix
from .errors import CapExceededError, ConfigError, WeakdriveError
from .exact import (
    N_CAP,
    build_liouvillian,
    negativity_exact,
    reduce_state,
    steady_state_exact,
)
from .farfield import bound_omega, farfield_parameters, lmin_bound, nmax_analytic
from .geometry import Partition, regime_check
from .negativity import (
    build_pt_matrix,
    build_V,
    lambda2_spectrum,
    lambda4_dilute,
    model_negativity_at,
    negativity_model,
    negativity_report,
    pt_negativity,
)
from .perturbation import PerturbState, restrict_state, steady_state
from .reporting import config_hash, ensure_dir, write_csv, write_json


@dataclass
class ResultBundle:
    report: dict
    tables: dict = field(default_factory=dict)

    def write(self, outdir: str) -> None:
        ensure_dir(outdir)
        write_json(os.path.join(outdir, "report.json"), self.report)
        for name, (header, rows) in self.tables.items():
            write_csv(os.path.join(outdir, f"{name}.csv"), header, rows)


def _provenance(cfg: RunConfig, parallelism: int) -> dict:
    return {
        "task": cfg.task,
        "config_sha256": config_hash(cfg.raw),
        "seed": cfg.seed,
        "version": __version__,
        "parallelism": parallelism,
    }


# ----------------------------------------------------------------------
# solve
# ----------------------------------------------------------------------

def _amplitude_tables(state: PerturbState) -> dict:
    tables = {}
    tables["u"] = (
        ["mu", "re", "im"],
        [[a, state.u[i].real, state.u[i].imag] for i, a in enumerate(state.atoms)],
    )
    I, J = pair_arrays(state.n)
    tables["v"] = (
        ["mu", "nu", "re", "im"],
        [
            [state.atoms[i], state.atoms[j], state.v[k].real, state.v[k].imag]
            for k, (i, j) in enumerate(zip(I, J))
        ],
    )
    return tables


def run_solve(cfg: RunConfig, parallelism: int = 1) -> ResultBundle:
    ens = build_ensemble(cfg)
    drive = build_drive(cfg, ens)
    part = build_partition(cfg, ens)
    coupling = coupling_matrix(ens)
    state = steady_state(coupling, drive, ens)
    regime = regime_check(ens, drive, part, farfield=True)
    report = negativity_report(state, part, dilute_ok=regime.dilute_ok)

    tables = _amplitude_tables(state)
    tables["curve"] = (
        ["eta", "N_model"],
        [[e, v] for e, v in zip(report.curve.etas, report.curve.values)],
    )
    if cfg.dump_coupling:
        z = coupling.dense()
        rows = [
            [a, b, z[a, b].real, z[a, b].imag]
            for a in range(ens.n)
            for b in range(ens.n)
        ]
        tables["z"] = (["mu", "nu", "re", "im"], rows)

    bundle = ResultBundle(
        report={
            "provenance": _provenance(cfg, parallelism),
            "regime": regime.to_dict(),
            "negativity": report.to_dict(),
        },
        tables=tables,
    )
    return bundle


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------

def _sweep_point(state: PerturbState, part: Partition, l2, l4, coupling, eta: float) -> dict:
    """One sweep row; coupling is None unless the exact column is asked for."""
    row = {"eta": eta}
    try:
        row["n_model"] = float(model_negativity_at(l2, l4, eta)[0])
        lam = eta**2 * l2 + eta**4 * l4
        row["min_lambda_model"] = float(lam.min()) if len(lam) else 0.0
        n_pt, _ = pt_negativity(build_pt_matrix(replace(state, eta=eta), part))
        row["n_pt"] = n_pt
        if coupling is not None:
            liouv = build_liouvillian(coupling, state.delta, state.w, eta)
            rho = steady_state_exact(liouv)
            rho_ab = reduce_state(rho, part.atoms, state.n)
            b_local = list(range(len(part.group_a), len(part.atoms)))
            n_exact, _ = negativity_exact(rho_ab, b_local, len(part.atoms))
            row["n_exact"] = n_exact
    except WeakdriveError as exc:
        row["error"] = str(exc)
    return row


def _interp_last_sign_change(x: np.ndarray, y: np.ndarray) -> Optional[float]:
    sign = np.sign(y)
    idx = np.where(sign[:-1] * sign[1:] < 0)[0]
    if len(idx) == 0:
        return None
    k = idx[-1]
    return float(x[k] - y[k] * (x[k + 1] - x[k]) / (y[k + 1] - y[k]))


def run_sweep(cfg: RunConfig, parallelism: int = 1) -> ResultBundle:
    ens = build_ensemble(cfg)
    drive = build_drive(cfg, ens, eta=cfg.eta_sweep.lo)
    part = build_partition(cfg, ens)
    if cfg.exact and ens.n > N_CAP:
        raise ConfigError("exact", f"exact columns need {N_CAP} atoms or fewer")
    coupling = coupling_matrix(ens)
    state = steady_state(coupling, drive, ens)
    regime = regime_check(ens, drive, part, farfield=True)

    V = build_V(state, part)
    l2, vecs = lambda2_spectrum(V)
    sub = restrict_state(
        state, tuple(sorted(part.group_a)) + tuple(sorted(part.group_b))
    )
    l4 = np.array(
        [lambda4_dilute(vecs[:, k], sub.w, state.delta) for k in range(len(l2))]
    )

    grid = cfg.eta_sweep.grid()
    exact_coupling = coupling if cfg.exact else None
    rows = [_sweep_point(state, part, l2, l4, exact_coupling, float(e)) for e in grid]

    ok = [r for r in rows if "error" not in r]
    etas = np.array([r["eta"] for r in ok])
    min_lam = np.array([r["min_lambda_model"] for r in ok])
    model = negativity_model(l2, l4, grid)
    threshold_eta = _interp_last_sign_change(etas, min_lam) if len(ok) else None

    header = ["eta", "N_model", "N_pt"] + (["N_exact"] if cfg.exact else [])
    table_rows = []
    errors = []
    for r in rows:
        if "error" in r:
            errors.append({"eta": r["eta"], "error": r["error"]})
            continue
        line = [r["eta"], r["n_model"], r["n_pt"]]
        if cfg.exact:
            line.append(r["n_exact"])
        table_rows.append(line)

    report = {
        "provenance": _provenance(cfg, parallelism),
        "regime": regime.to_dict(),
        "modes": {"lambda2": l2.tolist(), "lambda4": l4.tolist()},
        "threshold": {
            "eta_sweep_estimate": threshold_eta,
            "omega_sweep_estimate": None if threshold_eta is None else 2.0 * threshold_eta,
            "eta_model": model.eta_threshold,
            "omega_model": model.omega_threshold,
        },
        "extremum": {"eta_max": model.eta_max, "n_max": model.n_max},
        "point_errors": errors,
    }
    return ResultBundle(report=report, tables={"sweep": (header, table_rows)})


# ----------------------------------------------------------------------
# oracle comparison
# ----------------------------------------------------------------------

def _oracle_point(state: PerturbState, part: Partition, coupling, eta: float) -> dict:
    row = {"eta": eta}
    try:
        liouv = build_liouvillian(coupling, state.delta, state.w, eta)
        rho = steady_state_exact(liouv)
        n_exact, _ = negativity_exact(rho, list(part.group_b), state.n)
        n_pt, _ = pt_negativity(build_pt_matrix(replace(state, eta=eta), part))
        row["n_exact"] = n_exact
        row["n_pt"] = n_pt
    except WeakdriveError as exc:
        row["error"] = str(exc)
    return row


def run_oracle_compare(cfg: RunConfig, parallelism: int = 1) -> ResultBundle:
    ens = build_ensemble(cfg)
    drive = build_drive(cfg, ens, eta=cfg.eta_sweep.lo)
    part = build_partition(cfg, ens)
    if set(part.atoms) != set(range(ens.n)):
        raise ConfigError("partition", "oracle comparison needs A u B to cover all atoms")
    if ens.n > N_CAP:
        raise CapExceededError(f"exact solver capped at {N_CAP} atoms, got {ens.n}")
    coupling = coupling_matrix(ens)
    state = steady_state(coupling, drive, ens)

    rows = [_oracle_point(state, part, coupling, float(e)) for e in cfg.eta_sweep.grid()]

    table_rows = []
    errors = []
    for r in rows:
        if "error" in r:
            errors.append({"eta": r["eta"], "error": r["error"]})
            continue
        table_rows.append(
            [r["eta"], r["n_exact"], r["n_pt"], abs(r["n_exact"] - r["n_pt"])]
        )
    report = {
        "provenance": _provenance(cfg, parallelism),
        "point_errors": errors,
    }
    return ResultBundle(
        report=report,
        tables={"oracle": (["eta", "N_exact", "N_perturbative", "abs_error"], table_rows)},
    )


# ----------------------------------------------------------------------
# bounds
# ----------------------------------------------------------------------

def run_bounds(cfg: RunConfig, parallelism: int = 1) -> ResultBundle:
    ff = cfg.farfield
    if ff is None:
        raise ConfigError("farfield", "required for the bounds task")
    params = farfield_parameters(
        distance=ff["k0_distance"],
        theta=ff["theta"],
        n_a=ff["n_a"],
        n_b=ff["n_b"],
        delta=cfg.delta,
    )
    n_max, eta_max = nmax_analytic(params)
    l_min, n_min = lmin_bound(
        spacing=ff["mean_spacing"],
        delta=cfg.delta,
        k0_distance=ff["k0_distance"],
        omega_over_gamma=ff["omega_over_gamma"],
        theta=ff["theta"],
    )
    report = {
        "provenance": _provenance(cfg, parallelism),
        "D0": params.d0,
        "bound_omega": bound_omega(params),
        "N_max": n_max,
        "eta_max": eta_max,
        "L_min": l_min,
        "n_min": n_min,
    }
    return ResultBundle(report=report)


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------

def run_validate(cfg: RunConfig, parallelism: int = 1, inject: Optional[str] = None) -> ResultBundle:
    results = run_checks(seed=cfg.seed if cfg.seed else 1, inject=inject)
    report = {
        "provenance": _provenance(cfg, parallelism),
        "checks": [r.to_dict() for r in results],
        "all_passed": all(r.passed for r in results),
    }
    return ResultBundle(report=report)


TASK_RUNNERS = {
    "solve": run_solve,
    "sweep": run_sweep,
    "bounds": run_bounds,
    "oracle-compare": run_oracle_compare,
    "validate": run_validate,
}
