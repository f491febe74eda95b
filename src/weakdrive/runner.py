"""Task orchestration: solve, sweep, bounds, oracle comparison, validation.

Sweeps and oracle comparisons solve the amplitudes once and then share one
walk over the eta grid, in order and in-process: the partial-transpose
cores (dimension n + 2) of the whole grid are built from one set of
drive-independent pieces and diagonalised as stacks, one eigvalsh call per
block, and with the exact column each point adds one Lindblad steady
state; an oracle comparison is that walk with the exact column always on.
A point whose exact column raises a package error is recorded in
point_errors and the walk goes on. The --parallel degree is validated and
recorded in the provenance but does not change how points run, so results
do not depend on it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
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
from .negativity import PartialTransposeMatrix, build_pt_matrix, negativity_report, pt_negativity_grid
from .perturbation import PerturbState, steady_state
from .reporting import config_hash, write_csv, write_json


@dataclass
class ResultBundle:
    report: dict
    tables: dict = field(default_factory=dict)

    def write(self, outdir: str) -> None:
        os.makedirs(outdir, exist_ok=True)
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
    atoms = np.asarray(state.atoms, dtype=np.int64)
    I, J = pair_arrays(state.n)
    u, v = state.u, state.v
    u_rows = zip(atoms.tolist(), u.real.tolist(), u.imag.tolist())
    v_rows = zip(atoms[I].tolist(), atoms[J].tolist(), v.real.tolist(), v.imag.tolist())
    return {
        "u": (["mu", "re", "im"], list(u_rows)),
        "v": (["mu", "nu", "re", "im"], list(v_rows)),
    }


def run_solve(cfg: RunConfig, parallelism: int = 1) -> ResultBundle:
    ens = build_ensemble(cfg)
    drive = build_drive(cfg, ens)
    part = build_partition(cfg, ens)
    coupling = coupling_matrix(ens)
    state = steady_state(coupling, drive, ens)
    regime = regime_check(ens, drive, part)
    report = negativity_report(state, part, dilute_ok=regime.dilute_ok)

    tables = _amplitude_tables(state)
    tables["curve"] = (
        ["eta", "N_model"],
        list(zip(report.curve.etas.tolist(), report.curve.values.tolist())),
    )
    if cfg.dump_coupling:
        z = coupling.z.ravel()
        mu, nu = np.divmod(np.arange(z.size), ens.n)
        rows = list(zip(mu.tolist(), nu.tolist(), z.real.tolist(), z.imag.tolist()))
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
# sweep and oracle comparison
# ----------------------------------------------------------------------

def _exact_negativity(state: PerturbState, part: Partition, coupling, eta: float) -> float:
    """N_exact at one drive strength.

    The exact state is reduced to A then B before the transpose over B, so
    a partition embedded in a larger ensemble is handled like a covering one.
    """
    rho = steady_state_exact(build_liouvillian(coupling, state.delta, state.w, eta))
    rho_ab = reduce_state(rho, part.atoms, state.n)
    b_local = list(range(len(part.group_a), len(part.atoms)))
    n_exact, _ = negativity_exact(rho_ab, b_local, len(part.atoms))
    return n_exact


def _walk_grid(pt: PartialTransposeMatrix, state: PerturbState, part: Partition, coupling,
               grid: np.ndarray) -> tuple[list, list]:
    """Every grid point in order: rows (k, eta, N_pt, N_exact) that passed,
    and point_errors for those whose exact column raised a package error.

    N_pt comes from pt_negativity_grid of pt over the whole grid; N_exact is
    solved per point, or None when coupling is None.
    """
    n_pt = pt_negativity_grid(pt, grid).tolist()
    rows, errors = [], []
    for k, eta in enumerate(grid.tolist()):
        try:
            n_exact = None if coupling is None else _exact_negativity(state, part, coupling, eta)
        except WeakdriveError as exc:
            errors.append({"eta": eta, "error": str(exc)})
            continue
        rows.append((k, eta, n_pt[k], n_exact))
    return rows, errors


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
    regime = regime_check(ens, drive, part)

    grid = cfg.eta_sweep.grid()
    rep = negativity_report(state, part, eta_grid=grid)
    curve = rep.curve
    l2, l4 = rep.lambda2, rep.lambda4

    rows, errors = _walk_grid(rep.pt, state, part, coupling if cfg.exact else None, grid)
    n_model = curve.values.tolist()
    header = ["eta", "N_model", "N_pt"] + (["N_exact"] if cfg.exact else [])
    table_rows = [
        [eta, n_model[k], n_pt] + ([n_exact] if cfg.exact else [])
        for k, eta, n_pt, n_exact in rows
    ]
    # the modelled minimum eigenvalue exists at every grid point, whether or
    # not that point's exact column failed; float_power is libm pow, as the
    # scalar eta**2 and eta**4 are, bit for bit
    e = grid[:, None]
    min_lam = (np.float_power(e, 2) * l2 + np.float_power(e, 4) * l4).min(axis=1)
    threshold_eta = _interp_last_sign_change(grid, min_lam)

    report = {
        "provenance": _provenance(cfg, parallelism),
        "regime": regime.to_dict(),
        "modes": {"lambda2": l2.tolist(), "lambda4": l4.tolist()},
        "threshold": {
            "eta_sweep_estimate": threshold_eta,
            "omega_sweep_estimate": None if threshold_eta is None else 2.0 * threshold_eta,
            "eta_model": curve.eta_threshold,
            "omega_model": curve.omega_threshold,
        },
        "extremum": {"eta_max": curve.eta_max, "n_max": curve.n_max},
        "point_errors": errors,
    }
    return ResultBundle(report=report, tables={"sweep": (header, table_rows)})


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

    pt = build_pt_matrix(state, part)
    rows, errors = _walk_grid(pt, state, part, coupling, cfg.eta_sweep.grid())
    table_rows = [
        [eta, n_exact, n_pt, abs(n_exact - n_pt)] for _, eta, n_pt, n_exact in rows
    ]
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
    results = run_checks(seed=cfg.seed, inject=inject)
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
