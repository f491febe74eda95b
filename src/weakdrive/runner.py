"""Task orchestration: solve, sweep, bounds, oracle comparison, validation.

Each task runs on the ensemble, drive, partition and eta grid that
parse_config built and checked, and raises no configuration error.
Sweeps and oracle comparisons solve the amplitudes once and then go over
the eta grid in order and in-process: the partial-transpose cores
(dimension n + 2) of the whole grid are built from one set of
drive-independent pieces and diagonalised as stacks, one eigvalsh call per
block, and the exact column adds one Lindblad steady state per point, all
on one Liouvillian; an oracle comparison always has the exact column.
A point whose exact column raises a package error is recorded in
point_errors and the others go on; the table keeps the points that
passed. A sweep's N_model column, threshold estimate, model threshold and
extremum are read from the model curve of negativity_report on the
sweep's grid, so the estimate covers the whole grid, points whose exact
column failed included. Every table is a mapping from column name to a
1-D numpy array, written by reporting.write_csv. Each runner also builds
the lines that the CLI prints (ResultBundle.summary and failure) from the
values of its report. The --parallel degree is validated and recorded in
the provenance but does not change how points run, so results do not
depend on it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from . import __version__, blas
from .basis import pair_arrays
from .config import RunConfig
from .coupling import coupling_matrix
from .errors import WeakdriveError
from .exact import build_liouvillian, negativity_exact, reduce_state, steady_state_exact
from .farfield import bound_omega, farfield_parameters, lmin_bound, nmax_analytic
from .geometry import Partition, regime_check
from .negativity import build_pt_matrix, negativity_report, pt_negativity_grid
from .perturbation import PerturbState, steady_state
from .reporting import config_hash, fmt_value, write_csv, write_json


@dataclass
class ResultBundle:
    """report.json, CSV tables and console lines of a task: tables maps a
    file stem to its columns, header name to 1-D numpy array (write leaves
    them untouched, so it can run more than once); summary holds the stdout
    lines in order, failure the stderr line, empty when the task passed."""

    report: dict
    tables: dict = field(default_factory=dict)
    summary: list[str] = field(default_factory=list)
    failure: str = ""

    def write(self, outdir: str) -> None:
        os.makedirs(outdir, exist_ok=True)
        write_json(os.path.join(outdir, "report.json"), self.report)
        for name, columns in self.tables.items():
            write_csv(os.path.join(outdir, f"{name}.csv"), columns)


def _provenance(cfg: RunConfig, parallelism: int) -> dict:
    return {
        "task": cfg.task,
        "config_sha256": config_hash(cfg.raw),
        "seed": cfg.seed,
        "version": __version__,
        "parallelism": parallelism,
        "blas_threads": blas.threads(),
    }


# ----------------------------------------------------------------------
# solve
# ----------------------------------------------------------------------

def _amplitude_tables(state: PerturbState) -> dict:
    atoms = np.asarray(state.atoms, dtype=np.int64)
    I, J = pair_arrays(state.n)
    u, v = state.u, state.v
    return {
        "u": {"mu": atoms, "re": u.real, "im": u.imag},
        "v": {"mu": atoms[I], "nu": atoms[J], "re": v.real, "im": v.imag},
    }


def run_solve(cfg: RunConfig, parallelism: int = 1) -> ResultBundle:
    ens, drive, part = cfg.ensemble, cfg.drive, cfg.partition
    coupling = coupling_matrix(ens)
    state = steady_state(coupling, drive, ens)
    regime = regime_check(ens, drive, part)
    report = negativity_report(state, part, dilute_ok=regime.dilute_ok)

    tables = _amplitude_tables(state)
    tables["curve"] = {"eta": report.curve.etas, "N_model": report.curve.values}
    if cfg.dump_coupling:
        z = coupling.ravel()
        mu, nu = np.divmod(np.arange(z.size), ens.n)
        tables["z"] = {"mu": mu, "nu": nu, "re": z.real, "im": z.imag}

    return ResultBundle(
        report={
            "provenance": _provenance(cfg, parallelism),
            "regime": regime.to_dict(),
            "negativity": report.to_dict(),
        },
        tables=tables,
        summary=[f"negativity2 = {fmt_value(report.negativity2)} "
                 f"(entanglement {report.entanglement})"],
    )


# ----------------------------------------------------------------------
# sweep and oracle comparison
# ----------------------------------------------------------------------

def _exact_negativity(liouv, part: Partition, eta: float) -> float:
    """N_exact at one drive strength.

    The exact state is reduced to A then B before the transpose over B, so
    a partition embedded in a larger ensemble is handled like a covering one.
    """
    rho = steady_state_exact(liouv, eta)
    rho_ab = reduce_state(rho, part.atoms, liouv.n)
    b_local = list(range(len(part.group_a), len(part.atoms)))
    n_exact, _ = negativity_exact(rho_ab, b_local, len(part.atoms))
    return n_exact


def _exact_column(state: PerturbState, part: Partition, coupling,
                  grid: np.ndarray) -> tuple[np.ndarray, np.ndarray, list]:
    """N_exact at every grid point in order, each a steady state of one
    Liouvillian: the column (NaN where a point failed), the mask of the
    points that passed, and point_errors for those whose exact solve raised
    a package error."""
    liouv = build_liouvillian(coupling, state.delta, state.w)
    n_exact = np.full(len(grid), np.nan)
    passed = np.ones(len(grid), dtype=bool)
    errors = []
    for k, eta in enumerate(grid.tolist()):
        try:
            n_exact[k] = _exact_negativity(liouv, part, eta)
        except WeakdriveError as exc:
            errors.append({"eta": eta, "error": str(exc)})
            passed[k] = False
    return n_exact, passed, errors


def run_sweep(cfg: RunConfig, parallelism: int = 1) -> ResultBundle:
    ens, drive, part, grid = cfg.ensemble, cfg.drive, cfg.partition, cfg.eta_grid
    coupling = coupling_matrix(ens)
    state = steady_state(coupling, drive, ens)
    regime = regime_check(ens, drive, part)

    rep = negativity_report(state, part, eta_grid=grid)
    curve = rep.curve

    columns = {"eta": grid, "N_model": curve.values, "N_pt": pt_negativity_grid(rep.pt, grid)}
    errors = []
    if cfg.exact:
        columns["N_exact"], passed, errors = _exact_column(state, part, coupling, grid)
        columns = {name: c[passed] for name, c in columns.items()}
    eta_estimate = curve.eta_sweep_estimate
    omega_estimate = None if eta_estimate is None else 2.0 * eta_estimate

    report = {
        "provenance": _provenance(cfg, parallelism),
        "regime": regime.to_dict(),
        "modes": {"lambda2": rep.lambda2.tolist(), "lambda4": rep.lambda4.tolist()},
        "threshold": {
            "eta_sweep_estimate": eta_estimate,
            "omega_sweep_estimate": omega_estimate,
            "eta_model": curve.eta_threshold,
            "omega_model": curve.omega_threshold,
        },
        "extremum": {"eta_max": curve.eta_max, "n_max": curve.n_max},
        "point_errors": errors,
    }
    if eta_estimate is None:
        threshold = "none, the modelled minimum eigenvalue does not change sign on the grid"
    else:
        threshold = f"eta = {fmt_value(eta_estimate)} (omega/Gamma = {fmt_value(omega_estimate)})"
    if curve.eta_max is not None:
        extremum = f"N_max = {fmt_value(curve.n_max)} at eta = {fmt_value(curve.eta_max)}"
    elif curve.n_max is None:
        extremum = "none, a negative mode never closes (lambda4 <= 0) or a mode opens (lambda4 < 0)"
    else:
        extremum = "none, no mode's modelled eigenvalue is negative"
    summary = [f"sweep threshold: {threshold}", f"extremum: {extremum}"]
    if errors:
        summary.append(f"warning: {len(errors)} grid point(s) failed; see report.json")
    return ResultBundle(report=report, tables={"sweep": columns}, summary=summary)


def run_oracle_compare(cfg: RunConfig, parallelism: int = 1) -> ResultBundle:
    part, grid = cfg.partition, cfg.eta_grid
    coupling = coupling_matrix(cfg.ensemble)
    state = steady_state(coupling, cfg.drive, cfg.ensemble)

    n_pt = pt_negativity_grid(build_pt_matrix(state, part), grid)
    n_exact, passed, errors = _exact_column(state, part, coupling, grid)
    columns = {"eta": grid, "N_exact": n_exact, "N_perturbative": n_pt,
               "abs_error": np.abs(n_exact - n_pt)}
    report = {"provenance": _provenance(cfg, parallelism), "point_errors": errors}
    return ResultBundle(report=report,
                        tables={"oracle": {name: c[passed] for name, c in columns.items()}})


# ----------------------------------------------------------------------
# bounds
# ----------------------------------------------------------------------

def run_bounds(cfg: RunConfig, parallelism: int = 1) -> ResultBundle:
    ff = cfg.farfield
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
    values = {
        "D0": params.d0,
        "bound_omega": bound_omega(params),
        "N_max": n_max,
        "eta_max": eta_max,
        "L_min": l_min,
        "n_min": n_min,
    }
    return ResultBundle(
        report={"provenance": _provenance(cfg, parallelism), **values},
        summary=[f"{key} = {fmt_value(value)}" for key, value in values.items()],
    )


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------

def run_validate(cfg: RunConfig, parallelism: int = 1) -> ResultBundle:
    from .checks import run_checks  # only validate needs the checks module

    results = run_checks(seed=cfg.seed)
    passed = all(r.passed for r in results)
    report = {
        "provenance": _provenance(cfg, parallelism),
        "checks": [r.to_dict() for r in results],
        "all_passed": passed,
    }
    summary = [f"{'PASS' if r.passed else 'FAIL'} {r.name}: measured={float(r.measured)!r} "
               f"threshold={float(r.threshold)!r}" for r in results]
    if passed:
        summary.append("validation passed")
    return ResultBundle(report=report, summary=summary,
                        failure="" if passed else "validation FAILED")


TASK_RUNNERS = {
    "solve": run_solve,
    "sweep": run_sweep,
    "bounds": run_bounds,
    "oracle-compare": run_oracle_compare,
    "validate": run_validate,
}
