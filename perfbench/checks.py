"""Output checks in plain numpy, independent of the package's code paths.

Each check returns a list of problems ``(point, message)``.  ``point`` is
the index of the failed eta grid point, or ``None`` when the whole task
invocation failed.

- ``solve``: the ``u`` and ``v`` residuals are recomputed from ``u.csv``,
  ``v.csv``, the generated positions and the coupling formula of the
  README, ``z(r, c) = (3/4) e^{ir}/r^3 {(1 - 3c^2)(i + r) - i(1 - c^2) r^2}``
  with ``z_ii = 1/2``.  Both must be at most ``RESIDUAL_TOL``.
- ``sweep``: ``N_pt`` is recomputed at every point through the compressed
  partial transpose, an (m + 2)-dimensional Hermitian core instead of the
  full truncated basis, from amplitudes solved here by dense numpy;
  ``N_model`` is recomputed from the reported mode coefficients, and
  ``lambda2`` against the singular values of the recomputed ``V``.
- ``oracle-compare``: ``N_exact`` from the steady state of the rotating-frame
  Lindblad generator, found here by one LU solve with the trace condition
  in place of a row (the package diagonalises the generator instead);
  ``N_perturbative`` through the compressed route above; ``abs_error``
  against the two columns.
- ``sweep.csv`` and ``oracle.csv`` are compared with the stored reference
  when the seed has one.

Tolerances are the repository tests' own: ``rel=1e-12`` where the tests
compare reported values, ``abs=1e-12`` for negativities below one.
"""

from __future__ import annotations

import json
import os

import numpy as np

RESIDUAL_TOL = 1e-10
VALUE_TOL = 1e-12
# lambda2 comes from a different linear solve here, so it is compared at
# the residual gate's level, scaled by its largest magnitude
MODE_TOL = 1e-10


def coupling(positions: np.ndarray, dipole) -> np.ndarray:
    sep = positions[:, None, :] - positions[None, :, :]
    r = np.linalg.norm(sep, axis=-1)
    np.fill_diagonal(r, 1.0)
    c = (sep @ np.asarray(dipole, dtype=float)) / r
    z = 0.75 * np.exp(1j * r) / r**3 * ((1 - 3 * c * c) * (1j + r) - 1j * (1 - c * c) * r * r)
    np.fill_diagonal(z, 0.5)
    return z


def drive(workload, positions: np.ndarray, beam) -> np.ndarray:
    w = np.exp(1j * (positions @ np.asarray(beam, dtype=float)))
    if workload.masked:
        lit = np.zeros(workload.n, dtype=bool)
        lit[list(workload.group_a) + list(workload.group_b)] = True
        w[~lit] = 0.0
    return w


def read_csv(path: str) -> tuple[list[str], np.ndarray]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


def solve_amplitudes(z: np.ndarray, w: np.ndarray, delta: float):
    """u and the symmetric zero-diagonal pair matrix, by dense numpy solves."""
    n = len(w)
    u = np.linalg.solve(z - 1j * delta * np.eye(n), 1j * w)
    I, J = np.triu_indices(n, 1)
    # (Z S + S Z) on the vectorised S is (Z kron 1 + 1 kron Z); S is fed
    # through both (i, j) and (j, i) entries and read back at (i, j)
    k = np.kron(z, np.eye(n)) + np.kron(np.eye(n), z)
    ij, ji = I * n + J, J * n + I
    a = k[np.ix_(ij, ij)] + k[np.ix_(ij, ji)] - 2j * delta * np.eye(len(I))
    v = np.linalg.solve(a, z[I, J] * (u[I] ** 2 + u[J] ** 2))
    s = np.zeros((n, n), dtype=complex)
    s[I, J] = v
    s[J, I] = v
    return u, s


def pt_negativity(u: np.ndarray, s: np.ndarray, group_a, group_b, eta: float) -> float:
    """Negativity of the second-order partial transpose over B.

    The pair block of the partial transpose is zero and the pairs couple
    only to the ground state through one column c, so its spectrum is that
    of the core [ground, singles, c/|c|] plus exact zeros.
    """
    order = sorted(group_a) + sorted(group_b)
    na, m = len(group_a), len(order)
    u = u[order]
    s = s[np.ix_(order, order)]
    in_a = np.arange(m) < na
    e2 = eta * eta

    single = e2 * np.where(
        in_a[:, None] & in_a[None, :], np.outer(u, u.conj()),
        np.where(~in_a[:, None] & ~in_a[None, :], np.outer(u.conj(), u), 0),
    )
    cross = e2 * (np.outer(u, u) + s)
    single[np.ix_(in_a, ~in_a)] = cross[np.ix_(in_a, ~in_a)]
    single[np.ix_(~in_a, in_a)] = cross[np.ix_(~in_a, in_a)].conj()

    I, J = np.triu_indices(m, 1)
    amp = e2 * (u[I] * u[J] + s[I, J])
    col = np.where(J < na, amp.conj(), np.where(I >= na, amp, e2 * u[I].conj() * u[J]))

    core = np.zeros((m + 2, m + 2), dtype=complex)
    core[0, 0] = 1.0 - e2 * np.sum(np.abs(u) ** 2)
    row = eta * np.where(in_a, u.conj(), u)
    core[0, 1 : m + 1] = row
    core[1 : m + 1, 0] = row.conj()
    core[1 : m + 1, 1 : m + 1] = single
    core[0, m + 1] = core[m + 1, 0] = np.linalg.norm(col)
    spectrum = np.linalg.eigvalsh(core)
    return float(-spectrum[spectrum < 0].sum())


def exact_negativity(z: np.ndarray, w: np.ndarray, delta: float, eta: float, group_b) -> float:
    """Negativity over B of the exact steady state of
    d rho/dt = -i[H, rho] - sum_ab (z_ab s_a^+ s_b rho + z_ab^* rho s_a^+ s_b
    - 2 Re z_ab s_a rho s_b^+), with H = -delta N - eta (W + W^+),
    W = sum_a w_a^* s_a, atom 0 the leading tensor factor."""
    n = len(w)
    d = 2**n
    lower = np.array([[0.0, 1.0], [0.0, 0.0]])
    s = np.empty((n, d, d))
    for a in range(n):
        op = np.ones((1, 1))
        for k in range(n):
            op = np.kron(op, lower if k == a else np.eye(2))
        s[a] = op
    drive_op = np.einsum("a,aij->ij", w.conj(), s)
    h = -delta * np.einsum("aji,ajk->ik", s, s) - eta * (drive_op + drive_op.conj().T)
    left = -1j * h - np.einsum("ab,aji,bjk->ik", z, s, s)
    right = 1j * h - np.einsum("ab,aji,bjk->ik", z.conj(), s, s)
    # row-major vec: A rho B -> kron(A, B^T)
    gen = np.kron(left, np.eye(d)) + np.kron(np.eye(d), right.T)
    gen += np.einsum("ab,aij,bkl->ikjl", 2.0 * z.real, s, s).reshape(d * d, d * d)
    gen[0] = 0.0
    gen[0, np.arange(d) * (d + 1)] = 1.0
    rhs = np.zeros(d * d, dtype=complex)
    rhs[0] = 1.0
    rho = np.linalg.solve(gen, rhs).reshape(d, d)
    rho = 0.5 * (rho + rho.conj().T)
    perm = list(range(2 * n))
    for b in group_b:
        perm[b], perm[n + b] = perm[n + b], perm[b]
    spectrum = np.linalg.eigvalsh(rho.reshape((2,) * (2 * n)).transpose(perm).reshape(d, d))
    return float(-spectrum[spectrum < 0].sum())


def _close(got: float, want: float, tol: float = VALUE_TOL) -> bool:
    return abs(got - want) <= tol * max(1.0, abs(want))


def _grid(sweep: dict) -> np.ndarray:
    if sweep.get("log"):
        return np.geomspace(sweep["min"], sweep["max"], sweep["points"])
    return np.linspace(sweep["min"], sweep["max"], sweep["points"])


def _point_errors(report: dict, etas: np.ndarray) -> list:
    out = []
    for err in report.get("point_errors", []):
        k = int(np.argmin(np.abs(etas - err["eta"])))
        out.append((k, f"point error at eta={err['eta']}: {err['error']}"))
    return out


def _table(outdir: str, name: str, header: list, rows: int):
    header_got, data = read_csv(os.path.join(outdir, name))
    if header_got != header:
        raise ValueError(f"{name}: header {header_got}, expected {header}")
    if data.shape[0] != rows:
        raise ValueError(f"{name}: {data.shape[0]} rows, expected {rows}")
    return data


def check_solve(workload, positions, cfg: dict, outdir: str, reference=None) -> list:
    n, delta = workload.n, cfg["delta"]
    z = coupling(positions, cfg["dipole"])
    w = drive(workload, positions, cfg["beam"]["direction"])
    problems = []

    u_rows = _table(outdir, "u.csv", ["mu", "re", "im"], n)
    I, J = np.triu_indices(n, 1)
    v_rows = _table(outdir, "v.csv", ["mu", "nu", "re", "im"], len(I))
    if not (np.array_equal(u_rows[:, 0], np.arange(n))
            and np.array_equal(v_rows[:, 0], I) and np.array_equal(v_rows[:, 1], J)):
        return [(None, "u.csv/v.csv atom labels out of order")]
    u = u_rows[:, 1] + 1j * u_rows[:, 2]
    v = v_rows[:, 2] + 1j * v_rows[:, 3]
    s = np.zeros((n, n), dtype=complex)
    s[I, J] = v
    s[J, I] = v

    res_u = float(np.max(np.abs(z @ u - 1j * delta * u - 1j * w)))
    zs = z @ s
    lhs = (zs + zs.T)[I, J] - 2j * delta * v
    res_v = float(np.max(np.abs(lhs - z[I, J] * (u[I] ** 2 + u[J] ** 2))))
    for name, res in (("u", res_u), ("v", res_v)):
        if not res <= RESIDUAL_TOL:
            problems.append((None, f"{name} residual {res:.3e} > {RESIDUAL_TOL:g}"))

    with open(os.path.join(outdir, "report.json")) as fh:
        neg = json.load(fh)["negativity"]
    vab = s[np.ix_(sorted(workload.group_a), sorted(workload.group_b))]
    want = cfg["eta"] ** 2 * np.linalg.svd(vab, compute_uv=False).sum()
    if not _close(neg["negativity2"], want):
        problems.append((None, f"negativity2 {neg['negativity2']!r}, recomputed {want!r}"))
    return problems


def check_sweep(workload, positions, cfg: dict, outdir: str, reference=None) -> list:
    etas = _grid(cfg["eta_sweep"])
    with open(os.path.join(outdir, "report.json")) as fh:
        report = json.load(fh)
    problems = _point_errors(report, etas)
    failed = {k for k, _ in problems}
    data = _table(outdir, "sweep.csv", ["eta", "N_model", "N_pt"], len(etas) - len(failed))
    ok = [k for k in range(len(etas)) if k not in failed]

    z = coupling(positions, cfg["dipole"])
    w = drive(workload, positions, cfg["beam"]["direction"])
    u, s = solve_amplitudes(z, w, cfg["delta"])
    a, b = sorted(workload.group_a), sorted(workload.group_b)

    l2 = np.asarray(report["modes"]["lambda2"])
    l4 = np.asarray(report["modes"]["lambda4"])
    sv = np.linalg.svd(s[np.ix_(a, b)], compute_uv=False)
    want_l2 = np.sort(np.concatenate([sv, -sv, np.zeros(len(l2) - 2 * len(sv))]))
    scale = max(1.0, float(np.max(np.abs(want_l2))))
    if len(l2) != len(want_l2) or np.max(np.abs(np.sort(l2) - want_l2)) > MODE_TOL * scale:
        problems.append((None, "lambda2 differs from the singular values of V"))

    for row, k in zip(data, ok):
        eta = row[0]
        if not _close(eta, etas[k], 1e-15):
            problems.append((k, f"eta {eta!r} off the grid value {etas[k]!r}"))
            continue
        lam = eta**2 * l2 + eta**4 * l4
        n_model = float(np.sum(np.where(lam < 0, -lam, 0.0)))
        if not _close(row[1], n_model):
            problems.append((k, f"N_model {row[1]!r}, recomputed {n_model!r}"))
        n_pt = pt_negativity(u, s, a, b, eta)
        if not _close(row[2], n_pt):
            problems.append((k, f"N_pt {row[2]!r}, recomputed {n_pt!r}"))
    return problems + _against_reference(data, ok, reference)


def check_oracle(workload, positions, cfg: dict, outdir: str, reference=None) -> list:
    etas = _grid(cfg["eta_sweep"])
    with open(os.path.join(outdir, "report.json")) as fh:
        report = json.load(fh)
    problems = _point_errors(report, etas)
    failed = {k for k, _ in problems}
    header = ["eta", "N_exact", "N_perturbative", "abs_error"]
    data = _table(outdir, "oracle.csv", header, len(etas) - len(failed))
    ok = [k for k in range(len(etas)) if k not in failed]

    z = coupling(positions, cfg["dipole"])
    w = drive(workload, positions, cfg["beam"]["direction"])
    u, s = solve_amplitudes(z, w, cfg["delta"])
    for row, k in zip(data, ok):
        eta, n_exact, n_pert, err = row
        if not _close(eta, etas[k], 1e-15):
            problems.append((k, f"eta {eta!r} off the grid value {etas[k]!r}"))
            continue
        exact = exact_negativity(z, w, cfg["delta"], eta, workload.group_b)
        if not _close(n_exact, exact):
            problems.append((k, f"N_exact {n_exact!r}, recomputed {exact!r}"))
        if not _close(err, abs(n_exact - n_pert)):
            problems.append((k, f"abs_error {err!r} != |N_exact - N_perturbative|"))
        pert = pt_negativity(u, s, workload.group_a, workload.group_b, eta)
        if not _close(n_pert, pert):
            problems.append((k, f"N_perturbative {n_pert!r}, recomputed {pert!r}"))
    return problems + _against_reference(data, ok, reference)


def _against_reference(data: np.ndarray, ok: list, reference) -> list:
    if reference is None:
        return []
    ref = np.asarray(reference, dtype=float)
    problems = []
    for row, k in zip(data, ok):
        for col, (got, want) in enumerate(zip(row, ref[k])):
            if not _close(got, want):
                problems.append((k, f"column {col} = {got!r}, reference {want!r}"))
    return problems


CHECKS = {"solve": check_solve, "sweep": check_sweep, "oracle-compare": check_oracle}


def check_outputs(workload, positions, cfg: dict, outdir: str, reference=None) -> list:
    """All problems found in one invocation's output directory."""
    try:
        return CHECKS[workload.task](workload, positions, cfg, outdir, reference)
    except (OSError, ValueError, KeyError, IndexError, json.JSONDecodeError) as exc:
        return [(None, f"unreadable output: {exc!r}")]
