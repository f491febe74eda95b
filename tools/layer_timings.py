"""Import time, line count and in-process wall times of three solver
layers, printed one line each.

- the cumulative import time of weakdrive.cli in a fresh interpreter
  (python -X importtime);
- the peak resident memory (VmHWM of /proc/self/status) of a fresh
  interpreter after import weakdrive.cli, and whether that import loaded
  _hashlib (OpenSSL's libcrypto), scipy.linalg and weakdrive.checks;
- the CPU time used by the threads other than the main one (OpenBLAS's
  pool) of a fresh interpreter that imports weakdrive.cli and then idles
  300 ms, summed from /proc/self/task/*/stat, with the idle timeout in
  force (weakdrive.blas);
- the line count of src/weakdrive/*.py and the number of public names
  the weakdrive package exports (its submodules not counted);
- the OpenBLAS thread count of the process (null when none is found),
  and solve_v on a 160-atom random cloud (5 calls) and on a 320-atom
  cloud of the same density (1 call) under the CLI's one-thread policy
  (weakdrive.blas.one_thread), each with the DEBUG record solve_v logs on
  weakdrive.perturbation: the skeleton rank of G, the refinement steps
  and the final residual;
- perturbation._skeleton alone, on the Cauchy matrix G of that 160-atom
  cloud and of the 6^3 lattice at spacing 1 (delta = 0.3, 20 calls each),
  with the rank R of the skeleton;
- the tracemalloc peaks of one solve_v on that cloud and of building and
  writing its solve tables (u.csv and v.csv, 12,720 pairs) to a
  temporary directory;
- a sweep's negativity layer, negativity_report plus pt_negativity_grid,
  on a 40-atom half/half cloud over 50 eta points (20 calls);
- the exact oracle's grid, steady_state_exact at four log-spaced eta from
  0.01 to 0.1 on one Liouvillian, on 5 atoms (20 calls) and on 4 + 4
  atoms (5 calls); each call builds a fresh Liouvillian, so it factors
  the levels and grows the Krylov basis again.

Run from the repository root:

    PYTHONPATH=src python tools/layer_timings.py

The numbers are recorded, not gated: they depend on the machine and on
its load.
"""

import logging
import subprocess
import sys
import tempfile
import time
import tracemalloc
import types
from pathlib import Path

# weakdrive first, so that its OpenBLAS idle timeout is set before numpy
# loads OpenBLAS (weakdrive.blas)
import weakdrive
import numpy as np

from weakdrive import (Drive, Partition, PlaneWave, blas, coupling_matrix, lattice_ensemble,
                       random_ensemble)
from weakdrive.exact import build_liouvillian, steady_state_exact
from weakdrive.negativity import negativity_report, pt_negativity_grid
from weakdrive.perturbation import SKELETON_RTOL, _skeleton, solve_u, solve_v, steady_state
from weakdrive.runner import ResultBundle, _amplitude_tables

DIPOLE = [0.0, 0.0, 1.0]
BEAM = PlaneWave(np.array([0.0, 1.0, 0.0]))
PACKAGE = Path(__file__).resolve().parent.parent / "src" / "weakdrive"


def _times(call, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    return times


def import_time_line() -> str:
    """Last line of -X importtime for weakdrive.cli: its cumulative time."""
    run = subprocess.run([sys.executable, "-X", "importtime", "-c", "import weakdrive.cli"],
                         capture_output=True, text=True, check=True)
    return run.stderr.strip().splitlines()[-1]


FOOTPRINT_SCRIPT = """
import sys
import weakdrive.cli
with open("/proc/self/status") as fh:
    hwm_kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
loaded = ", ".join(f"{m} {'yes' if m in sys.modules else 'no'}"
                   for m in ("_hashlib", "scipy.linalg", "weakdrive.checks"))
print(f"VmHWM {hwm_kb / 1024:.2f} MB; loaded: {loaded}")
"""


def import_footprint_line() -> str:
    """VmHWM of a fresh interpreter after import weakdrive.cli, and which
    of _hashlib, scipy.linalg and weakdrive.checks the import loaded."""
    run = subprocess.run([sys.executable, "-c", FOOTPRINT_SCRIPT],
                         capture_output=True, text=True, check=True)
    return run.stdout.strip()


IDLE_POOL_SCRIPT = """
import os, time
import weakdrive.cli
time.sleep(0.3)
ticks = 0
for tid in os.listdir("/proc/self/task"):
    if tid != str(os.getpid()):
        with open(f"/proc/self/task/{tid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        ticks += int(fields[11]) + int(fields[12])  # utime, stime
print(f"{1e3 * ticks / os.sysconf('SC_CLK_TCK'):.0f} ms with "
      f"OPENBLAS_THREAD_TIMEOUT={os.environ.get('OPENBLAS_THREAD_TIMEOUT')}")
"""


def idle_pool_line() -> str:
    """CPU of the non-main threads of a fresh interpreter over 300 ms idle
    after import weakdrive.cli."""
    run = subprocess.run([sys.executable, "-c", IDLE_POOL_SCRIPT],
                         capture_output=True, text=True, check=True)
    return run.stdout.strip()


def line_count() -> tuple[int, int]:
    files = list(PACKAGE.glob("*.py"))
    return sum(len(f.read_text().splitlines()) for f in files), len(files)


def export_count() -> int:
    return sum(not name.startswith("_")
               and not isinstance(getattr(weakdrive, name), types.ModuleType)
               for name in dir(weakdrive))


def _cloud(n):
    """A random cloud at the density of 160 atoms in a 20-wide box."""
    ens = random_ensemble(n, 20.0 * (n / 160) ** (1 / 3), 0, DIPOLE, min_distance=0.5)
    return coupling_matrix(ens), Drive(delta=0.3, eta=0.05, beam=BEAM), ens


def _logged(call):
    """call's result and the last DEBUG message it logs on
    weakdrive.perturbation."""
    messages = []
    handler = logging.Handler(logging.DEBUG)
    handler.emit = lambda record: messages.append(record.getMessage())
    logger = logging.getLogger("weakdrive.perturbation")
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    try:
        return call(), messages[-1]
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


def solve_v_times(n, repeats):
    """Wall times of solve_v on one thread, the OpenBLAS thread count in
    force and the DEBUG record of the last call."""
    coupling, drive, ens = _cloud(n)
    u = solve_u(coupling, drive.delta, drive.w(ens))
    with blas.one_thread():
        times, record = _logged(lambda: _times(lambda: solve_v(coupling, drive.delta, u), repeats))
        return times, blas.threads(), record


def skeleton_times(coupling, repeats):
    """Wall times of _skeleton on the G of coupling at delta = 0.3, and
    the rank R of the skeleton."""
    x = np.linalg.eigvals(coupling) - 0.3j
    G_abs = np.abs(1.0 / (x[:, None] + x[None, :]))
    tol = SKELETON_RTOL * float(np.max(G_abs))
    return _times(lambda: _skeleton(x, G_abs, tol), repeats), len(_skeleton(x, G_abs, tol))


def _traced_peak(call) -> float:
    """Peak traced memory of one call, in MB."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def solve_memory_peaks() -> tuple[float, float]:
    coupling, drive, ens = _cloud(160)
    with blas.one_thread():
        state = steady_state(coupling, drive, ens)
        solve_peak = _traced_peak(lambda: solve_v(coupling, drive.delta, state.u))
    with tempfile.TemporaryDirectory() as out:
        write_peak = _traced_peak(
            lambda: ResultBundle(report={}, tables=_amplitude_tables(state)).write(out))
    return solve_peak, write_peak


def negativity_layer_times():
    ens = random_ensemble(40, 10.0, 0, DIPOLE, min_distance=0.5)
    drive = Drive(delta=0.3, eta=0.01, beam=BEAM)
    state = steady_state(coupling_matrix(ens), drive, ens)
    part = Partition(tuple(range(20)), tuple(range(20, 40)))
    grid = np.linspace(0.01, 0.2, 50)

    def layer():
        report = negativity_report(state, part, eta_grid=grid)
        pt_negativity_grid(report.pt, grid)

    return _times(layer, 20)


def exact_grid_times(n, repeats):
    ens = random_ensemble(n, 2.0, 0, DIPOLE, min_distance=0.5)
    coupling, w = coupling_matrix(ens), BEAM.amplitudes(ens)

    def grid():
        liouv = build_liouvillian(coupling, 0.3, w)
        for eta in np.geomspace(0.01, 0.1, 4):
            steady_state_exact(liouv, eta)

    return _times(grid, repeats)


def main():
    print(f"import weakdrive.cli, -X importtime: {import_time_line()}")
    print(f"import weakdrive.cli, fresh interpreter: {import_footprint_line()}")
    print(f"import weakdrive.cli, then 300 ms idle: non-main threads' CPU {idle_pool_line()}")
    lines, files = line_count()
    print(f"src/weakdrive: {lines} lines in {files} files, {export_count()} public names exported")
    print(f"OpenBLAS threads of this process: {blas.threads()}")
    times, threads, record = solve_v_times(160, 5)
    print(f"solve_v, n = 160, {threads} OpenBLAS thread(s) as in a CLI run: "
          f"median {np.median(times):.4f} s, min {min(times):.4f} s over 5; {record}")
    times, threads, record = solve_v_times(320, 1)
    print(f"solve_v, n = 320, {threads} OpenBLAS thread(s): {times[0]:.3f} s (1 call); {record}")
    for name, coupling in (("160-atom cloud", _cloud(160)[0]),
                           ("6^3 lattice at spacing 1",
                            coupling_matrix(lattice_ensemble(6, 1.0, DIPOLE)))):
        times, rank = skeleton_times(coupling, 20)
        print(f"_skeleton, {name}: median {np.median(times) * 1e3:.2f} ms, "
              f"min {min(times) * 1e3:.2f} ms over 20; R = {rank} of {len(coupling)}")
    solve_peak, write_peak = solve_memory_peaks()
    print(f"tracemalloc peaks, n = 160: solve_v {solve_peak:.2f} MB, "
          f"building and writing its u and v tables {write_peak:.2f} MB")
    times = negativity_layer_times()
    print(f"negativity_report + pt_negativity_grid, n = 40, 50 points: "
          f"median {np.median(times) * 1e3:.2f} ms, min {min(times) * 1e3:.2f} ms over 20")
    five, eight = exact_grid_times(5, 20), exact_grid_times(8, 5)
    print(f"steady_state_exact, 4 eta points on one Liouvillian: n = 5 median "
          f"{np.median(five) * 1e3:.1f} ms over 20, n = 4 + 4 median "
          f"{np.median(eight) * 1e3:.0f} ms over 5")


if __name__ == "__main__":
    main()
