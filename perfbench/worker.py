"""One workload process: import the package, parse the config, run one task.

Started fresh by ``run.py`` for every invocation, so interpreter start,
imports and config parsing are paid once per process, as a user of the
``weakdrive`` command pays them.  Writes its measurements as JSON to
``--result``.

    python3 perfbench/worker.py --src SRC --task solve --config CFG \\
        --out DIR --result FILE --spawned T [--setup-only] [--trace]

``--spawned`` is the ``time.monotonic()`` reading of the parent just before
it started this process; the clock is system-wide, so the difference to
the reading taken here after config parsing is the set-up time.
"""

import argparse
import ctypes
import json
import os
import resource
import sys
import time

from spans import Recorder, peak_rss_kb


def _blas_info() -> list:
    """Version string and thread count of every OpenBLAS loaded here."""
    libs = set()
    with open("/proc/self/maps") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in os.path.basename(path).lower():
                libs.add(path)
    out = []
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path)}
        for suffix in ("", "64_"):
            for prefix in ("scipy_openblas", "openblas"):
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if config is not None and threads is not None:
                    config.restype = ctypes.c_char_p
                    config.argtypes = []
                    threads.restype = ctypes.c_int
                    threads.argtypes = []
                    entry["config"] = config().decode()
                    entry["threads"] = threads()
        out.append(entry)
    return out


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--src", required=True)
    p.add_argument("--task", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--spawned", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace", action="store_true")
    args = p.parse_args()

    src = os.path.abspath(args.src)
    sys.path.insert(0, src)
    import weakdrive
    import weakdrive.cli as cli

    if not os.path.abspath(weakdrive.__file__).startswith(src + os.sep):
        print(f"weakdrive imported from {weakdrive.__file__}, not {src}", file=sys.stderr)
        return 2
    from weakdrive.config import load_config, parse_config

    parse_config(load_config(args.config), args.task)
    setup_s = time.monotonic() - args.spawned
    result = {"setup_s": setup_s}
    if args.setup_only:
        with open(args.result, "w") as fh:
            json.dump(result, fh)
        return 0

    recorder = None
    if args.trace:
        import weakdrive.negativity
        import weakdrive.perturbation
        import weakdrive.runner

        recorder = Recorder()
        recorder.install(
            {
                "cli": cli,
                "runner": weakdrive.runner,
                "perturbation": weakdrive.perturbation,
                "negativity": weakdrive.negativity,
            },
            args.task,
        )

    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    rc = cli.main([args.task, "--config", args.config, "--out", args.out, "--parallel", "1"])
    task_s = time.perf_counter() - t0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)

    result.update(
        rc=rc,
        task_s=task_s,
        cpu_s=(ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
        peak_rss_mb=peak_rss_kb() / 1024.0,
        blas=_blas_info(),
        numpy=sys.modules["numpy"].__version__,
        scipy=sys.modules["scipy"].__version__,
    )
    if recorder is not None:
        totals = recorder.totals()
        result["trace"] = {
            "spans": dict(totals),
            "counts": dict(recorder.counts),
            "runner_self_s": recorder.runner_self(),
            "pt_dim": recorder.pt_dim,
            "pair_dim": recorder.pair_dim,
            "rss_growth_mb": recorder.rss_growth_kb / 1024.0,
            "absent": recorder.absent,
        }
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
