"""Command-line entry point.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 validation failure.
"""

from __future__ import annotations

import argparse
import sys

from .blas import one_thread
from .config import TASKS, load_config, parse_config
from .errors import ConfigError, WeakdriveError
from .reporting import fmt_value
from .runner import TASK_RUNNERS

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_VALIDATION = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weakdrive",
        description=(
            "Steady states and entanglement negativity of weakly driven "
            "two-level atom ensembles"
        ),
    )
    parser.add_argument("task", choices=TASKS)
    parser.add_argument("--config", help="JSON run configuration", default=None)
    parser.add_argument("--out", help="output directory", default=None)
    parser.add_argument("--parallel", type=int, default=1, help="must be >= 1; recorded "
                        "in the provenance only, every task runs in this process")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    return parser


def main(argv=None) -> int:
    """Run one task with one OpenBLAS thread (see weakdrive.blas); the
    caller's thread counts and OPENBLAS_NUM_THREADS are restored on return."""
    args = _build_parser().parse_args(argv)
    if args.parallel < 1:
        print("error: --parallel must be >= 1", file=sys.stderr)
        return EXIT_CONFIG
    with one_thread():
        return _run(args)


def _run(args) -> int:
    try:
        data = load_config(args.config) if args.config else {}
        if args.task != "validate" and not args.config:
            raise ConfigError("config", "--config is required for this task")
        if args.seed is not None:
            data = dict(data)
            data["seed"] = args.seed
        cfg = parse_config(data, args.task)
        bundle = TASK_RUNNERS[args.task](cfg, parallelism=args.parallel)
        if args.out:
            try:
                bundle.write(args.out)
            except OSError as exc:
                raise ConfigError("out", f"cannot write results: {exc}") from None
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except WeakdriveError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OverflowError as exc:
        print(f"numerical failure: floating-point overflow {exc}", file=sys.stderr)
        return EXIT_NUMERIC

    if args.out:
        print(f"results written to {args.out}")

    if args.task == "validate":
        for check in bundle.report["checks"]:
            status = "PASS" if check["passed"] else "FAIL"
            print(
                f"{status} {check['name']}: measured={fmt_value(check['measured'])} "
                f"threshold={fmt_value(check['threshold'])}"
            )
        if not bundle.report["all_passed"]:
            print("validation FAILED", file=sys.stderr)
            return EXIT_VALIDATION
        print("validation passed")
    elif args.task == "bounds":
        for key in ("D0", "bound_omega", "N_max", "eta_max", "L_min", "n_min"):
            print(f"{key} = {fmt_value(bundle.report[key])}")
    elif args.task == "sweep":
        thr = bundle.report["threshold"]
        if thr["eta_sweep_estimate"] is None:
            print(
                "sweep threshold: none, the modelled minimum eigenvalue "
                "does not change sign on the grid"
            )
        else:
            print(
                f"sweep threshold: eta = {fmt_value(thr['eta_sweep_estimate'])} "
                f"(omega/Gamma = {fmt_value(thr['omega_sweep_estimate'])})"
            )
        ext = bundle.report["extremum"]
        if ext["eta_max"] is not None:
            print(
                f"extremum: N_max = {fmt_value(ext['n_max'])} "
                f"at eta = {fmt_value(ext['eta_max'])}"
            )
        elif ext["n_max"] is None:
            print("extremum: none, a negative mode never closes (lambda4 <= 0) "
                  "or a mode opens (lambda4 < 0)")
        else:
            print("extremum: none, no mode's modelled eigenvalue is negative")
        failures = bundle.report["point_errors"]
        if failures:
            print(f"warning: {len(failures)} grid point(s) failed; see report.json")
    elif args.task == "solve":
        neg = bundle.report["negativity"]
        print(
            f"negativity2 = {fmt_value(neg['negativity2'])} "
            f"(entanglement {neg['entanglement']})"
        )
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
