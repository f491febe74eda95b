"""Command-line entry point: parses the arguments, runs the task, writes
its results and prints the console lines its runner returned.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 validation failure (a runner's failure line).
"""

from __future__ import annotations

import argparse
import sys

from .blas import one_thread
from .config import TASK_REQUIRED, TASKS, load_config, parse_config
from .errors import ConfigError, WeakdriveError
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
        if TASK_REQUIRED[args.task] and not args.config:
            raise ConfigError("config", "--config is required for this task")
        if args.seed is not None and isinstance(data, dict):  # parse_config refuses the rest
            data = {**data, "seed": args.seed}
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
    for line in bundle.summary:
        print(line)
    if bundle.failure:
        print(bundle.failure, file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
