"""Per-layer spans recorded from outside the package.

The recorder wraps public functions on the module attributes that
``weakdrive.cli``, ``weakdrive.runner``, ``weakdrive.perturbation`` and
``weakdrive.negativity`` look up at call time, so every call made during a
task passes through a span.  A name that the installed package no longer
has is recorded as absent instead of failing the run, which keeps the
benchmark usable across versions that delete or rename internals.
"""

from __future__ import annotations

import functools
import resource
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

# metric -> (module, attribute) pairs whose calls it times.  Spans named
# without a metric ("runner.task", "perturbation.steady_state") only
# structure the trace: they carry runner self time and RSS growth.
TIMED = {
    "config.parse_s": [("cli", "load_config"), ("cli", "parse_config")],
    "geometry.build_s": [
        ("runner", "build_ensemble"),
        ("runner", "build_drive"),
        ("runner", "build_partition"),
        ("runner", "regime_check"),
    ],
    "coupling.build_s": [("runner", "coupling_matrix")],
    "perturbation.steady_state": [("runner", "steady_state")],
    "perturbation.solve_u_s": [("perturbation", "solve_u")],
    "perturbation.solve_v_s": [("perturbation", "solve_v")],
    "negativity.report_s": [("runner", "negativity_report")],
    "negativity.modes_s": [
        ("runner", "build_V"),
        ("runner", "lambda2_spectrum"),
        ("negativity", "build_V"),
        ("negativity", "lambda2_spectrum"),
    ],
    "negativity.pt_build_s": [("runner", "build_pt_matrix"), ("negativity", "build_pt_matrix")],
    "negativity.pt_eig_s": [("runner", "pt_negativity"), ("negativity", "pt_negativity")],
    "exact.liouvillian_s": [("runner", "build_liouvillian")],
    "exact.steady_state_s": [("runner", "steady_state_exact")],
    "exact.negativity_s": [("runner", "reduce_state"), ("runner", "negativity_exact")],
    "reporting.write_s": [("runner", "write_json"), ("runner", "write_csv")],
}

# metric -> (module, attribute) pairs whose calls it counts without a span
COUNTED = {"perturbation.pair_matvecs": [("perturbation", "pair_map_apply")]}

TASK_SPAN = "runner.task"
RSS_SPAN = "perturbation.steady_state"


@dataclass
class Span:
    name: str
    start: float
    parent: Optional[int]
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Recorder:
    """Spans kept in memory, counts, and names found missing."""

    spans: list[Span] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    absent: list[str] = field(default_factory=list)
    pt_dim: int = 0
    pair_dim: int = 0
    rss_growth_kb: int = 0
    _stack: list[int] = field(default_factory=list)

    def _open(self, name: str) -> Optional[int]:
        # a call nested in a span of the same name is already covered
        if self._stack and self.spans[self._stack[-1]].name == name:
            return None
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: Optional[int]) -> None:
        if idx is not None:
            self.spans[idx].end = time.perf_counter()
            self._stack.pop()

    def timed(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._observe(name, args)
            rss0 = peak_rss_kb() if name == RSS_SPAN else 0
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
                if name == RSS_SPAN:
                    self.rss_growth_kb += peak_rss_kb() - rss0

        return wrapper

    def counted(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _observe(self, name: str, args) -> None:
        if name == "negativity.pt_eig_s":
            self.counts["negativity.pt_calls"] += 1
            if args:
                self.pt_dim = max(self.pt_dim, _dim(args[0]))
        elif name == "exact.steady_state_s":
            self.counts["exact.calls"] += 1
        elif name == "perturbation.solve_v_s" and args:
            n = getattr(args[0], "n", 0)
            self.pair_dim = max(self.pair_dim, n * (n - 1) // 2)

    def install(self, modules: dict, task: str) -> None:
        """Wrap every listed name on the given modules, plus the task entry."""
        for table, wrap in ((TIMED, self.timed), (COUNTED, self.counted)):
            for metric, targets in table.items():
                for mod, attr in targets:
                    fn = getattr(modules.get(mod), attr, None)
                    if callable(fn):
                        setattr(modules[mod], attr, wrap(metric, fn))
                    else:
                        self.absent.append(f"{mod}.{attr}")
        runners = getattr(modules.get("runner"), "TASK_RUNNERS", None)
        if isinstance(runners, dict) and task in runners:
            runners[task] = self.timed(TASK_SPAN, runners[task])
        else:
            self.absent.append(f"runner.TASK_RUNNERS[{task!r}]")

    def totals(self) -> dict:
        out = Counter()
        for s in self.spans:
            out[s.name] += s.duration
        return out

    def runner_self(self) -> float:
        """Task span time not covered by its direct child spans."""
        total = 0.0
        for i, s in enumerate(self.spans):
            if s.name != TASK_SPAN:
                continue
            children = sum(c.duration for c in self.spans if c.parent == i)
            total += s.duration - children
        return total


def _dim(obj) -> int:
    dim = getattr(obj, "dim", None)
    if isinstance(dim, int):
        return dim
    shape = getattr(obj, "shape", None) or getattr(getattr(obj, "matrix", None), "shape", None)
    return int(shape[0]) if shape else 0


def peak_rss_kb() -> int:
    """Peak resident set of this process's own address space.

    ``VmHWM`` starts afresh at exec; ``ru_maxrss`` does not, so a worker
    forked from a larger parent would report the parent's peak."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
