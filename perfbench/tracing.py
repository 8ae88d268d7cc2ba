"""Per-layer tracing from outside the package.

The tracer replaces functions of the bellxtalk modules with timing wrappers
by ``setattr`` on the module. Every call between modules of the package goes
through a module attribute (``bipartite.joint_closed_batch``,
``_kernels.closed_joint``, ...), and calls inside a module look the name up in
the module's globals, so the wrappers see both. Each call becomes a span with
a start, an end and the span that was open when it began; a layer's self time
is its spans' duration minus the time covered by their direct children.

A function that a later version of the package removes is skipped: the
metrics that need only missing functions are reported as absent.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from dataclasses import dataclass

#: wrapped functions, by module
WRAPPED = {
    "cli": ("main", "cmd_probs", "cmd_sweep", "_sweep_grid", "cmd_verify", "run_verification",
            "_max_commutator_norm", "cmd_sample"),
    "bipartite": ("joint_closed_batch", "joint_closed_alt_batch", "joint_amplitude_batch",
                  "joint_bruteforce_batch", "joint_distribution_closed",
                  "joint_distribution_amplitude", "joint_distribution_bruteforce"),
    "_kernels": ("closed_joint", "closed_joint_alt", "amplitude_joint", "bruteforce_joint",
                 "sample_counts"),
    "information": ("shannon_entropy_rows", "mutual_information_rows", "degree_rows",
                    "report_from_distribution", "crosstalk_report"),
    "sampler": ("sample",),
    "independence": ("solve_independence", "partner_angles"),
}

_BATCH = tuple(f"bipartite.{f}" for f in WRAPPED["bipartite"] if f.endswith("_batch"))
_POINT = tuple(f"bipartite.{f}" for f in WRAPPED["bipartite"] if f.startswith("joint_distribution_"))
_PROB_KERNELS = ("_kernels.closed_joint", "_kernels.closed_joint_alt",
                 "_kernels.amplitude_joint", "_kernels.bruteforce_joint")
_ROWS = ("information.shannon_entropy_rows", "information.mutual_information_rows",
         "information.degree_rows")

#: per-layer metric -> (unit, measure, spans it sums); "self" and "total" are
#: seconds, "calls" counts spans, "size" sums the rows or draws they handled
SPAN_METRICS = {
    "cli.sweep_format_write_s": ("s", "self", ("cli.cmd_sweep",)),
    "cli.sweep_grid_s": ("s", "total", ("cli._sweep_grid",)),
    "cli.commutator_s": ("s", "total", ("cli._max_commutator_norm",)),
    "cli.verify_reduce_s": ("s", "self", ("cli.run_verification",)),
    "bipartite.batch_self_s": ("s", "self", _BATCH),
    "bipartite.point_self_s": ("s", "self", _POINT),
    "bipartite.batch_calls": ("count", "calls", _BATCH),
    "kernels.closed_s": ("s", "total", ("_kernels.closed_joint",)),
    "kernels.closed_alt_s": ("s", "total", ("_kernels.closed_joint_alt",)),
    "kernels.amplitude_s": ("s", "total", ("_kernels.amplitude_joint",)),
    "kernels.bruteforce_s": ("s", "total", ("_kernels.bruteforce_joint",)),
    "kernels.sample_s": ("s", "total", ("_kernels.sample_counts",)),
    "kernels.calls": ("count", "calls", _PROB_KERNELS + ("_kernels.sample_counts",)),
    "kernels.rows": ("count", "size", _PROB_KERNELS),
    "information.rows_s": ("s", "self", _ROWS),
    "information.report_s": ("s", "self", ("information.report_from_distribution",
                                            "information.crosstalk_report")),
    "sampler.sample_self_s": ("s", "self", ("sampler.sample",)),
    "sampler.draws": ("count", "size", ("sampler.sample",)),
    "independence.solve_self_s": ("s", "self", ("independence.solve_independence",)),
}


def _first_len(args, kwargs) -> int:
    return len(args[0]) if args else len(kwargs["mu"])


def _draws(args, kwargs) -> int:
    return int(args[1]) if len(args) > 1 else int(kwargs["n"])


_SIZE = dict.fromkeys(_PROB_KERNELS, _first_len) | {"sampler.sample": _draws}


@dataclass
class Span:
    name: str
    start: int
    end: int
    parent: int
    size: int


class Tracer:
    """Records spans of wrapped calls; single-threaded, like the package."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        size_of = _SIZE.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0, 0, self._open[-1] if self._open else -1,
                        size_of(args, kwargs) if size_of else 0)
            self._open.append(len(self.spans))
            self.spans.append(span)
            span.start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = clock()
                self._open.pop()

        return traced

    def clear(self) -> None:
        self.spans.clear()


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every function in WRAPPED that exists; yields the missing names."""
    replaced, missing = [], set()
    try:
        for short, names in WRAPPED.items():
            try:
                module = importlib.import_module(f"bellxtalk.{short}")
            except ModuleNotFoundError:
                missing.update(f"{short}.{name}" for name in names)
                continue
            for name in names:
                fn = getattr(module, name, None)
                if not callable(fn):
                    missing.add(f"{short}.{name}")
                    continue
                replaced.append((module, name, fn))
                setattr(module, name, tracer.wrap(f"{short}.{name}", fn))
        yield missing
    finally:
        for module, name, fn in reversed(replaced):
            setattr(module, name, fn)


def layer_metrics(spans: list[Span], missing: set[str]) -> dict[str, float]:
    """Per-layer numbers of one traced operation; metrics whose spans are all missing are left out."""
    child_ns = [0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_ns[span.parent] += span.end - span.start
    totals: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        acc = totals.setdefault(span.name, [0, 0, 0, 0])  # total ns, self ns, calls, size
        duration = span.end - span.start
        acc[0] += duration
        acc[1] += duration - child_ns[i]
        acc[2] += 1
        acc[3] += span.size
    column = {"total": 0, "self": 1, "calls": 2, "size": 3}
    out = {}
    for metric, (_, measure, names) in SPAN_METRICS.items():
        if all(name in missing for name in names):
            continue
        value = sum(totals.get(name, (0, 0, 0, 0))[column[measure]] for name in names)
        out[metric] = value * 1e-9 if measure in ("self", "total") else value
    if not {"independence.solve_independence", "bipartite.joint_distribution_closed"} & missing:
        out["independence.residual_calls"] = sum(
            1 for span in spans
            if span.name == "bipartite.joint_distribution_closed" and span.parent >= 0
            and spans[span.parent].name == "independence.solve_independence")
    return out
