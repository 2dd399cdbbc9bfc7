"""Spans around calls into the program's layers, for the traced run.

`Tracer.install` wraps the public functions that the per-layer metrics name,
in every `paradox_lab` module that holds a reference to them (so
`likelihood.kappa_conditions` is wrapped as well as
`conditions.kappa_conditions`, and the names `cli` imports as well as their
definitions). Each call records a span (name, start, end, parent, counts) in
memory; `Tracer.remove` puts the original functions back.
"""

from __future__ import annotations

import inspect
import math
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# (module, function) of every wrapped function; the module is a layer.
TRACED = (
    ("cli", "main"),
    ("instances", "parse_instance"),
    ("conditions", "feasible_sign_pattern"),
    ("conditions", "kappa_conditions"),
    ("conditions", "reachable_counts"),
    ("likelihood", "classify"),
    ("likelihood", "smoothed_extremes"),
    ("likelihood", "exact_paradox_probability"),
    ("likelihood", "histogram_distribution"),
    ("likelihood", "monte_carlo_estimate"),
    ("fitting", "fit_curve"),
    ("polyhedra", "paradox_region"),
)


def _extremes_counts(arguments: dict, result) -> dict:
    """Assignments, and the nominal cell updates of the two-block chain.

    The nominal count is computed from n, p and the member count, not
    measured: one forward and one backward chain of n one-agent steps, each
    over an (n+1)^(p+1) grid with 2^p shifted adds, per leading prefix.
    """
    n, ell = arguments["n"], arguments["dists"].size
    p = arguments["agenda"].p
    prefixes = math.comb(n + ell - 2, ell - 2) if ell >= 2 else 1
    return {
        "assignments": math.comb(n + ell - 1, ell - 1),
        "cell_updates": prefixes * 2 * n * (n + 1) ** (p + 1) * 2**p,
    }


# Counts recorded with the span, from the bound arguments and the result.
_COUNTS = {
    "conditions.feasible_sign_pattern": lambda a, r: {"feasible": int(bool(r))},
    "likelihood.smoothed_extremes": _extremes_counts,
    "likelihood.monte_carlo_estimate": lambda a, r: {"trials": a["trials"]},
    "fitting.fit_curve": lambda a, r: {"iterations": r.iterations},
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the top
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Span recorder; one per traced pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, **counts):
        """A span opened by the benchmark itself, e.g. around one operation."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index, counts)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int, counts: dict) -> None:
        self._stack.pop()
        span = self.spans[index]
        span.end = time.perf_counter()
        span.counts = counts

    def _wrap(self, name: str, fn):
        signature = inspect.signature(fn)
        count = _COUNTS.get(name)

        def traced(*args, **kwargs):
            index = self._open(name)
            counts = {}
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    counts = count(bound.arguments, result)
                return result
            finally:
                self._close(index, counts)

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self) -> None:
        """Wrap every TRACED function wherever a paradox_lab module refers to it."""
        wrappers = {}
        for module_name, fn_name in TRACED:
            fn = getattr(sys.modules[f"paradox_lab.{module_name}"], fn_name)
            wrappers[id(fn)] = (fn, self._wrap(f"{module_name}.{fn_name}", fn))
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] != "paradox_lab":
                continue
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, entry[1])

    def remove(self) -> None:
        """Put back every function `install` replaced."""
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


def layer_totals(spans: list[Span]) -> dict:
    """Per span name: calls, total and self seconds, max seconds and summed counts."""
    child_seconds = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_seconds[span.parent] += span.seconds
    totals: dict[str, dict] = {}
    for span, children in zip(spans, child_seconds):
        entry = totals.setdefault(
            span.name, {"calls": 0, "s": 0.0, "self_s": 0.0, "max_s": 0.0, "counts": {}}
        )
        entry["calls"] += 1
        entry["s"] += span.seconds
        entry["self_s"] += span.seconds - children
        entry["max_s"] = max(entry["max_s"], span.seconds)
        for key, value in span.counts.items():
            if isinstance(value, (int, float)):
                entry["counts"][key] = entry["counts"].get(key, 0) + value
    return totals


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator > 0 else 0.0


def pass_metrics(spans: list[Span]) -> dict[str, float]:
    """The per-layer metrics of one traced pass; 0 for a layer the pass never calls."""
    totals = layer_totals(spans)
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "max_s": 0.0, "counts": {}}

    def get(name: str) -> dict:
        return totals.get(name, empty)

    fsp = get("conditions.feasible_sign_pattern")
    kappa = get("conditions.kappa_conditions")
    reach = get("conditions.reachable_counts")
    extremes = get("likelihood.smoothed_extremes")
    epp = get("likelihood.exact_paradox_probability")
    mc = get("likelihood.monte_carlo_estimate")
    fit = get("fitting.fit_curve")
    return {
        "conditions.feasible_sign_pattern.calls": fsp["calls"],
        "conditions.feasible_sign_pattern.s": fsp["s"],
        "conditions.feasible_sign_pattern.feasible_ratio":
            _ratio(fsp["counts"].get("feasible", 0), fsp["calls"]),
        "conditions.kappa_conditions.s": kappa["s"],
        "conditions.kappa_conditions.max_s": kappa["max_s"],
        "conditions.reachable_counts.calls": reach["calls"],
        "conditions.reachable_counts.s": reach["s"],
        "likelihood.classify.s": get("likelihood.classify")["s"],
        "polyhedra.paradox_region.s": get("polyhedra.paradox_region")["s"],
        "likelihood.smoothed_extremes.self_s": extremes["self_s"],
        "likelihood.smoothed_extremes.assignments": extremes["counts"].get("assignments", 0),
        "likelihood.smoothed_extremes.cell_updates_per_s":
            _ratio(extremes["counts"].get("cell_updates", 0), extremes["self_s"]),
        "likelihood.exact_paradox_probability.calls": epp["calls"],
        "likelihood.exact_paradox_probability.s": epp["s"],
        "likelihood.histogram_distribution.s": get("likelihood.histogram_distribution")["s"],
        "likelihood.monte_carlo_estimate.s": mc["s"],
        "likelihood.monte_carlo_estimate.trials_per_s":
            _ratio(mc["counts"].get("trials", 0), mc["s"]),
        "fitting.fit_curve.s": fit["s"],
        "fitting.fit_curve.iterations": fit["counts"].get("iterations", 0),
        "instances.parse_instance.s": get("instances.parse_instance")["s"],
        "cli.main.self_s": get("cli.main")["self_s"],
    }


def unit(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith((".calls", ".assignments", ".iterations")):
        return "count"
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_ratio"):
        return "ratio"
    return "s"


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Median over passes of each metric."""
    return {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
