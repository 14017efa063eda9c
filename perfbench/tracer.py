"""Span-stack tracer for the traced run, and the per-layer metrics it yields.

The wrappers replace public functions of the package in every
``coweights`` module namespace that holds them, so a call is traced
whichever module makes it.  Each wrapped call opens a span.  When the span
closes, its duration minus the time its child spans covered is added to
its self time, and its whole duration is charged to the parent's
children.  Counts are taken at the same boundaries: calls per span, calls
per (parent span, span) pair, and sizes read off the returned values.

The end-to-end numbers never come from a traced process.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from typing import Any, Callable


class Tracer:
    """Self time, calls and result counts per span name."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.stack: list[list[Any]] = []  # [name, start, seconds in children]
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.under: dict[str, int] = defaultdict(int)  # "parent>name" -> calls
        self.counts: dict[str, int] = defaultdict(int)

    def enter(self, name: str) -> None:
        parent = self.stack[-1][0] if self.stack else ""
        self.calls[name] += 1
        self.under[f"{parent}>{name}"] += 1
        self.stack.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        name, start, children = self.stack.pop()
        duration = self.clock() - start
        self.self_s[name] += duration - children
        if self.stack:
            self.stack[-1][2] += duration

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        on_result: Callable[["Tracer", Any], None] | None = None,
    ) -> Callable[..., Any]:
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if on_result is not None:
                on_result(self, result)
            return result

        return traced

    def snapshot(self) -> dict[str, dict[str, Any]]:
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "under": dict(self.under),
            "counts": dict(self.counts),
        }


def replace_everywhere(module: str, attr: str, make: Callable[[Any], Any]) -> bool:
    """Replace ``module.attr`` by ``make(original)`` wherever it is bound.

    ``attr`` may name a method as ``Class.method``.  Functions are replaced
    in every loaded ``coweights`` module that holds the same object, under
    any name.  Returns False when the attribute does not exist.
    """
    mod = importlib.import_module(module)
    if "." in attr:
        cls_name, meth = attr.split(".", 1)
        cls = getattr(mod, cls_name, None)
        if cls is None or meth not in vars(cls):
            return False
        setattr(cls, meth, make(vars(cls)[meth]))
        return True
    original = getattr(mod, attr, None)
    if original is None:
        return False
    replacement = make(original)
    for name, loaded in list(sys.modules.items()):
        if loaded is None or not (name == "coweights" or name.startswith("coweights.")):
            continue
        for key, value in list(vars(loaded).items()):
            if value is original:
                setattr(loaded, key, replacement)
    return True


def _add(key: str, size: Callable[[Any], int]) -> Callable[[Tracer, Any], None]:
    def hook(tracer: Tracer, result: Any) -> None:
        tracer.counts[key] += size(result)

    return hook


def _verify_sizes(tracer: Tracer, report: Any) -> None:
    tracer.counts["lhs.classes"] += len(getattr(report, "lhs_classes", ()))
    tracer.counts["rhs.classes"] += len(getattr(report, "rhs_classes", ()))


# (module, attribute, span name, result hook)
WRAP_POINTS: list[tuple[str, str, str, Callable[[Tracer, Any], None] | None]] = [
    ("coweights.core", "in_hull", "core.in_hull", None),
    ("coweights.core", "same_class_XG", "core.same_class_XG", None),
    ("coweights.core", "leq", "core.leq", None),
    ("coweights.levi", "class_of", "levi.class_of", None),
    ("coweights.levi", "project", "levi.project", None),
    ("coweights.levi", "minuscule_lift", "levi.minuscule_lift", None),
    ("coweights.levi", "leq_batch_ends", "levi.leq_batch_ends", None),
    ("coweights.reorder", "dominant_reordering", "reorder.dominant_reordering", None),
    ("coweights.oracle", "enumerate_Pmu", "oracle.pmu", _add("pmu.points", len)),
    ("coweights.oracle", "verify_main_theorem", "oracle.verify", _verify_sizes),
    ("coweights.oracle", "instance_property_failures", "oracle.props", None),
    ("coweights.oracle", "batch_end_agreement", "oracle.batch_end",
     _add("batch_end.points", lambda r: r[0])),
    ("coweights.oracle", "weyl_orbit", "oracle.weyl_orbit", None),
    ("coweights.oracle", "caratheodory_in_hull", "oracle.caratheodory",
     _add("hull.inside", bool)),
    ("coweights.cli", "report_json", "cli.serialize", None),
    ("coweights.cli", "_Writer.record", "cli.serialize", None),
]


def install(tracer: Tracer) -> list[str]:
    """Wrap every point of :data:`WRAP_POINTS`; returns the ones not found."""
    missing = []
    for module, attr, name, hook in WRAP_POINTS:
        if not replace_everywhere(
            module, attr, lambda fn, n=name, h=hook: tracer.wrap(n, fn, h)
        ):
            missing.append(f"{module}.{attr}")
    return missing


# spans reported as <span>.ms (self time) and <span>.calls
COUNTED_SPANS = (
    "oracle.pmu",
    "core.in_hull",
    "core.same_class_XG",
    "levi.class_of",
    "levi.minuscule_lift",
    "levi.project",
    "levi.leq_batch_ends",
    "core.leq",
    "reorder.dominant_reordering",
    "oracle.weyl_orbit",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    trace: dict[str, dict[str, Any]], serialized_bytes: int
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics (value, unit) from a tracer snapshot.

    ``.ms`` is self time.  Ratios read 0 when their base is 0, as on a
    workload that never reaches the layer.
    """
    self_s, calls = trace["self_s"], trace["calls"]
    under, counts = trace["under"], trace["counts"]
    out: dict[str, tuple[float, str]] = {}
    for span in COUNTED_SPANS:
        out[f"{span}.ms"] = (self_s.get(span, 0.0) * 1000.0, "ms")
        out[f"{span}.calls"] = (calls.get(span, 0), "count")

    box = under.get("oracle.pmu>core.same_class_XG", 0)
    out["oracle.pmu.points"] = (counts.get("pmu.points", 0), "count")
    out["oracle.pmu.box_points"] = (box, "count")
    out["oracle.pmu.yield"] = (_ratio(counts.get("pmu.points", 0), box), "ratio")

    lhs = counts.get("lhs.classes", 0)
    out["oracle.lhs.classes"] = (lhs, "count")
    out["oracle.lhs.dedup"] = (
        _ratio(lhs, under.get("oracle.verify>levi.class_of", 0)), "ratio")
    lifts = under.get("oracle.verify>levi.minuscule_lift", 0)
    out["oracle.rhs.hull_tests"] = (under.get("oracle.verify>core.in_hull", 0), "count")
    out["oracle.rhs.accept"] = (_ratio(counts.get("rhs.classes", 0), lifts), "ratio")

    out["oracle.props.ms"] = (self_s.get("oracle.props", 0.0) * 1000.0, "ms")
    out["oracle.batch_end.ms"] = (self_s.get("oracle.batch_end", 0.0) * 1000.0, "ms")
    out["oracle.batch_end.points"] = (counts.get("batch_end.points", 0), "count")

    out["cli.serialize.ms"] = (self_s.get("cli.serialize", 0.0) * 1000.0, "ms")
    out["cli.serialize.bytes"] = (serialized_bytes, "bytes")

    out["oracle.caratheodory.ms"] = (
        self_s.get("oracle.caratheodory", 0.0) * 1000.0, "ms")
    out["oracle.hull.inside_frac"] = (
        _ratio(counts.get("hull.inside", 0), calls.get("oracle.caratheodory", 0)),
        "ratio")
    return out
