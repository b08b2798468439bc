"""Span recorder for the traced benchmark run.

Spans are kept in memory as ``[name, start, end, parent, op]`` rows (times
from ``time.perf_counter``; ``parent`` is the row index of the enclosing span
or -1; ``op`` is the id of the benchmark operation that caused it).  A span's
self time is its duration minus the time covered by its direct children.

The recorder wraps ptlab's public functions from the outside: it replaces the
module attribute *and* every ``from ... import`` binding of the same function
object in the other ``ptlab`` modules, the ``eval_arrays`` methods of the
permutation classes and ``EntryPermutation.is_symmetric``.  ``sample_wishart``
is replaced by a generator that records one ``montecarlo.draw`` span per
``next()``.  Wrappers only time and count; arguments and results pass
through untouched, so traced outputs are bit-identical to untraced ones.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

# (module, attribute, span name) for plain functions
FUNCTION_TARGETS = (
    ("ptlab.perms", "count_agreements", "perms.count"),
    ("ptlab.perms", "count_joint", "perms.count"),
    ("ptlab.perms", "count_image_triples", "perms.count"),
    ("ptlab.perms", "count_projection_agreement", "perms.count"),
    ("ptlab.perms", "gather_indices", "perms.gather_indices"),
    ("ptlab.partitions", "enumerate_bipartite_pairings",
     "partitions.enumerate_bipartite_pairings"),
    ("ptlab.partitions", "enumerate_nc", "partitions.enumerate_nc"),
    ("ptlab.partitions", "moments_to_free_cumulants", "partitions.moments_to_free_cumulants"),
    ("ptlab.partitions", "free_cumulants_to_moments", "partitions.free_cumulants_to_moments"),
    ("ptlab.wick", "count_admissible", "wick.count_admissible"),
    ("ptlab.wick", "exact_mixed_moment", "wick.exact_mixed_moment"),
    ("ptlab.wick", "exact_mixed_cumulant", "wick.exact_mixed_cumulant"),
    ("ptlab.wick", "exact_trace_covariance", "wick.exact_trace_covariance"),
    ("ptlab.asymptotics", "limit_cumulant_gamma", "asymptotics.limit_cumulant_gamma"),
    ("ptlab.asymptotics", "limit_moments_gamma", "asymptotics.limit_moments_gamma"),
    ("ptlab.asymptotics", "verdict_family", "asymptotics.verdict_family"),
    ("ptlab.asymptotics", "empirical_density_probe", "asymptotics.empirical_density_probe"),
    ("ptlab.montecarlo", "sample_ginibre", "montecarlo.sample_ginibre"),
    ("ptlab.montecarlo", "polar_normals", "montecarlo.polar_normals"),
    ("ptlab.montecarlo", "mc_mixed_moments", "montecarlo.estimate"),
    ("ptlab.montecarlo", "mc_mixed_moment", "montecarlo.estimate"),
    ("ptlab.montecarlo", "mc_covariance", "montecarlo.estimate"),
    ("ptlab.montecarlo", "mc_mixed_cumulant", "montecarlo.estimate"),
    ("ptlab.montecarlo", "variance_scaling_probe", "montecarlo.estimate"),
    ("ptlab.cli", "main", "cli.main"),
)

EVAL_CLASSES = ("Identity", "Transpose", "PartialTranspose", "InducedDiagonal",
                "TablePermutation", "Composition")

#: span name -> (metric field, work count of one call from its args and result)
WORK = {
    "perms.eval_arrays": ("points", lambda a, k, r: int(np.broadcast(a[1], a[2]).size)),
    "partitions.enumerate_nc": ("partitions", lambda a, k, r: len(r)),
    "montecarlo.polar_normals": ("normals", lambda a, k, r: int(r.size)),
}

#: every span the tracer records, in report order
SPANS = tuple(dict.fromkeys(
    ["perms.eval_arrays", "perms.is_symmetric"]
    + [name for _, _, name in FUNCTION_TARGETS]
    + ["montecarlo.draw"]))


def metric_names() -> list[str]:
    """Every per-layer metric: calls and self time of each span, plus its work count."""
    names = []
    for span in SPANS:
        names += [f"{span}.calls", f"{span}.self_s"]
        if span in WORK:
            names.append(f"{span}.{WORK[span][0]}")
        if span == "wick.count_admissible":
            names.append(f"{span}.enumerated_ratio")
    return names


def layer_value(name: str, layers: dict) -> float:
    """The value of metric ``name`` from ``layer_totals``; 0 for a span never entered."""
    span, field = name.rsplit(".", 1)
    agg = layers.get(span)
    if agg is None:
        return 0
    if field == "enumerated_ratio":
        return agg.get("enumerated", 0) / agg["calls"]
    return agg["work" if span in WORK and field == WORK[span][0] else field]


class Tracer:
    """Records spans while installed; ``install``/``uninstall`` patch ptlab."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[int, int] = {}  # span row -> work count (points, normals, ...)
        self.op = "setup"
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def _open(self, name: str) -> int:
        row = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        self._stack.append(row)
        return row

    def _close(self, row: int) -> None:
        self.spans[row][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            row = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(row)
            if count is not None:
                self.counters[row] = count(args, kwargs, result)
            return result
        return wrapper

    def _wrap_sample_wishart(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                row = self._open("montecarlo.draw")
                try:
                    W = next(inner)
                except StopIteration:
                    self._close(row)
                    self.spans.pop()  # the exhausting next() is not a draw
                    return
                self._close(row)
                yield W
        return wrapper

    # -- patching -------------------------------------------------------------

    def _patch_everywhere(self, original, replacement) -> None:
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "ptlab" or modname.startswith("ptlab.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self) -> None:
        import ptlab.perms as pm  # noqa: F401 - every target module must be loaded
        import ptlab.cli  # noqa: F401
        if self._restore:
            raise RuntimeError("tracer already installed")
        def count(name):
            return WORK[name][1] if name in WORK else None

        for modname, attr, name in FUNCTION_TARGETS:
            original = getattr(sys.modules[modname], attr)
            self._patch_everywhere(original, self._wrap(name, original, count(name)))
        mc = sys.modules["ptlab.montecarlo"]
        self._patch_everywhere(mc.sample_wishart, self._wrap_sample_wishart(mc.sample_wishart))

        for cls_name in EVAL_CLASSES:
            cls = getattr(pm, cls_name)
            original = cls.__dict__["eval_arrays"]
            self._restore.append((cls, "eval_arrays", original))
            setattr(cls, "eval_arrays",
                    self._wrap("perms.eval_arrays", original, count("perms.eval_arrays")))
        base = pm.EntryPermutation
        original = base.__dict__["is_symmetric"]
        self._restore.append((base, "is_symmetric", original))
        setattr(base, "is_symmetric", self._wrap("perms.is_symmetric", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def reset(self) -> None:
        if self._stack:
            raise RuntimeError("reset inside an open span")
        self.spans = []
        self.counters = {}


def self_times(spans: list[list]) -> list[float]:
    """Per-span self time: duration minus the durations of its direct children."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def has_descendant(spans: list[list], name: str) -> set[int]:
    """Rows of spans with at least one descendant span called ``name``."""
    marked: set[int] = set()
    for row, span in enumerate(spans):
        if span[0] != name:
            continue
        parent = span[3]
        while parent >= 0 and parent not in marked:
            marked.add(parent)
            parent = spans[parent][3]
    return marked


def layer_totals(spans: list[list], counters: dict[int, int]) -> dict[str, dict]:
    """Per span name: calls, self_s, total_s and the summed work count.

    ``perms.eval_arrays`` counts points only at the outermost evaluation (a
    ``Composition`` evaluates its factors as nested spans).
    """
    selfs = self_times(spans)
    out: dict[str, dict] = {}
    for row, (name, start, end, parent, _) in enumerate(spans):
        agg = out.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0, "work": 0})
        agg["calls"] += 1
        agg["self_s"] += selfs[row]
        nested = parent >= 0 and spans[parent][0] == name
        if not nested:
            agg["total_s"] += end - start
            agg["work"] += counters.get(row, 0)
    enumerated = has_descendant(spans, "perms.eval_arrays")
    ca = [row for row, s in enumerate(spans) if s[0] == "wick.count_admissible"]
    if ca:
        out["wick.count_admissible"]["enumerated"] = sum(row in enumerated for row in ca)
    return out
