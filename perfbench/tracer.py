"""In-memory span tracer that wraps olsonorder's layer entry points.

`installed(tracer)` replaces each function and method named in TARGETS
by a wrapper that records a span (name, start, end, parent) and counts
the call, and puts the originals back on exit.  Functions are replaced
in every olsonorder module that binds them, so calls between modules
and calls within one module are both seen.  A target that no longer
exists is listed in `tracer.missing`, and the metrics that depend on
it read as missing instead of raising.

Spans are kept in flat arrays until the pass ends.  A span's self time
is its duration minus the time covered by its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
from array import array
from collections import Counter
from time import perf_counter

# (dotted target, span name); "algebras.*.m" is method m of every backend class
TARGETS = [
    ("algebras.*.leq", "algebras.leq"),
    ("algebras.*.meet", "algebras.meet_join"),
    ("algebras.*.join", "algebras.meet_join"),
    ("algebras.*.add", "algebras.add"),
    ("algebras.*.diff", "algebras.diff"),
    ("algebras.*.join_many", "algebras.join_many"),
    ("algebras.*.meet_many", "algebras.meet_many"),
    ("algebras.*.elements", "algebras.elements"),
    ("observables.SimpleObservable.__init__", "observables.construct"),
    ("observables.StepResolution.__init__", "observables.construct"),
    ("observables.SimpleObservable.resolution_open", "observables.resolution"),
    ("observables.SimpleObservable.resolution_closed", "observables.resolution"),
    ("observables.StepResolution.open_at", "observables.resolution"),
    ("observables.StepResolution.closed_at", "observables.resolution"),
    ("observables.SimpleObservable.negate", "observables.negate"),
    ("lattice.olson_leq", "lattice.olson_leq"),
    ("lattice.compare", "lattice.compare"),
    ("lattice.olson_meet", "lattice.bound"),
    ("lattice.olson_join", "lattice.bound"),
    ("lattice.merged_grid", "lattice.merged_grid"),
    ("lattice.enumerate_grid_observables", "lattice.enum"),
    ("lattice.brute_force_meet", "lattice.brute_force"),
    ("lattice.brute_force_join", "lattice.brute_force"),
    ("hilbert.HermitianOperator.__init__", "hilbert.operator"),
    ("hilbert.spectral_measure", "hilbert.spectral_measure"),
    ("hilbert._measures_leq", "hilbert.measures_leq"),
    ("hilbert._proj_meet_many", "hilbert.proj_meet_many"),
    ("hilbert._lattice_bound", "hilbert.lattice_bound"),
    ("serialize.algebra_from_json", "serialize.from_json"),
    ("serialize.observable_from_json", "serialize.from_json"),
    ("hilbert.matrix_from_json", "serialize.from_json"),
    ("serialize.observable_to_json", "serialize.to_json"),
    ("serialize.bound_to_json", "serialize.to_json"),
    ("serialize.comparison_to_json", "serialize.to_json"),
    ("hilbert.matrix_to_json", "serialize.to_json"),
    ("cli.main", "cli.main"),
]

# (metric, unit, span whose targets it needs); run.py fills the None spans
PER_LAYER = [
    ("algebras.leq.calls", "count", "algebras.leq"),
    ("algebras.leq.self_ms", "ms", "algebras.leq"),
    ("algebras.meet_join.calls", "count", "algebras.meet_join"),
    ("algebras.meet_join.self_ms", "ms", "algebras.meet_join"),
    ("algebras.add.calls", "count", "algebras.add"),
    ("algebras.diff.self_ms", "ms", "algebras.diff"),
    ("algebras.join_many.self_ms", "ms", "algebras.join_many"),
    ("algebras.meet_many.self_ms", "ms", "algebras.meet_many"),
    ("algebras.scan_fallback.calls", "count", "algebras.join_many"),
    ("algebras.elements.yielded", "count", "algebras.elements"),
    ("observables.construct.calls", "count", "observables.construct"),
    ("observables.construct.self_ms", "ms", "observables.construct"),
    ("observables.resolution.calls", "count", "observables.resolution"),
    ("observables.resolution.self_ms", "ms", "observables.resolution"),
    ("observables.negate.self_ms", "ms", "observables.negate"),
    ("lattice.olson_leq.calls", "count", "lattice.olson_leq"),
    ("lattice.olson_leq.self_ms", "ms", "lattice.olson_leq"),
    ("lattice.compare.self_ms", "ms", "lattice.compare"),
    ("lattice.bound.self_ms", "ms", "lattice.bound"),
    ("lattice.elementwise_share", "ratio", "lattice.bound"),
    ("lattice.merged_grid.mean_points", "points", "lattice.merged_grid"),
    ("lattice.enum.calls", "count", "lattice.enum"),
    ("lattice.enum.yielded", "count", "lattice.enum"),
    ("lattice.enum.self_ms", "ms", "lattice.enum"),
    ("lattice.enum.refused", "count", "lattice.enum"),
    ("lattice.enum.bound_tightness", "ratio", "lattice.enum"),
    ("lattice.brute_force.self_ms", "ms", "lattice.brute_force"),
    ("lattice.brute_force.leq_per_candidate", "ratio", "lattice.brute_force"),
    ("hilbert.operator.calls", "count", "hilbert.operator"),
    ("hilbert.operator.self_ms", "ms", "hilbert.operator"),
    ("hilbert.spectral_measure.calls", "count", "hilbert.spectral_measure"),
    ("hilbert.spectral_measure.self_ms", "ms", "hilbert.spectral_measure"),
    ("hilbert.measures_leq.self_ms", "ms", "hilbert.measures_leq"),
    ("hilbert.proj_meet_many.calls", "count", "hilbert.proj_meet_many"),
    ("hilbert.proj_meet_many.self_ms", "ms", "hilbert.proj_meet_many"),
    ("hilbert.lattice_bound.self_ms", "ms", "hilbert.lattice_bound"),
    ("hilbert.lattice_bound.grid_points", "points", "hilbert.lattice_bound"),
    ("hilbert.max_residual_ratio", "ratio", None),
    ("serialize.from_json.self_ms", "ms", "serialize.from_json"),
    ("serialize.to_json.self_ms", "ms", "serialize.to_json"),
    ("cli.main.self_ms", "ms", "cli.main"),
    ("cli.import_ms", "ms", None),
    ("cli.import_numpy_share", "ratio", None),
    ("trace.overhead_ratio", "ratio", None),
]


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self) -> None:
        self.span_names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self.present: set[str] = set()

    def span_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.span_names)
            self.span_names.append(name)
        return self._ids[name]

    def open(self, sid: int) -> int:
        idx = len(self.name)
        self.name.append(sid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def self_ms(self) -> dict[str, float]:
        """Summed self time per span name, in milliseconds."""
        n = len(self.name)
        covered = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            if parent[i] >= 0:
                covered[parent[i]] += end[i] - start[i]
        out: Counter = Counter()
        for i in range(n):
            out[self.span_names[self.name[i]]] += end[i] - start[i] - covered[i]
        return {name: sec * 1e3 for name, sec in out.items()}

    def layer_metrics(self, self_ms: dict[str, float]) -> dict[str, float | None]:
        """Every PER_LAYER metric this tracer measures; None where missing."""
        c = self.counts

        def share(a: str, b: str) -> float:
            return c[a] / c[b] if c[b] else 0.0

        derived = {
            "algebras.scan_fallback.calls": c["algebras.scan_fallback"],
            "algebras.elements.yielded": c["algebras.elements.yielded"],
            "lattice.elementwise_share": share("lattice.bound.elementwise", "lattice.bound"),
            "lattice.merged_grid.mean_points": share("lattice.merged_grid.points", "lattice.merged_grid"),
            "lattice.enum.yielded": c["lattice.enum.yielded"],
            "lattice.enum.refused": c["lattice.enum.refused"],
            "lattice.enum.bound_tightness": share("lattice.enum.done_yielded", "lattice.enum.bound"),
            "lattice.brute_force.leq_per_candidate": share("lattice.brute_force.leq", "lattice.brute_force.candidates"),
            "hilbert.lattice_bound.grid_points": share("hilbert.lattice_bound.points", "hilbert.lattice_bound"),
        }
        out: dict[str, float | None] = {}
        for metric, _, span in PER_LAYER:
            if span is None:
                continue
            if span not in self.present:
                out[metric] = None
            elif metric in derived:
                out[metric] = derived[metric]
            elif metric.endswith(".calls"):
                out[metric] = c[span]
            else:
                out[metric] = self_ms.get(span, 0.0)
        return out


# -- wrappers -----------------------------------------------------------------


def _span_wrapper(tracer: Tracer, fn, span: str, after=None):
    sid = tracer.span_id(span)
    counts = tracer.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[span] += 1
        idx = tracer.open(sid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if after is not None:
            after(counts, args, result)
        return result

    return wrapper


def root_span(tracer: Tracer, name: str, fn):
    """fn wrapped in a span of its own, not counted as a layer call."""
    sid = tracer.span_id(name)

    def wrapper(*args):
        idx = tracer.open(sid)
        try:
            return fn(*args)
        finally:
            tracer.close(idx)

    return wrapper


def _bound_after(counts, args, result):
    counts["lattice.bound.elementwise"] += result.certified == "elementwise"


def _grid_after(counts, args, result):
    counts["lattice.merged_grid.points"] += len(result)


def _many_wrapper(tracer: Tracer, fn, span: str):
    inner = _span_wrapper(tracer, fn, span)
    counts = tracer.counts

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        if not self.lattice_guaranteed:
            counts["algebras.scan_fallback"] += 1
        return inner(self, *args, **kwargs)

    return wrapper


def _yield_counter(tracer: Tracer, fn, span: str):
    counts = tracer.counts
    key = span + ".yielded"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        for item in fn(*args, **kwargs):
            counts[key] += 1
            yield item

    return wrapper


def _enum_wrapper(tracer: Tracer, fn, span: str):
    """One span per step of the generator; the consumer's work stays outside."""
    sid = tracer.span_id(span)
    counts = tracer.counts
    refused = importlib.import_module("olsonorder.errors").CertificationTooLarge

    @functools.wraps(fn)
    def wrapper(algebra, grid, *args, **kwargs):
        counts[span] += 1
        gen = fn(algebra, grid, *args, **kwargs)
        made = 0
        while True:
            idx = tracer.open(sid)
            try:
                item = next(gen)
            except StopIteration:
                break
            except refused:
                counts[span + ".refused"] += 1
                raise
            finally:
                tracer.close(idx)
            made += 1
            counts[span + ".yielded"] += 1
            yield item
        counts[span + ".done_yielded"] += made
        counts[span + ".bound"] += algebra.size ** (len(set(grid)) - 1)

    return wrapper


def _brute_wrapper(tracer: Tracer, fn, span: str):
    inner = _span_wrapper(tracer, fn, span)
    counts = tracer.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        leq0, cand0 = counts["lattice.olson_leq"], counts["lattice.enum.yielded"]
        try:
            return inner(*args, **kwargs)
        finally:
            counts[span + ".leq"] += counts["lattice.olson_leq"] - leq0
            counts[span + ".candidates"] += counts["lattice.enum.yielded"] - cand0

    return wrapper


def _lattice_bound_wrapper(tracer: Tracer, fn, span: str):
    inner = _span_wrapper(tracer, fn, span)
    counts = tracer.counts

    @functools.wraps(fn)
    def wrapper(measures, *args, **kwargs):
        counts[span + ".points"] += len({float(t) for m in measures for t in m.grid})
        return inner(measures, *args, **kwargs)

    return wrapper


def _make_wrapper(tracer: Tracer, fn, span: str):
    if span in ("algebras.join_many", "algebras.meet_many"):
        return _many_wrapper(tracer, fn, span)
    if span == "algebras.elements":
        return _yield_counter(tracer, fn, span) if inspect.isgeneratorfunction(fn) else None
    if span == "lattice.enum":
        return _enum_wrapper(tracer, fn, span)
    if span == "lattice.brute_force":
        return _brute_wrapper(tracer, fn, span)
    if span == "hilbert.lattice_bound":
        return _lattice_bound_wrapper(tracer, fn, span)
    after = {"lattice.bound": _bound_after, "lattice.merged_grid": _grid_after}.get(span)
    return _span_wrapper(tracer, fn, span, after)


def _package_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "olsonorder" or name.startswith("olsonorder."))]


def _patch_function(tracer, module, attr, span, undo) -> bool:
    orig = getattr(module, attr, None)
    if orig is None:
        return False
    wrapper = _make_wrapper(tracer, orig, span)
    for mod in _package_modules():
        for name, value in list(vars(mod).items()):
            if value is orig:
                undo.append((mod, name, orig))
                setattr(mod, name, wrapper)
    return True


def _patch_method(tracer, cls, attr, span, undo) -> bool:
    orig = cls.__dict__.get(attr)
    if orig is None or getattr(orig, "__isabstractmethod__", False):
        return False
    wrapper = _make_wrapper(tracer, orig, span)
    if wrapper is not None:
        undo.append((cls, attr, orig))
        setattr(cls, attr, wrapper)
    return True


def _apply(tracer: Tracer, target: str, span: str, undo: list) -> bool:
    mod_name, _, rest = target.partition(".")
    try:
        module = importlib.import_module("olsonorder." + mod_name)
    except ImportError:
        return False
    owner, _, attr = rest.rpartition(".")
    if not owner:
        return _patch_function(tracer, module, attr, span, undo)
    if owner == "*":
        classes = [c for c in vars(module).values()
                   if isinstance(c, type) and c.__module__ == module.__name__]
        hits = [_patch_method(tracer, c, attr, span, undo) for c in classes]
        return any(hits)
    cls = getattr(module, owner, None)
    return cls is not None and _patch_method(tracer, cls, attr, span, undo)


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every target for the duration of the block."""
    undo: list = []
    try:
        for target, span in TARGETS:
            if _apply(tracer, target, span, undo):
                tracer.present.add(span)
            elif target not in tracer.missing:
                tracer.missing.append(target)
        # a span counts as present only when all of its targets are
        tracer.present -= {span for target, span in TARGETS if target in tracer.missing}
        yield tracer
    finally:
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)
