"""Per-layer spans, recorded from outside the package.

:class:`Tracer` replaces every public callable of the layer modules with a
wrapper that records a span: name, start, end, parent span and job.  A
module-level function is replaced in every module attribute that holds it
(``cli.f0_series`` and ``closedform.f0_series`` alike), so calls through
imported names are seen too.  Methods and arithmetic dunders are patched on
their classes.  :func:`layer_metrics` turns the spans into per-layer calls,
inclusive time and self time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import tracemalloc
from collections import defaultdict
from types import FunctionType
from typing import Callable, Optional

LAYERS = ("cli", "paths", "series", "closedform", "holonomic", "linalg")
PACKAGE = "motzkin_parity"

#: Dunders that do arithmetic; other dunders (init, eq, repr, ...) stay bare.
DUNDERS = ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__",
           "__truediv__", "__pow__", "__call__")
#: Called once per table cell inside ``dp_table``; a span each would cost
#: more than the table.
SKIPPED = {"paths.StepModel.weight"}


def _bits(series) -> int:
    return max(max(c.numerator.bit_length(), c.denominator.bit_length())
               for c in series.coeffs)


def _series_mul(args, kwargs, result):
    n = result.order
    return (n * (n + 1) // 2 if hasattr(args[1], "coeffs") else n, _bits(result))


def _series_div(args, kwargs, result):
    n = result.order
    # a scalar divisor is forwarded to __mul__, which counts it
    return (n * (n + 1) // 2 if hasattr(args[1], "coeffs") else 0, _bits(result))


def _series_sqrt(args, kwargs, result):
    n = result.order
    return ((n - 1) * (n - 2) // 2 + n, _bits(result))


def _dp_cells(args, kwargs, result):
    return (result.length + 1) ** 2


def _order(args, kwargs, result):
    return result.order


def _found(args, kwargs, result):
    return result is not None


def _extended(args, kwargs, result):
    return max(0, len(result) - len(args[1]))


def _nullspace(args, kwargs, result):
    rows, ncols = args
    return (len(rows) * ncols, len(result))


#: Counts computed from a call's arguments and result, stored in its span.
NOTES: dict[str, Callable] = {
    "series.Series.__mul__": _series_mul,
    "series.Series.__truediv__": _series_div,
    "series.Series.sqrt": _series_sqrt,
    "paths.dp_table": _dp_cells,
    "closedform.kernel_context": _order,
    "holonomic.guess_algebraic": _found,
    "holonomic.guess_recurrence": _found,
    "holonomic.rec_extend": _extended,
    "linalg.nullspace": _nullspace,
}


def _layer_modules() -> dict[str, object]:
    return {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}


def _package_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def public_callables() -> tuple[dict[int, tuple[str, object]], list[tuple[type, str, object]]]:
    """The callables to wrap: ``id -> (span name, callable)`` for every public
    function of a layer module and every public method or arithmetic dunder
    of a class defined there, plus the ``(class, attribute, callable)`` sites
    where class members live (an alias such as ``__rmul__ = __mul__`` is one
    callable with two sites)."""
    names: dict[int, tuple[str, object]] = {}
    sites: list[tuple[type, str, object]] = []
    for layer, module in _layer_modules().items():
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if isinstance(obj, FunctionType) and not name.startswith("_"):
                names.setdefault(id(obj), (f"{layer}.{name}", obj))
            elif isinstance(obj, type) and not issubclass(obj, BaseException):
                for attr, member in vars(obj).items():
                    if attr.startswith("_") and attr not in DUNDERS:
                        continue
                    span = f"{layer}.{name}.{attr}"
                    if span in SKIPPED:
                        continue
                    if isinstance(member, (FunctionType, classmethod, staticmethod)):
                        names.setdefault(id(member), (span, member))
                        sites.append((obj, attr, member))
    return names, sites


def _replace(everywhere: dict[int, object], restore: list) -> None:
    """Point every package module attribute that holds a key object at its
    replacement, remembering the original in ``restore``."""
    for module in _package_modules():
        for attr, value in list(vars(module).items()):
            if id(value) in everywhere and isinstance(value, FunctionType):
                restore.append((module, attr, value))
                setattr(module, attr, everywhere[id(value)])


def _put_back(restore: list) -> None:
    while restore:
        owner, attr, value = restore.pop()
        setattr(owner, attr, value)


class Tracer:
    """Spans of every layer call made inside ``with tracer:``.

    ``job`` is stamped on each span; set it before each job.  Spans stay in
    memory as tuples ``(name, start, end, parent index, job, note)``.
    """

    def __init__(self) -> None:
        self.spans: list = []
        self.job: Optional[int] = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, fn: Callable, name: str) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.job, None)
            if note is not None:
                spans[index] = (name, start, end, parent, self.job, note(args, kwargs, result))
            return result

        return traced

    def __enter__(self) -> "Tracer":
        if self._restore:
            raise RuntimeError("tracer already installed")
        names, sites = public_callables()
        wrappers: dict[int, object] = {}
        for key, (name, member) in names.items():
            if isinstance(member, (classmethod, staticmethod)):
                wrappers[key] = type(member)(self._wrap(member.__func__, name))
            else:
                wrappers[key] = self._wrap(member, name)
        for cls, attr, member in sites:
            self._restore.append((cls, attr, member))
            setattr(cls, attr, wrappers[id(member)])
        _replace(wrappers, self._restore)
        return self

    def __exit__(self, *exc) -> None:
        _put_back(self._restore)


class DpMemory:
    """Peak traced memory of each ``dp_table`` call, for a pass that times
    nothing.  tracemalloc runs only while ``dp_table`` does."""

    def __init__(self) -> None:
        self.peaks: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def __enter__(self) -> "DpMemory":
        original = _layer_modules()["paths"].dp_table
        peaks = self.peaks

        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return original(*args, **kwargs)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        _replace({id(original): measured}, self._restore)
        return self

    def __exit__(self, *exc) -> None:
        _put_back(self._restore)


# ---------------------------------------------------------------------------
# aggregation

_GROUPS = {
    "series.mul": ("series.Series.__mul__",),
    "series.div": ("series.Series.__truediv__",),
    "series.sqrt": ("series.Series.sqrt",),
    "series.pow": ("series.Series.__pow__",),
    "closedform.f0": ("closedform.f0_series",),
    "closedform.even": ("closedform.even_level_series",),
    "closedform.odd": ("closedform.odd_level_series",),
    "closedform.open": ("closedform.open_series",),
    "holonomic.guess_algebraic": ("holonomic.guess_algebraic",),
    "holonomic.guess_recurrence": ("holonomic.guess_recurrence",),
    "holonomic.verify": ("holonomic.verify_algebraic", "holonomic.verify_ode",
                         "holonomic.rec_verify"),
    "holonomic.convert": ("holonomic.algeq_to_ode", "holonomic.homogenize_ode",
                          "holonomic.ode_to_recurrence"),
    "holonomic.series_root": ("holonomic.series_root",),
    "holonomic.rec_extend": ("holonomic.rec_extend",),
}


def layer_metrics(spans: list, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass whose jobs took ``wall_s``.

    A span's self time is its duration minus its children's durations, so
    the layers' self times plus the time outside every span add up to
    ``wall_s``.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, job, note in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s = defaultdict(float)
    calls = defaultdict(int)
    total_s = defaultdict(float)
    notes = defaultdict(list)
    outermost = 0.0
    for (name, start, end, parent, job, note), inner in zip(spans, child):
        self_s[name.split(".", 1)[0]] += end - start - inner
        calls[name] += 1
        total_s[name] += end - start
        if note is not None:
            notes[name].append(note)
        if parent < 0:
            outermost += end - start

    def group(key: str, table: dict):
        return sum(table[n] for n in _GROUPS[key])

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s[layer]
    for key in ("series.mul", "series.div", "series.sqrt"):
        m[f"{key}.calls"] = group(key, calls)
        m[f"{key}.s"] = group(key, total_s)
    m["series.pow.s"] = group("series.pow", total_s)
    series_notes = [n for key in ("series.mul", "series.div", "series.sqrt")
                    for name in _GROUPS[key] for n in notes[name]]
    m["series.coeff_ops"] = sum(ops for ops, _ in series_notes)
    m["series.max_bits"] = max((bits for _, bits in series_notes), default=0)

    m["paths.dp_table.calls"] = calls["paths.dp_table"]
    m["paths.dp_table.s"] = total_s["paths.dp_table"]
    m["paths.cells"] = sum(notes["paths.dp_table"])

    orders = notes["closedform.kernel_context"]
    m["closedform.kernel_context.calls"] = len(orders)
    m["closedform.kernel_context.s"] = total_s["closedform.kernel_context"]
    m["closedform.kernel_context.distinct_ratio"] = ratio(len(set(orders)), len(orders))
    for kind in ("f0", "even", "odd", "open"):
        m[f"closedform.{kind}.s"] = group(f"closedform.{kind}", total_s)

    for key in ("guess_algebraic", "guess_recurrence", "verify", "convert",
                "series_root", "rec_extend"):
        m[f"holonomic.{key}.s"] = group(f"holonomic.{key}", total_s)
    found = notes["holonomic.guess_algebraic"] + notes["holonomic.guess_recurrence"]
    m["holonomic.guess.found_ratio"] = ratio(sum(found), len(found))
    m["holonomic.rec_extend.terms"] = sum(notes["holonomic.rec_extend"])

    null = notes["linalg.nullspace"]
    m["linalg.nullspace.calls"] = len(null)
    m["linalg.nullspace.s"] = total_s["linalg.nullspace"]
    m["linalg.nullspace.cells"] = sum(cells for cells, _ in null)
    m["linalg.nullspace.dim"] = ratio(sum(dim for _, dim in null), len(null))

    m["trace.wall_s"] = wall_s
    m["trace.unattributed_s"] = wall_s - outermost
    return m
