"""Span tracing around calls into the lefschetz package's layers.

Spans are recorded from outside the package: :func:`install` replaces each
traced function by a timing wrapper under every name its callers look it
up by (module globals for functions, the class dictionary for methods) and
puts the originals back when the block ends.  Nothing inside the package
changes.

A span is ``[name, start_ns, end_ns, parent_index]``; spans live in memory
for one pass of a workload and are reduced by :func:`self_times`.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import Counter
from typing import Callable, Iterator, Optional

# Name of the pseudo-spans that cover the tracer's own observation work, so
# that it is subtracted from the enclosing span instead of inflating it.
OBSERVE = "trace.observe"


class Tracer:
    """In-memory span recorder with per-pass counters and key sets."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.layers: list[str] = []
        self.counters: Counter = Counter()
        self.keys: dict[str, set] = {}

    def reset(self) -> None:
        self.spans = []
        self.stack = []
        self.layers = []
        self.counters = Counter()
        self.keys = {}

    def wrap(
        self,
        name: str,
        fn: Callable,
        observe: Optional[Callable[["Tracer", tuple, dict], None]] = None,
        layer: Optional[str] = None,
    ) -> Callable:
        """A wrapper of ``fn`` that records a span named ``name``.

        Spans mark layer boundaries.  Layers nest by dotted name (default:
        the span name).  A call made while the innermost open span is in
        this layer or inside it, such as ``check_slp`` calling
        ``direct_sum_check`` or ``degree_basis`` (layer
        ``monomials.degree_basis``) calling ``contains`` (layer
        ``monomials``), is part of that span and is not recorded.
        ``observe`` sees the arguments before the call; its time is
        recorded as an :data:`OBSERVE` span.
        """
        tracer = self
        layer = layer or name
        inner = layer + "."

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            layers = tracer.layers
            if layers and (layers[-1] == layer or layers[-1].startswith(inner)):
                return fn(*args, **kwargs)
            spans = tracer.spans
            stack = tracer.stack
            parent = stack[-1] if stack else -1
            clock = tracer.clock
            if observe is not None:
                began = clock()
                observe(tracer, args, kwargs)
                spans.append([OBSERVE, began, clock(), parent])
            span = [name, 0, 0, parent]
            stack.append(len(spans))
            layers.append(layer)
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                layers.pop()

        return traced


def self_times(spans: list) -> dict[str, tuple[int, int]]:
    """Per name: (span count, summed self time in ns).

    A span's self time is its duration minus the durations of its direct
    children.  Children are nested inside their parent and run one after
    another, so their durations never overlap.
    """
    child = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    calls: Counter = Counter()
    own: Counter = Counter()
    for index, (name, start, end, parent) in enumerate(spans):
        calls[name] += 1
        own[name] += end - start - child[index]
    return {name: (calls[name], own[name]) for name in calls}


# --- what is traced -------------------------------------------------------
# Each target: (span name, layer or None, module, attribute path, observe).  The path
# is "func" for a module-level function or "Class.method" for a method.
# Membership tests and ideal construction are layer "monomials", so they are
# recorded only when called from outside it, e.g. by the LGV pipeline.


def _observe_basis(tracer: Tracer, args: tuple, kwargs: dict) -> None:
    degree = args[1] if len(args) > 1 else kwargs["d"]
    tracer.keys.setdefault("monomials.degree_basis", set()).add((args[0], degree))


def _observe_rank(tracer: Tracer, args: tuple, kwargs: dict) -> None:
    matrix = args[0]
    tracer.counters["exact.rank.entries"] += matrix.rows * matrix.cols
    bits = max((abs(e) for e in matrix.entries), default=0).bit_length()
    if bits > tracer.counters["exact.rank.max_entry_bits"]:
        tracer.counters["exact.rank.max_entry_bits"] = bits


_SCAN = "lefschetz.scan"
_EXPANSION = "lefschetz.power_expansion"
_CONSTRUCT = "monomials.construct"
TARGETS = (
    ("cli", None, "lefschetz.cli", "main", None),
    ("sweeps", None, "lefschetz.sweeps", "sweep_tensor", None),
    ("sweeps", None, "lefschetz.sweeps", "sweep_type_two", None),
    ("sweeps", None, "lefschetz.sweeps", "sweep_pipeline", None),
    ("sweeps", None, "lefschetz.sweeps", "sweep_lgv_oracle", None),
    (_SCAN, None, "lefschetz.lefschetz", "check_slp", None),
    (_SCAN, None, "lefschetz.lefschetz", "check_wlp", None),
    (_SCAN, None, "lefschetz.lefschetz", "direct_sum_check", None),
    (_EXPANSION, None, "lefschetz.lefschetz", "LinearForm.power_expansion", None),
    ("monomials.degree_basis", None, "lefschetz.monomials",
     "QuotientModule.degree_basis", _observe_basis),
    ("monomials.hilbert_series", None, "lefschetz.monomials",
     "QuotientModule.hilbert_series", None),
    ("monomials.contains", "monomials", "lefschetz.monomials", "MonomialIdeal.contains", None),
    (_CONSTRUCT, "monomials", "lefschetz.monomials", "MonomialIdeal.from_generators", None),
    (_CONSTRUCT, "monomials", "lefschetz.monomials", "QuotientModule.tensor_truncation", None),
    (_CONSTRUCT, "monomials", "lefschetz.monomials", "parse_ideal", None),
    (_CONSTRUCT, "monomials", "lefschetz.monomials", "algebra_quotient", None),
    ("exact.rank", None, "lefschetz.exact", "ExactMatrix.rank", _observe_rank),
    ("exact.determinant", None, "lefschetz.exact", "ExactMatrix.determinant", None),
    ("exact.build", None, "lefschetz.exact", "ExactMatrix.from_rows", None),
    ("exact.build", None, "lefschetz.exact", "ExactMatrix.block_diagonal", None),
    ("lgv.pipeline", None, "lefschetz.lgv", "run_pipeline", None),
    ("lgv.paths", None, "lefschetz.lgv", "count_nonintersecting", None),
    ("series", None, "lefschetz.series", "sum_series", None),
    ("series", None, "lefschetz.series", "HilbertSeries.from_coefficients", None),
    ("series", None, "lefschetz.series", "HilbertSeries.shifted", None),
    ("series", None, "lefschetz.series", "HilbertSeries.__add__", None),
    ("series", None, "lefschetz.series", "is_almost_centered", None),
    ("series", None, "lefschetz.series", "is_symmetric", None),
)


@contextlib.contextmanager
def install(tracer: Tracer, targets=TARGETS) -> Iterator[None]:
    """Trace every target for the duration of the block, then restore."""
    undo: list[Callable[[], None]] = []
    try:
        for name, layer, module_name, path, observe in targets:
            module = sys.modules[module_name]
            if "." in path:
                class_name, attr = path.split(".")
                undo.append(
                    _patch_method(tracer, getattr(module, class_name), attr, name, layer, observe)
                )
            else:
                undo.extend(_patch_function(tracer, module, path, name, layer, observe))
        yield
    finally:
        for restore in reversed(undo):
            restore()


def _patch_method(tracer, owner, attr, name, layer, observe) -> Callable[[], None]:
    """Replace a method in its class; class methods stay class methods."""
    original = owner.__dict__[attr]
    if isinstance(original, classmethod):
        wrapped = classmethod(tracer.wrap(name, original.__func__, observe, layer))
    else:
        wrapped = tracer.wrap(name, original, observe, layer)
    setattr(owner, attr, wrapped)
    return lambda: setattr(owner, attr, original)


def _patch_function(tracer, module, attr, name, layer, observe) -> list[Callable[[], None]]:
    """Rebind a function in every package module that looks it up by name."""
    original = getattr(module, attr)
    wrapped = tracer.wrap(name, original, observe, layer)
    package = module.__name__.split(".")[0]
    undo = []
    for loaded_name, loaded in list(sys.modules.items()):
        if loaded_name.split(".")[0] == package and loaded.__dict__.get(attr) is original:
            setattr(loaded, attr, wrapped)
            undo.append(lambda m=loaded: setattr(m, attr, original))
    return undo
