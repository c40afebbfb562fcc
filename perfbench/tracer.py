"""Span tracing of covshrink's public functions, installed from outside the package.

Each listed function is replaced by a timing wrapper in every covshrink
module namespace, and in every module-level dict (such as
``sim.EXPERIMENTS``), that holds it, so a call is seen whichever import path
it was resolved through.  ``src/`` is never edited; ``uninstall`` puts every
original back.

A span records its name, start, end, parent, invocation id and thread.  The
parent comes from a thread-local stack.  A span opened on a worker thread
whose own stack is empty takes as parent the innermost open span of the
thread that started the invocation: that thread is blocked inside the call
that created the pool (``replicate_losses`` and friends), which is the span
that caused the work.
"""

import functools
import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict
from typing import NamedTuple

# layer (covshrink module) -> public functions wrapped in it.  rmt.mp_density
# is left out on purpose: quad calls it hundreds of thousands of times per
# esd run, so wrapping it would measure the wrapper.
LAYERS = {
    "_rng": ("replicate_rng", "gaussian_rows"),
    "matrix_core": ("cholesky", "schur_pivots", "spectral_decompose"),
    "estimators": ("sample_covariance", "scatter_matrix", "stein_triangular",
                   "dp_equivariant", "tsai_estimator", "tsai_eigenvalues",
                   "shrinkage_terms"),
    "rmt": ("mp_cdf",),
    "loss_risk": ("stein_loss", "replicate_losses", "min_risk"),
    "hdtest": ("power_simulation", "hotelling_t2", "decomposite_t2", "chisq_pvalue"),
    "sim": ("eigenvalue_recovery_experiment", "esd_fit_experiment",
            "risk_comparison_experiment"),
    "io_cli": ("read_csv", "run_cli", "ReportDocument.to_json"),
}


def span_name(layer: str, fn_name: str) -> str:
    """Metric-safe span name: names may not start with "_", so _rng reports as rng."""
    return f"{layer.lstrip('_')}.{fn_name}"


SPAN_NAMES = tuple(span_name(layer, fn) for layer, fns in LAYERS.items() for fn in fns)


class Span(NamedTuple):
    span_id: int
    parent_id: int  # 0 for a root span
    name: str
    start: float
    end: float
    thread: int
    invocation: int
    raised: bool  # raised a CovshrinkError itself rather than passing one on


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        elif b > cur_b:
            cur_b = b
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> dict:
    """span_id -> duration minus the part of it that child spans cover.

    Children on other threads may overlap each other; overlapping time is
    counted once.
    """
    children = defaultdict(list)
    for s in spans:
        children[s.parent_id].append((s.start, s.end))
    return {s.span_id: (s.end - s.start) - covered_length(children[s.span_id], s.start, s.end)
            for s in spans}


def summarize(spans) -> dict:
    """name -> {"calls", "self_s", "raised"} summed over ``spans``."""
    own = self_times(spans)
    out = {}
    for s in spans:
        row = out.setdefault(s.name, {"calls": 0, "self_s": 0.0, "raised": 0})
        row["calls"] += 1
        row["self_s"] += own[s.span_id]
        row["raised"] += s.raised
    return out


class Tracer:
    """Records spans around covshrink's public functions while installed."""

    def __init__(self):
        from covshrink.errors import CovshrinkError

        self._error_type = CovshrinkError
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._root_stack = []
        self._restore = []
        self.invocation = 0
        self.spans = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin_invocation(self, invocation: int) -> None:
        """Tag later spans with ``invocation``; the calling thread becomes the root thread."""
        self.invocation = invocation
        self._root_stack = self._stack()

    def take_spans(self) -> list:
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                root = tracer._root_stack
                parent = root[-1] if root else 0
            span_id = next(tracer._ids)
            stack.append(span_id)
            raised = False
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except tracer._error_type as exc:
                # a child span that raised this same object already counted it
                raised = getattr(tracer._local, "last_error", None) is not exc
                tracer._local.last_error = exc
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(Span(span_id, parent, name, start, end,
                                         threading.get_ident(), tracer.invocation, raised))

        return traced

    def install(self) -> None:
        """Wrap every function in LAYERS wherever covshrink holds a reference to it."""
        if self._restore:
            raise RuntimeError("tracer is already installed")
        wrappers = {}
        for layer, names in LAYERS.items():
            module = importlib.import_module(f"covshrink.{layer}")
            for fn_name in names:
                owner_name, _, attr = fn_name.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = getattr(owner, attr)
                wrapper = self._wrap(span_name(layer, fn_name), original)
                wrappers[id(original)] = (original, wrapper)
                if owner_name:  # a method: the class is shared, patch it once
                    self._patch(owner, attr, original, wrapper, setattr)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "covshrink" and not mod_name.startswith("covshrink."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, value, hit[1], setattr)
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        hit = wrappers.get(id(item))
                        if hit is not None and hit[0] is item:
                            self._patch(value, key, item, hit[1], dict.__setitem__)

    def _patch(self, target, key, original, wrapper, setter) -> None:
        setter(target, key, wrapper)
        self._restore.append((target, key, original, setter))

    def uninstall(self) -> None:
        while self._restore:
            target, key, original, setter = self._restore.pop()
            setter(target, key, original)
