"""Span tracing for the barnorm benchmark, from outside the library.

The tracer wraps the library's public functions and methods and records a
span around every call.  A span's *self time* ("busy") is its duration
minus the time covered by its direct child spans, so the busy times of all
spans under one root add up to at most the root's duration.  Totals per
span name are kept for every call; the spans themselves are kept in memory
only down to ``keep_depth`` (the operation roots and the layer calls they
make directly), because the hot layers are entered hundreds of thousands of
times per operation.  Nothing is written while tracing runs.
"""

from __future__ import annotations

import functools
import gc
import time
import weakref
from collections import defaultdict
from pathlib import Path


class Tracer:
    """Nested spans with per-name call counts, self times and counters."""

    def __init__(self, clock=time.perf_counter, keep_depth: int = 1):
        self.clock = clock
        self.keep_depth = keep_depth
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, int] = defaultdict(int)
        # kept spans as [name, start, end, parent index or -1]
        self.spans: list[list] = []
        self._stack: list[list] = []  # [name, start, child time, kept index]
        self._seen: dict[str, weakref.WeakKeyDictionary] = {}

    def enter(self, name: str) -> None:
        idx = -1
        if len(self._stack) <= self.keep_depth:
            idx = len(self.spans)
            parent = self._stack[-1][3] if self._stack else -1
            self.spans.append([name, None, None, parent])
        self._stack.append([name, self.clock(), 0.0, idx])

    def exit(self) -> None:
        end = self.clock()
        name, start, child, idx = self._stack.pop()
        duration = end - start
        self.calls[name] += 1
        self.busy[name] += duration - child
        if self._stack:
            self._stack[-1][2] += duration
        if idx >= 0:
            self.spans[idx][1] = start
            self.spans[idx][2] = end

    def first_seen(self, name: str, owner, key) -> bool:
        """Whether ``key`` is new for ``owner`` under ``name``; counts it.

        Owners are held weakly, so an object freed during the run cannot
        pass its keys on to a new object at the same address.
        """
        per_owner = self._seen.setdefault(name, weakref.WeakKeyDictionary())
        keys = per_owner.setdefault(owner, set())
        if key in keys:
            return False
        keys.add(key)
        self.counts[name + ".distinct"] += 1
        return True


class GcWatch:
    """Counts interpreter garbage collections and their pause time."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.collections = 0
        self.pause_s = 0.0
        self._started = None

    def __call__(self, phase, info) -> None:
        if phase == "start":
            self._started = self.clock()
        elif self._started is not None:
            self.collections += 1
            self.pause_s += self.clock() - self._started
            self._started = None

    def __enter__(self):
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self)


def traced(tracer: Tracer, fn, name, observe=None):
    """``fn`` wrapped in a span; ``name`` is a string or a function of the
    call's arguments.  ``observe(tracer, result, *args)`` runs after the
    span closes, so counting costs no layer any busy time."""
    static = isinstance(name, str)
    enter = tracer.enter
    exit_ = tracer.exit

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        enter(name if static else name(*args, **kwargs))
        try:
            result = fn(*args, **kwargs)
        finally:
            exit_()
        if observe is not None:
            observe(tracer, result, *args, **kwargs)
        return result

    return wrapper


# -- what is traced ------------------------------------------------------------


def _add(counter):
    def observe(tracer, result, *args, **kwargs):
        tracer.counts[counter] += len(result)
    return observe


def _merge_size(tracer, result, *args):
    size = len(result)
    if size > tracer.maxima["chains.merge.max_terms"]:
        tracer.maxima["chains.merge.max_terms"] = size


def _norm_kind(norms):
    """Span name of a ``weighted_norm`` call by the path it takes, decided by
    the library's own rule for the exact integer power sum."""
    def name(chain, n, p, *rest, **kwargs):
        if p == norms.INF:
            return "norms.weighted_norm.inf"
        if norms._exponent_as_int(p) is not None:
            return "norms.weighted_norm.int"
        return "norms.weighted_norm.frac"
    return name


def _norm_terms(tracer, result, chain, *rest, **kwargs):
    tracer.counts["norms.weighted_norm.terms"] += len(chain)


def _annulus_fill(tracer, result, operator, r):
    if tracer.first_seen("diffusion.annulus", operator, r):
        tracer.counts["diffusion.annulus.elements"] += len(result)


def _cone_observe(tracer, result, operator, chain):
    tracer.counts["diffusion.cone.out_terms"] += len(result)
    key = (chain.degree, frozenset(chain.terms()))
    tracer.first_seen("diffusion.cone", operator, key)


def _partial_sum_observe(tracer, result, construction, top_level):
    tracer.first_seen("vanishing.partial_sum", construction, top_level)


def _csv_bytes(tracer, result, path, *rest):
    tracer.counts["cli.write_csv.bytes"] += Path(path).stat().st_size


HARNESS_SUITES = (
    "run_growth", "run_contractivity", "run_compare", "run_pushforward",
    "run_diffuse", "run_f2", "run_all",
)
NORM_VERIFIERS = (
    "check_contractivity", "verify_comparison", "verify_pushforward_estimate",
    "pushforward_norm_bound", "pushforward_holder_bound",
)


def layer_specs(bn):
    """``(owner, attribute, span name, observer)`` for every traced name.

    ``bn`` is the imported ``barnorm`` package with ``harness`` and ``cli``
    loaded.
    """
    g, c, n, d, v, h, cli = (bn.groups, bn.chains, bn.norms, bn.diffusion,
                             bn.vanishing, bn.harness, bn.cli)
    specs = []
    for model in (g.FreeGroup, g.FreeAbelian, g.Cyclic, g.DirectProduct):
        specs.append((model, "multiply", "groups.multiply", None))
        specs.append((model, "validate", "groups.validate", None))
    specs += [
        (g.GroupModel, "diameter", "groups.diameter", None),
        (c.Chain, "__add__", "chains.merge", _merge_size),
        (c.Chain, "__sub__", "chains.merge", _merge_size),
        (c.Chain, "__eq__", "chains.eq", None),
        (c.Chain, "from_terms", "chains.from_terms", _add("chains.from_terms.terms")),
        (c, "boundary", lambda chain, **kw: f"chains.boundary.d{chain.degree}",
         _add("chains.boundary.out_terms")),
        (c, "push_forward", "chains.push_forward", None),
        (n, "weighted_norm", _norm_kind(n), _norm_terms),
        (n, "weighted_power_sum", "norms.weighted_norm.int", None),
        (n, "diameter_map", "norms.diameter_map", None),
    ]
    specs += [(n, name, "norms.verify", None) for name in NORM_VERIFIERS]
    op = d.DiffusionOperator
    specs += [
        (op, "annulus", "diffusion.annulus", _annulus_fill),
        (op, "cone", "diffusion.cone", _cone_observe),
        (op, "chain_map", "diffusion.chain_map", _add("diffusion.chain_map.out_terms")),
        (op, "estimate_report", "diffusion.estimate_report", None),
    ]
    vc = v.VanishingConstruction
    for name in ("level", "level_chunk", "edge_sum", "boundary_tail", "decay_table"):
        specs.append((vc, name, f"vanishing.{name}", None))
    specs.append((vc, "partial_sum", "vanishing.partial_sum", _partial_sum_observe))
    specs.append((h, "random_chain", "harness.random_chain", None))
    specs += [(h, name, f"harness.{name}", None) for name in HARNESS_SUITES]
    specs += [
        (cli, "main", "cli.main", None),
        (cli, "write_csv", "cli.write_csv", _csv_bytes),
    ]
    return specs


class Instrumentation:
    """Installs the tracing wrappers; :meth:`remove` restores every name.

    A module-level function is replaced in every ``barnorm`` module that
    holds it (``from .chains import boundary`` binds ``boundary`` in each
    importer); methods are replaced on their class, which every caller goes
    through.
    """

    def __init__(self, tracer: Tracer, bn):
        self._undo: list[tuple] = []
        modules = [bn] + [getattr(bn, name) for name in
                          ("groups", "chains", "norms", "diffusion",
                           "vanishing", "harness", "cli")]
        try:
            for owner, attr, name, observe in layer_specs(bn):
                original = owner.__dict__[attr]
                if isinstance(original, classmethod):
                    wrapped = classmethod(
                        traced(tracer, original.__func__, name, observe))
                    self._set(owner, attr, wrapped)
                    continue
                wrapped = traced(tracer, original, name, observe)
                if isinstance(owner, type):
                    self._set(owner, attr, wrapped)
                    continue
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._set(module, key, wrapped)
        except BaseException:
            self.remove()
            raise

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.remove()


# -- per-layer metrics -----------------------------------------------------------

_BUSY = (
    "groups.multiply", "groups.validate", "groups.diameter",
    "chains.merge", "chains.boundary.d2", "chains.boundary.d3", "chains.eq",
    "chains.from_terms", "chains.push_forward",
    "norms.weighted_norm.int", "norms.weighted_norm.frac",
    "norms.weighted_norm.inf", "norms.diameter_map", "norms.verify",
    "diffusion.annulus", "diffusion.cone", "diffusion.chain_map",
    "diffusion.estimate_report",
    "vanishing.level", "vanishing.level_chunk", "vanishing.partial_sum",
    "vanishing.edge_sum", "vanishing.decay_table",
    "harness.random_chain", *(f"harness.{name}" for name in HARNESS_SUITES),
    "cli.main", "cli.write_csv",
)
_CALLS = (
    "groups.multiply", "groups.validate", "chains.merge", "diffusion.cone",
    "vanishing.partial_sum", "vanishing.boundary_tail",
)
_COUNTS = (
    ("chains.boundary.out_terms", "count"),
    ("chains.from_terms.terms", "count"),
    ("norms.weighted_norm.terms", "count"),
    ("diffusion.annulus.elements", "count"),
    ("diffusion.cone.out_terms", "count"),
    ("diffusion.chain_map.out_terms", "count"),
    ("cli.write_csv.bytes", "bytes"),
)
_USEFUL = ("vanishing.partial_sum", "diffusion.cone")

LAYER_METRICS = (
    tuple((f"{name}.calls", "count", "lower") for name in _CALLS)
    + tuple((f"{name}.busy_s", "s", "lower") for name in _BUSY)
    + (("chains.merge.max_terms", "count", "lower"),)
    + tuple((name, unit, "lower") for name, unit in _COUNTS)
    + tuple((f"{name}.useful_ratio", "ratio", "higher") for name in _USEFUL)
    + (
        ("runtime.gc.collections", "count", "lower"),
        ("runtime.gc.pause_s", "s", "lower"),
        ("trace.wall_s", "s", "lower"),
        ("trace.untimed_s", "s", "lower"),
        ("trace.overhead", "ratio", "lower"),
    )
)
"""``(name, unit, better)`` of every per-layer metric, in report order."""


def layer_metrics(tracer: Tracer, gc_watch: GcWatch, wall_s: float,
                  overhead: float) -> dict:
    """Per-layer metrics of one traced phase whose roots spanned ``wall_s``.

    ``trace.untimed_s`` is ``wall_s`` minus the busy time of every traced
    layer: the benchmark's own code between calls, plus tracing overhead
    outside the layer spans.  A layer the workload never reaches reads 0.
    """
    values = {}
    for name in _CALLS:
        values[f"{name}.calls"] = tracer.calls.get(name, 0)
    for name in _BUSY:
        values[f"{name}.busy_s"] = tracer.busy.get(name, 0.0)
    values["chains.merge.max_terms"] = tracer.maxima.get("chains.merge.max_terms", 0)
    for name, _ in _COUNTS:
        values[name] = tracer.counts.get(name, 0)
    for name in _USEFUL:
        calls = tracer.calls.get(name, 0)
        distinct = tracer.counts.get(name + ".distinct", 0)
        values[f"{name}.useful_ratio"] = distinct / calls if calls else 0.0
    layer_busy = sum(t for name, t in tracer.busy.items()
                     if not name.startswith("bench."))
    values["runtime.gc.collections"] = gc_watch.collections
    values["runtime.gc.pause_s"] = gc_watch.pause_s
    values["trace.wall_s"] = wall_s
    values["trace.untimed_s"] = wall_s - layer_busy
    values["trace.overhead"] = overhead
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _ in LAYER_METRICS}
