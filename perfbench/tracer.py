"""In-memory span recorder and the layer wrappers it installs in a repro process.

Nothing under ``src/`` knows about this module.  ``launch.py`` imports it
inside the program's own process, calls :func:`install` once the
``repro`` modules are imported, and writes the recorded spans when the
program returns.  A wrapper replaces a public callable in its home
module or class *and* everywhere a ``from x import f`` (or a module-level
registry) already bound the original, so calls made through any alias
are traced.

A span is ``(id, parent, root, name, start_ns, end_ns, thread, args)``.
``root`` is the id of the outermost span of the command or HTTP request
that caused it.  Times come from ``time.perf_counter_ns``, which on Linux
is the system-wide monotonic clock, so the launching benchmark can put
its own timestamps on the same axis.

``World.step`` can run tens of thousands of times per command, so it is
a *hot* wrapper: it records no span of its own but adds its count, time
and simulated rounds to the span it runs under (``args["hot"]``, name ->
``[count, ns]``), which keeps the self-time arithmetic exact without
storing one span per step.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import sys
import threading
import time

_now = time.perf_counter_ns


def _annotated(annotate, a, k, result, exc):
    """The span's args: ``annotate``'s dict, plus the exception type when
    the call raised (``annotate`` then sees ``result=None``)."""
    extra = {}
    if annotate is not None:
        try:
            extra = dict(annotate(a, k, result) or {})
        except (TypeError, AttributeError, IndexError):
            if exc is None:
                raise
    if exc is not None:
        extra["error"] = type(exc).__name__
    return extra


class Recorder:
    """Collects spans in memory; one per traced process."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        #: (span id, root id, hot-time accumulator) of the running span.
        self._current = contextvars.ContextVar("perfbench_span", default=None)
        self._local = threading.local()
        #: hot time that ran outside any span, by name: [count, ns]
        self.orphan_hot = {}

    # -- recording ----------------------------------------------------- #

    def _open(self, root: bool):
        parent = None if root else self._current.get()
        sid = next(self._ids)
        root_id = sid if parent is None else parent[1]
        hot = {}
        token = self._current.set((sid, root_id, hot))
        return parent, sid, root_id, hot, token

    def _close(self, name, parent, sid, root_id, hot, token, t0, args):
        t1 = _now()
        self._current.reset(token)
        if hot:
            args["hot"] = hot
        self.spans.append((
            sid, None if parent is None else parent[0], root_id, name,
            t0, t1, threading.get_ident(), args,
        ))

    def span(self, name, fn, annotate=None, root=False):
        """Wrap ``fn`` so each call records one span named ``name``.

        ``annotate(args, kwargs, result)`` may return a dict stored with
        the span; a call that raises is recorded too, with ``error``.
        ``root=True`` starts a new request: the span gets no parent even
        when called under another span.
        """
        rec = self

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*a, **k):
                parent, sid, root_id, hot, token = rec._open(root)
                t0 = _now()
                try:
                    result = await fn(*a, **k)
                except BaseException as exc:
                    extra = _annotated(annotate, a, k, None, exc)
                    raise
                else:
                    extra = _annotated(annotate, a, k, result, None)
                    return result
                finally:
                    rec._close(name, parent, sid, root_id, hot, token, t0, extra)

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*a, **k):
            parent, sid, root_id, hot, token = rec._open(root)
            t0 = _now()
            try:
                result = fn(*a, **k)
            except BaseException as exc:
                extra = _annotated(annotate, a, k, None, exc)
                raise
            else:
                extra = _annotated(annotate, a, k, result, None)
                return result
            finally:
                rec._close(name, parent, sid, root_id, hot, token, t0, extra)

        return wrapper

    def hot(self, name, fn):
        """Wrap a per-round callable: time and count, charged to the
        enclosing span instead of recorded as spans of its own."""
        rec = self

        @functools.wraps(fn)
        def wrapper(*a, **k):
            t0 = _now()
            try:
                return fn(*a, **k)
            finally:
                dt = _now() - t0
                current = rec._current.get()
                acc = rec.orphan_hot if current is None else current[2]
                slot = acc.get(name)
                if slot is None:
                    acc[name] = [1, dt]
                else:
                    slot[0] += 1
                    slot[1] += dt

        return wrapper

    def count(self, name, n):
        """Add ``n`` to counter ``name`` of the running span."""
        current = self._current.get()
        acc = self.orphan_hot if current is None else current[2]
        slot = acc.setdefault(name, [0, 0])
        slot[0] += n

    def add_span(self, name, t0, t1, args=None):
        """Record an already-timed root span (the launcher's import)."""
        sid = next(self._ids)
        self.spans.append((sid, None, sid, name, t0, t1,
                           threading.get_ident(), dict(args or {})))

    # -- per-thread trace bookkeeping (engine.trace_events_kept) -------- #

    def new_traces(self):
        traces = getattr(self._local, "traces", None)
        if traces is None:
            traces = self._local.traces = []
        return traces

    def dump(self, path):
        payload = {"spans": self.spans, "orphan_hot": self.orphan_hot}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))


# --------------------------------------------------------------------- #
# Rebinding
# --------------------------------------------------------------------- #

def _repro_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "repro" or name.startswith("repro."))]


class Patcher:
    """Collects (original, replacement) pairs, then rebinds them all in
    one pass over the loaded repro modules."""

    def __init__(self):
        self._swaps = {}  # id(original) -> (original, replacement, required)

    def function(self, module, attr, make):
        """Wrap module-level function ``module.attr`` everywhere it is bound."""
        original = getattr(module, attr)
        self._swaps[id(original)] = (original, make(original), True)

    def method(self, cls, attr, make):
        """Wrap a method (plain, class- or static-) on ``cls``, and any
        module-level alias of its function."""
        raw = cls.__dict__[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            replacement = type(raw)(make(raw.__func__))
            self._swaps[id(raw.__func__)] = (raw.__func__, replacement.__func__, False)
        else:
            replacement = make(raw)
            self._swaps[id(raw)] = (raw, replacement, False)
        setattr(cls, attr, replacement)

    def apply(self):
        """Replace every original in module globals and module-level
        dicts (registries such as the graph-family table)."""
        bound = set()

        def swap(value):
            entry = self._swaps.get(id(value))
            if entry is not None and entry[0] is value:
                bound.add(id(value))
                return entry[1]
            return None

        for module in _repro_modules():
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                new = swap(value)
                if new is not None:
                    namespace[attr] = new
                elif type(value) is dict:
                    for key, item in list(value.items()):
                        new = swap(item)
                        if new is not None:
                            value[key] = new
        missing = [o.__qualname__ for key, (o, _, required) in self._swaps.items()
                   if required and key not in bound]
        if missing:
            raise RuntimeError(f"bound nowhere: {', '.join(missing)}")


# --------------------------------------------------------------------- #
# The layer map: which public entry points make which spans
# --------------------------------------------------------------------- #

def _failed_count(records_lists):
    return sum(1 for recs in records_lists for r in recs if r.get("failed"))


def install(rec: Recorder) -> None:
    """Install every layer wrapper.  The repro modules named here must
    already be importable; they are imported now if they are not."""
    import repro.cli  # noqa: F401
    import repro.analysis.batching as batching
    import repro.analysis.experiments as experiments
    import repro.analysis.metrics as metrics
    import repro.analysis.store as store
    import repro.evals.report as evals_report
    import repro.evals.runner as evals_runner
    import repro.graphs.generators as generators
    import repro.graphs.quotient as quotient
    import repro.graphs.specs as specs
    import repro.scenarios as scenarios
    import repro.serve.server as server
    import repro.serve.service as service
    import repro.sim.trace as sim_trace
    import repro.sim.world as world
    import repro.core.general_graphs as general_graphs
    import repro.core.quotient_algorithm as quotient_algorithm
    import repro.core.strong_byzantine as strong_byzantine

    span = rec.span
    patch = Patcher()

    # cli
    patch.function(repro.cli, "main", lambda f: span("cli.main", f, root=True))

    # graphs
    for name in generators.__all__:
        if callable(getattr(generators, name, None)) and name in specs._REGISTRY:
            patch.function(generators, name, lambda f: span("graphs.build", f))
    patch.function(specs, "resolve_spec", lambda f: span("graphs.resolve", f))
    patch.function(specs, "graph_fingerprint",
                   lambda f: span("graphs.fingerprint", f))
    patch.function(quotient, "is_quotient_isomorphic",
                   lambda f: span("graphs.quotient", f))

    # scenarios
    patch.function(scenarios, "grid", lambda f: span("scenarios.compile", f))
    patch.method(scenarios.ScenarioGrid, "cells",
                 lambda f: span("scenarios.compile", f))
    patch.method(scenarios.Scenario, "from_dict",
                 lambda f: span("scenarios.parse", f))

    # analysis.store
    patch.method(store.RunStore, "__init__", lambda f: span("store.open", f))
    patch.method(store.RunStore, "get", lambda f: span(
        "store.get", f, annotate=lambda a, k, r: {"hit": r is not None}))
    patch.method(store.RunStore, "put", lambda f: span("store.put", f))

    # analysis.experiments executor
    patch.function(experiments, "execute_plan", lambda f: span(
        "executor.plan", f,
        annotate=lambda a, k, r: {"cells": len(r), "quarantined": _failed_count(r)}))
    patch.function(experiments, "cell_key_of", lambda f: span("executor.key", f))
    patch.function(experiments, "_cell_records", lambda f: span(
        "executor.cell", f, annotate=lambda a, k, r: {"cell": id(a[0])}))

    # analysis.batching + sim.batch
    patch.function(batching, "plan_groups", lambda f: span(
        "batch.plan", f,
        annotate=lambda a, k, r: {"pending": len(a[1]), "groups": len(r[0])}))

    patch.function(batching, "run_batch_group", lambda f: span(
        "batch.run", f,
        annotate=lambda a, k, r: {
            "cells": len(a[1]), "leftover": len(a[1] if r is None else r)}))

    # engine: solvers, rounds, kept trace events
    def solver(f):
        @functools.wraps(f)
        def counted(*a, **k):
            traces = rec.new_traces()
            mark = len(traces)
            try:
                return f(*a, **k)
            finally:
                rec._local.kept = sum(len(t.events) for t in traces[mark:])
                del traces[mark:]
        return span("engine.solve", counted, annotate=lambda a, k, r: {
            "trace_events": rec._local.kept})

    for module, name in (
        (quotient_algorithm, "solve_theorem1"),
        (general_graphs, "solve_theorem2"),
        (general_graphs, "solve_theorem3"),
        (general_graphs, "solve_theorem4"),
        (general_graphs, "solve_theorem5"),
        (strong_byzantine, "solve_theorem6"),
        (strong_byzantine, "solve_theorem7"),
    ):
        patch.function(module, name, solver)
    def step(f):
        @functools.wraps(f)
        def stepped(self, *a, **k):
            before = self.round
            try:
                return f(self, *a, **k)
            finally:
                # one step can fast-forward many rounds of sleeping robots
                rec.count("engine.rounds", self.round - before)
        return rec.hot("engine.step", stepped)

    patch.method(world.World, "step", step)

    def trace_init(f):
        @functools.wraps(f)
        def registered(self, *a, **k):
            f(self, *a, **k)
            rec.new_traces().append(self)
        return registered

    patch.method(sim_trace.Trace, "__init__", trace_init)

    # analysis.metrics
    patch.function(metrics, "record_from_report",
                   lambda f: span("records.encode", f))

    # evals
    patch.function(evals_runner, "run_suite", lambda f: span("evals.run", f))
    for name in ("leaderboard", "expected_payload", "json_payload", "table"):
        patch.method(evals_report.EvalReport, name,
                     lambda f: span("evals.report", f))

    # serve: the HTTP handler (one root per request), submission, and the
    # compute-thread entry (one root per computed cell)
    patch.method(server.ServeApp, "_route", lambda f: span(
        "serve.http", f, root=True,
        annotate=lambda a, k, r: {"path": a[1].path, "status": r[0]}))
    patch.method(service.DispersionService, "submit", lambda f: span(
        "serve.submit", f, annotate=lambda a, k, r: {"status": r[0], "key": r[1]}))
    patch.method(service.DispersionService, "_compute", lambda f: span(
        "serve.compute", f, root=True, annotate=lambda a, k, r: {"key": a[1]}))
    patch.apply()
