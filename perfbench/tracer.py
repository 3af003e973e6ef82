"""Per-layer spans around the simulator's public entry points.

The traced pass installs :class:`Tracer` wrappers on the entry points of
each layer (see :func:`install`).  Every span charges its
duration minus the time of the spans nested inside it ("self time") to
its layer, so the self times of one pass add up to the wall time of its
outermost span, ``run_experiment``.  A generator entry point (a
simulation process, or the optimizer's step stream) is timed once per
resume: the work a process does between two simulated events runs
inside one ``send``/``throw``.

``catalog`` and ``plans`` are called millions of times from inside the
optimizer stages, so they are deliberately left unwrapped: their time
is charged to the stage that called them.  Code no span covers (the
session and client processes, event dispatch) is charged to the nearest
enclosing span, usually ``Environment.run`` (layer ``sim``).

Only the forked traced pass installs wrappers; they are never removed,
because the process exits after the pass.
"""

from __future__ import annotations

import functools
import inspect
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    """A span stack plus self-time and call accumulators."""

    def __init__(self):
        #: open spans: [layer, start, time of nested spans]
        self._stack = []
        self.self_s = defaultdict(float)
        self.counts = Counter()
        #: distinct texts seen by the parser
        self.parsed_texts = set()

    def _push(self, layer):
        self._stack.append([layer, perf_counter(), 0.0])

    def _pop(self):
        layer, start, nested = self._stack.pop()
        duration = perf_counter() - start
        self.self_s[layer] += duration - nested
        if self._stack:
            self._stack[-1][2] += duration

    def _outermost(self, layer):
        """True unless the innermost open span already belongs to
        ``layer`` (a mixed workload delegating to a sub-workload is one
        call, not two)."""
        return not self._stack or self._stack[-1][0] != layer

    def wrap(self, owner, name, layer, calls=None, yields=None):
        """Replace ``owner.name`` with a span-recording wrapper.

        ``calls`` names the counter of outermost calls; ``yields`` the
        counter of values a generator entry point produces.
        """
        fn = getattr(owner, name)
        tracer = self
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if calls is not None and tracer._outermost(layer):
                    tracer.counts[calls] += 1
                return _TimedGenerator(tracer, layer, yields,
                                       fn(*args, **kwargs))
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if calls is not None and tracer._outermost(layer):
                    tracer.counts[calls] += 1
                tracer._push(layer)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._pop()
        setattr(owner, name, wrapper)

    def count(self, owner, name, counter):
        """Replace ``owner.name`` with a call counter (no span: the
        call's time stays with its caller)."""
        fn = getattr(owner, name)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)
        setattr(owner, name, wrapper)

    def wrap_parse(self, owner, name):
        """Wrap the parser, also recording each distinct text."""
        fn = getattr(owner, name)
        seen = self.parsed_texts

        @functools.wraps(fn)
        def remember(text, *args, **kwargs):
            seen.add(text)
            return fn(text, *args, **kwargs)
        setattr(owner, name, remember)
        self.wrap(owner, name, "sql.parse", calls="sql.parse.calls")


class _TimedGenerator:
    """A generator proxy that runs every resume inside a span.

    It implements the generator protocol (``send``/``throw``/``close``)
    so the simulation kernel and ``yield from`` drive it exactly like
    the generator it wraps.
    """

    __slots__ = ("_tracer", "_layer", "_yields", "_gen")

    def __init__(self, tracer, layer, yields, gen):
        self._tracer = tracer
        self._layer = layer
        self._yields = yields
        self._gen = gen

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        tracer = self._tracer
        tracer._push(self._layer)
        try:
            out = self._gen.send(value)
        finally:
            tracer._pop()
        if self._yields is not None:
            tracer.counts[self._yields] += 1
        return out

    def throw(self, *exc):
        tracer = self._tracer
        tracer._push(self._layer)
        try:
            out = self._gen.throw(*exc)
        finally:
            tracer._pop()
        if self._yields is not None:
            tracer.counts[self._yields] += 1
        return out

    def close(self):
        self._gen.close()


def _own_methods(module, base, name):
    """Classes of ``module`` deriving from ``base`` (or, with ``base``
    None, any class) that define ``name`` themselves."""
    for value in vars(module).values():
        if (inspect.isclass(value) and value.__module__ == module.__name__
                and name in vars(value)
                and (base is None or issubclass(value, base))):
            yield value


def install(tracer):
    """Wrap every layer's entry points, ``run_experiment`` included
    (callers must look it up on ``repro.experiments.runner`` after
    this, not hold an earlier reference)."""
    from repro.admission import policies
    from repro.broker.broker import MemoryBroker
    from repro.compilation import pipeline as compilation
    from repro.execution.executor import QueryExecutor
    from repro.experiments import runner
    from repro.metrics.collector import MetricsCollector
    from repro.optimizer import pipeline as stages
    from repro.optimizer.optimizer import Optimizer
    from repro.sim.environment import Environment
    from repro.sql.binder import Binder
    from repro.storage.bufferpool import BufferPool
    from repro.throttle.governor import CompilationGovernor
    from repro.traffic import arrivals
    from repro.workload import base, mixed, oltp, sales, tpch

    # sql: the parse the compilation pipeline calls, and the binder
    tracer.wrap_parse(compilation, "parse")
    tracer.wrap(Binder, "bind", "sql.bind", calls="sql.bind.calls")

    # optimizer: one span per pipeline stage strategy
    tracer.count(Optimizer, "task", "optimizer.tasks")
    for registry, method, stage, extra in (
            (stages.PRECHECKS, "check", "precheck", {}),
            (stages.ENUMERATORS, "steps", "enumeration",
             {"yields": "optimizer.steps"}),
            (stages.SELECTIONS, "implement", "selection", {}),
            (stages.PARAMETERIZATIONS, "finalize", "parameterization", {})):
        for cls in registry.values():
            if method in vars(cls):
                tracer.wrap(cls, method, f"optimizer.{stage}", **extra)

    tracer.wrap(compilation.CompilationPipeline, "compile", "compilation",
                calls="compilation.calls")
    tracer.wrap(CompilationGovernor, "ensure", "throttle",
                calls="throttle.ensure.calls")
    tracer.wrap(CompilationGovernor, "release", "throttle")
    tracer.wrap(MemoryBroker, "sweep", "broker")
    tracer.wrap(QueryExecutor, "execute", "execution",
                calls="execution.executions")
    tracer.wrap(BufferPool, "read_range", "storage",
                calls="storage.read_range.calls")

    for cls in _own_methods(arrivals, arrivals.ArrivalProcess, "arrivals"):
        tracer.wrap(cls, "arrivals", "traffic")
    for method in ("would_drop", "request", "cancel", "release"):
        for cls in _own_methods(policies, None, method):
            tracer.wrap(cls, method, "admission")

    for module in (base, mixed, oltp, sales, tpch):
        for method in ("generate", "generate_named"):
            for cls in _own_methods(module, base.Workload, method):
                tracer.wrap(cls, method, "workload",
                            calls="workload.generate.calls")

    tracer.wrap(MetricsCollector, "record_query", "metrics",
                calls="metrics.records")
    tracer.wrap(MetricsCollector, "sample_memory", "metrics")

    tracer.count(Environment, "schedule", "sim.events")
    tracer.wrap(Environment, "run", "sim")
    tracer.wrap(runner, "run_experiment", "experiments")
