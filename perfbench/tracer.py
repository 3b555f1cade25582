"""In-memory span tracer for the benchmark's traced run.

Spans are recorded around calls into the simulator's layers by wrapping
their public functions from outside the package: nothing under ``src/``
knows it is being traced.  Each span is (name, start, end, parent) in
four parallel arrays, so a pass of a million spans costs ~26 MB, not a
million Python objects.  A layer's self time is its span time minus the
time of its direct child spans.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager

import numpy as np

__all__ = ["Tracer", "NullTracer", "self_times", "install_layer_wrappers"]


class Tracer:
    """Records spans and owns every attribute it patched."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self._stack = [-1]
        #: (owner, attribute, original object) in patch order
        self.patches: list[tuple[object, str, object]] = []
        #: trace-JIT build accounting gathered by the closure wrappers
        self.trace_builds = 0
        self.trace_sources: set = set()

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn):
        """``fn`` with a span named ``name`` around every call."""
        nid = self.name_id(name)
        ids, starts, ends, parents = self.name_ids, self.starts, self.ends, self.parents
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        idx = len(self.starts)
        self.name_ids.append(self.name_id(name))
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        try:
            yield
        finally:
            self.ends[idx] = time.perf_counter()
            self._stack.pop()

    # -- patching ----------------------------------------------------------

    def patch(self, owner: object, attr: str, replacement: object) -> None:
        self.patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def patch_call(self, owner: object, attr: str, name: str) -> None:
        """Wrap ``owner.attr`` (a function or method) in a ``name`` span."""
        self.patch(owner, attr, self.wrap(name, vars(owner)[attr]))

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def counts(self) -> dict[str, int]:
        """Number of spans per name (= wrapper call counts)."""
        ids = np.frombuffer(self.name_ids, dtype=np.uint16)
        per = np.bincount(ids, minlength=len(self.names))
        return {name: int(per[i]) for i, name in enumerate(self.names)}

    def self_times(self) -> dict[str, float]:
        return self_times(self.names, self.name_ids, self.starts, self.ends, self.parents)

    def save(self, path) -> None:
        """Write every span out (``numpy.load`` reads it back)."""
        np.savez(
            path,
            names=np.array(self.names),
            name_ids=np.frombuffer(self.name_ids, dtype=np.uint16),
            starts=np.frombuffer(self.starts, dtype=np.float64),
            ends=np.frombuffer(self.ends, dtype=np.float64),
            parents=np.frombuffer(self.parents, dtype=np.int64),
        )


class NullTracer:
    """Stands in for :class:`Tracer` on untraced passes."""

    @contextmanager
    def span(self, name: str):
        yield


def self_times(names, name_ids, starts, ends, parents) -> dict[str, float]:
    """Seconds per span name, minus the time of each span's children.

    A child is charged to its own name and subtracted from its direct
    parent's, so the values sum to the duration of the root spans.
    """
    ids = np.asarray(name_ids, dtype=np.int64)
    dur = np.asarray(ends, dtype=np.float64) - np.asarray(starts, dtype=np.float64)
    par = np.asarray(parents, dtype=np.int64)
    total = np.bincount(ids, weights=dur, minlength=len(names))
    has_parent = par >= 0
    total -= np.bincount(
        ids[par[has_parent]], weights=dur[has_parent], minlength=len(names)
    )
    return {name: float(total[i]) for i, name in enumerate(names)}


def install_layer_wrappers(tracer: Tracer) -> None:
    """Wrap each layer's public entry points in spans.

    Must run before the pass creates its machines: caches bind
    ``access_fn`` and the scheduler binds the optimizer's ``tick`` when
    they are constructed.
    """
    from repro.compiler.codegen import KernelCompiler
    from repro.core.optimizer import OptimizationThread
    from repro.core.profiler import SystemProfiler
    from repro.core.tracecache import TraceCache
    from repro.cpu import tracejit
    from repro.cpu.core import Core
    from repro.cpu.scheduler import Scheduler
    from repro.governor.core import ResourceGovernor
    from repro.isa.decode import DecodeCache
    from repro.memory.hierarchy import CpuCacheSystem
    from repro.persist.profiledb import ProfileDB
    from repro.runtime.team import ParallelProgram
    from repro.validate.checker import CoherenceChecker

    calls = [
        (ParallelProgram, "build", "runtime.build"),
        (ParallelProgram, "run", "runtime.run"),
        (KernelCompiler, "compile", "compiler.kernel"),
        (Scheduler, "run_until_halt", "cpu.scheduler"),
        (Core, "run", "cpu.core"),
        (DecodeCache, "sync", "isa.decode.sync"),
        # every cache's ``access_fn`` is bound to ``_access``, which the
        # validating ``access`` also calls
        (CpuCacheSystem, "_access", "memory.access"),
        (SystemProfiler, "ingest", "core.profiler.ingest"),
        (OptimizationThread, "tick", "core.optimizer.tick"),
        (OptimizationThread, "wake", "core.optimizer.wake"),
        (TraceCache, "deploy", "core.tracecache.deploy"),
        (TraceCache, "rollback", "core.tracecache.rollback"),
        (ResourceGovernor, "on_wake", "governor.on_wake"),
        (ProfileDB, "load", "persist.profiledb.load"),
        (ProfileDB, "save", "persist.profiledb.save"),
        (CoherenceChecker, "after_access", "validate.after_access"),
        (CoherenceChecker, "on_evict", "validate.on_evict"),
    ]
    for owner, attr, name in calls:
        tracer.patch_call(owner, attr, name)

    enable_sampling = vars(Core)["enable_sampling"]

    def traced_enable_sampling(core, interval, on_sample, overhead=0):
        enable_sampling(
            core, interval, tracer.wrap("core.monitor.sample", on_sample), overhead
        )

    tracer.patch(Core, "enable_sampling", traced_enable_sampling)

    # trace-JIT codegen: time each build and wrap the closures it yields
    def exec_wrapped(fn):
        return tracer.wrap("cpu.tracejit.exec", fn)

    def traced_builder(build):
        timed = tracer.wrap("cpu.tracejit.compile", build)

        def builder(*args, **kwargs):
            trace = timed(*args, **kwargs)
            if trace is not None:
                tracer.trace_builds += 1
                tracer.trace_sources.add(trace.source)
                trace.fn = exec_wrapped(trace.fn)
            return trace

        return builder

    for attr in ("compile_trace", "compile_linear_trace"):
        tracer.patch(tracejit, attr, traced_builder(vars(tracejit)[attr]))

    entry = vars(tracejit.CompiledTrace)["entry"]
    timed_entry = tracer.wrap("cpu.tracejit.compile", entry)

    def traced_entry(trace, idx):
        if idx == 0 or idx in trace.entry_fns:
            return entry(trace, idx)
        fn = exec_wrapped(timed_entry(trace, idx))
        # the OSR suffix's source is a function of its trace and index
        tracer.trace_builds += 1
        tracer.trace_sources.add((trace.source, idx))
        trace.entry_fns[idx] = fn
        return fn

    tracer.patch(tracejit.CompiledTrace, "entry", traced_entry)
