"""One pass over a workload's operations, and what it measured.

A pass runs every operation of the workload once, checks each, and
reduces the outcomes to the pass's end-to-end figures.  A traced pass
also installs the layer wrappers (removed again before it returns) and
reduces its spans and the simulator's public counters to the per-layer
metrics.
"""

from __future__ import annotations

import gc
import time

from hostspeed import PROBE_EVERY_S, Marks, probe
from layers import DEOPTS, LAYER_SPANS, ROOT
from tracer import NullTracer, Tracer, install_layer_wrappers
from workloads import Op, Outcome, run_op

__all__ = ["run_pass", "pass_summary", "layer_metrics"]


def run_pass(
    ops: list[Op],
    pins: dict[str, str],
    tracer: Tracer | None = None,
    collect: bool = True,
    probes: Marks | None = None,
) -> tuple[list[Outcome], float]:
    """Run and check every op once; return the outcomes and the pass wall time.

    With a ``tracer`` the layer wrappers are installed for the pass and
    removed before this returns, also when an op raises.  ``collect``
    runs a full garbage collection after every op.  ``probes``, if
    given, receives host-speed probes taken between ops, at least once
    a second, and after the last op.
    """
    span = (tracer or NullTracer()).span
    outcomes: list[Outcome] = []
    try:
        if tracer is not None:
            install_layer_wrappers(tracer)
        t0 = last_probe = time.perf_counter()
        with span(ROOT):
            for i, op in enumerate(ops):
                outcomes.append(run_op(op, span, pins))
                # drop this op's machine now, not when the collector next
                # runs, so peak RSS reports live memory
                if collect:
                    with span("harness.gc"):
                        gc.collect()
                last = i == len(ops) - 1
                due = last or time.perf_counter() - last_probe >= PROBE_EVERY_S
                if probes is not None and due:
                    with span("harness.probe"):
                        probe(probes)
                    last_probe = time.perf_counter()
        wall = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.restore()
    by_name = {o.name: o for o in outcomes}
    for op, out in zip(ops, outcomes):
        partner = by_name.get(op.partner) if op.partner else None
        if partner is not None and out.digest != partner.digest:
            out.problems.append(f"output digest differs from {op.partner}'s")
    return outcomes, wall


def pass_summary(ops: list[Op], outcomes: list[Outcome]) -> dict[str, float]:
    """The pass's simulated figures: speed-up, ramp cut and sim MIPS."""
    by_name = {o.name: o for o in outcomes}
    strategy = {op.name: op.strategy for op in ops}
    paired = [op for op in ops if op.baseline]
    cobra_cycles = sum(by_name[op.name].cycles for op in paired)
    base_cycles = sum(by_name[op.baseline].cycles for op in paired)
    ramp_cut = 0.0
    for op in ops:
        # a COBRA op whose partner is itself a COBRA run is a warm start
        if op.partner and strategy.get(op.partner) and op.strategy:
            cold = by_name[op.partner].ramp_retired
            if cold:
                ramp_cut = 100.0 * (1.0 - by_name[op.name].ramp_retired / cold)
    run_s = sum(o.run_s for o in outcomes)
    return {
        "cobra_speedup": base_cycles / cobra_cycles if cobra_cycles else 0.0,
        "ramp_cut_pct": ramp_cut,
        "sim_mips": sum(o.retired for o in outcomes) / run_s / 1e6 if run_s else 0.0,
    }


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def layer_metrics(tracer: Tracer, outcomes: list[Outcome]) -> tuple[dict, dict]:
    """(self seconds per layer, exact counts) of one traced pass."""
    selfs = tracer.self_times()
    spans = tracer.counts()
    times = {
        metric: sum(selfs.get(name, 0.0) for name in names)
        for metric, names in LAYER_SPANS.items()
    }
    c: dict[str, int] = {}
    for out in outcomes:
        for key, value in out.counters.items():
            c[key] = c.get(key, 0) + value
    interp = c.get("bundles", 0) - c.get("compiled_bundles", 0)
    counts = {
        "runtime.builds": spans.get("runtime.build", 0),
        "compiler.kernels": spans.get("compiler.kernel", 0),
        "cpu.scheduler.slices": spans.get("cpu.core", 0),
        "cpu.core.interp_bundles": interp,
        "cpu.tracejit.entries": c.get("entries", 0),
        "cpu.tracejit.compiled_bundles": c.get("compiled_bundles", 0),
        "cpu.tracejit.coverage_pct": _ratio(c.get("compiled_bundles", 0), c.get("bundles", 0), 100),
        "cpu.tracejit.bundles_per_entry": _ratio(c.get("compiled_bundles", 0), c.get("entries", 0)),
        "cpu.tracejit.osr_entries": c.get("osr_entries", 0),
        **{f"cpu.tracejit.deopt.{r}": c.get(f"deopt.{r}", 0) for r in DEOPTS},
        "cpu.tracejit.invalidations": c.get("invalidations", 0),
        "cpu.tracejit.builds": tracer.trace_builds,
        "cpu.tracejit.distinct_sources": len(tracer.trace_sources),
        "cpu.tracejit.dup_ratio": _ratio(tracer.trace_builds, len(tracer.trace_sources)),
        "isa.decode.decodes": c.get("decodes", 0),
        "isa.decode.hit_pct": 100.0 - _ratio(c.get("decodes", 0), c.get("bundles", 0), 100),
        "memory.access_calls": spans.get("memory.access", 0),
        "memory.inline_hit_pct": 100.0 - _ratio(spans.get("memory.access", 0), c.get("mem_refs", 0), 100),
        "hpm.samples": spans.get("core.monitor.sample", 0),
        "core.optimizer.wakes": spans.get("core.optimizer.wake", 0),
        "core.optimizer.deploys": spans.get("core.tracecache.deploy", 0),
        "core.optimizer.rollbacks": spans.get("core.tracecache.rollback", 0),
        "validate.checks": spans.get("validate.after_access", 0) + spans.get("validate.on_evict", 0),
        "memory.l2_misses": c.get("l2_misses", 0),
        "memory.l3_misses": c.get("l3_misses", 0),
        "memory.coherent_misses": c.get("coherent_misses", 0),
        "memory.bus_transactions": c.get("bus_transactions", 0),
        # probes are taken by host time, not by the simulation: leave
        # their spans out so the count repeats exactly
        "trace.spans": len(tracer.starts) - spans.get("harness.probe", 0),
    }
    # the root span is the first one recorded
    root_s = tracer.ends[0] - tracer.starts[0]
    times["trace.unaccounted_pct"] = _ratio(selfs[ROOT], root_s, 100)
    times["cpu.core.ns_per_interp_bundle"] = _ratio(times["cpu.core.self_s"], interp, 1e9)
    return times, counts
