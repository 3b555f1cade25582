"""Names of the traced run's layers and per-layer metrics.

Kept free of simulator imports so the controller can name the metrics
without importing the simulator.
"""

__all__ = ["ROOT", "LAYER_SPANS", "DEOPTS", "PER_LAYER"]

#: Root span of a traced pass; its self time is the unaccounted time.
ROOT = "pass"

#: per-layer self-time metric -> the span names it sums
LAYER_SPANS = {
    "runtime.build_s": ("runtime.build",),
    "runtime.run_s": ("runtime.run",),
    "compiler.kernel_s": ("compiler.kernel",),
    "core.framework_s": ("core.framework",),
    "cpu.scheduler.self_s": ("cpu.scheduler",),
    "cpu.core.self_s": ("cpu.core",),
    "cpu.tracejit.exec_s": ("cpu.tracejit.exec",),
    "cpu.tracejit.compile_s": ("cpu.tracejit.compile",),
    "isa.decode.sync_s": ("isa.decode.sync",),
    "memory.access_s": ("memory.access",),
    "core.monitor.sample_s": ("core.monitor.sample",),
    "core.profiler.ingest_s": ("core.profiler.ingest",),
    "core.optimizer.tick_s": ("core.optimizer.tick",),
    "core.optimizer.wake_s": ("core.optimizer.wake",),
    "core.tracecache.patch_s": ("core.tracecache.deploy", "core.tracecache.rollback"),
    "governor.on_wake_s": ("governor.on_wake",),
    "persist.profiledb_s": ("persist.profiledb.load", "persist.profiledb.save"),
    "validate.check_s": ("validate.after_access", "validate.on_evict"),
    "harness.self_s": (
        "harness.machine", "harness.build", "harness.run", "harness.verify", "harness.gc",
        "harness.probe",
    ),
}

DEOPTS = ("budget", "link", "loop-exit", "sample", "side-exit")

#: Every per-layer metric a traced run reports, with its unit.
PER_LAYER = (
    [
        ("sim_mips", "Minstr/s"),
        ("host.natural_peak_rss_mb", "MB"),
        ("import.s", "s"),
        ("import.modules", "count"),
    ]
    + [(name, "s") for name in LAYER_SPANS]
    + [
        ("runtime.builds", "count"),
        ("compiler.kernels", "count"),
        ("cpu.scheduler.slices", "count"),
        ("cpu.core.interp_bundles", "count"),
        ("cpu.core.ns_per_interp_bundle", "ns"),
        ("cpu.tracejit.entries", "count"),
        ("cpu.tracejit.compiled_bundles", "count"),
        ("cpu.tracejit.coverage_pct", "%"),
        ("cpu.tracejit.bundles_per_entry", "bundles"),
        ("cpu.tracejit.osr_entries", "count"),
    ]
    + [(f"cpu.tracejit.deopt.{reason}", "count") for reason in DEOPTS]
    + [
        ("cpu.tracejit.invalidations", "count"),
        ("cpu.tracejit.builds", "count"),
        ("cpu.tracejit.distinct_sources", "count"),
        ("cpu.tracejit.dup_ratio", "ratio"),
        ("isa.decode.decodes", "count"),
        ("isa.decode.hit_pct", "%"),
        ("memory.access_calls", "count"),
        ("memory.inline_hit_pct", "%"),
        ("hpm.samples", "count"),
        ("core.optimizer.wakes", "count"),
        ("core.optimizer.deploys", "count"),
        ("core.optimizer.rollbacks", "count"),
        ("persist.ramp_cut_pct", "%"),
        ("validate.checks", "count"),
        ("memory.l2_misses", "count"),
        ("memory.l3_misses", "count"),
        ("memory.coherent_misses", "count"),
        ("memory.bus_transactions", "count"),
        ("trace.spans", "count"),
        ("trace.unaccounted_pct", "%"),
        ("trace.overhead_pct", "%"),
    ]
)
