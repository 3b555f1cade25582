"""The benchmark's four workloads, as lists of simulated-run operations.

An operation builds a fresh machine and program, runs it once (plain or
under COBRA), and is then checked.  It fails if it raises, if its arrays
disagree with an independent NumPy reference, if a COBRA run's output
digest differs from its plain/cold partner's, or if its simulated
fingerprint (sim cycles, retired, memory events, HPM samples and, where
the op's name fixes its inputs, the output digest) differs from the
pinned one in ``fingerprints.json``.

Why each workload exists is written down in ``README.md``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro import CoherenceChecker, Machine, itanium2_smp, run_with_cobra, sgi_altix
from repro.compiler import StreamLoop, Term
from repro.config import GovernorConfig, ProfileDBConfig
from repro.fuzz.driver import build_scenario, scenario_machine
from repro.fuzz.generator import generate_params
from repro.persist import MemoryDisk
from repro.runtime import ParallelProgram
from repro.validate.differential import _digest, _snapshot_arrays
from repro.workloads import BENCHMARKS

__all__ = ["WORKLOADS", "Op", "Outcome", "execute", "run_op", "fingerprint_hash"]

#: Runaway backstops, as in the figure suite and the fuzz driver.
NPB_MAX_BUNDLES = 400_000_000
SCENARIO_MAX_BUNDLES = 3_000_000

#: (machine label, machine factory, threads, NPB benchmark): the paper's
#: snoop-bus SMP and cc-NUMA directory machines.
NPB_CELLS = (
    ("smp4", lambda: Machine(itanium2_smp(4)), 4, "cg"),
    ("altix8", lambda: Machine(sgi_altix(8)), 8, "bt"),
)

#: Scenarios per scenario-sweep pass, starting at the seed argument.
SWEEP_SCENARIOS = 80

#: readapt: examples/phase_adaptation.py (cache-resident phase, then a
#: streaming phase over the same loop) at scale 4.
READAPT_SIZES = (2048, 32768)
READAPT_REPS = (16, 6)


@dataclass
class Op:
    """One simulated run and the checks that make it count."""

    name: str
    make_machine: Callable[[], Machine]
    build: Callable[[Machine], ParallelProgram]
    #: COBRA strategy, or None for a plain run of the program
    strategy: str | None = None
    #: CobraConfig overrides, made afresh for every run
    config: Callable[[], dict] = dict
    #: run under the strict coherence checker
    strict: bool = False
    max_bundles: int | None = None
    #: NumPy reference check on the finished program, or None
    reference: Callable[[ParallelProgram], bool] | None = None
    #: op whose output digest this one must reproduce
    partner: str | None = None
    #: plain op whose sim cycles this COBRA op's are compared against
    baseline: str | None = None
    #: inputs drawn from the seed argument under a seed-free op name: the
    #: pinned fingerprint then leaves out the output digest
    seeded_inputs: bool = False


@dataclass
class Outcome:
    """What one operation produced; ``problems`` empty means it passed."""

    name: str
    problems: list[str] = field(default_factory=list)
    digest: str = ""
    fingerprint: dict = field(default_factory=dict)
    cycles: int = 0
    retired: int = 0
    run_s: float = 0.0
    ramp_retired: int = 0
    #: perf_counter when the program was built and about to run
    built_at: float = 0.0
    counters: dict = field(default_factory=dict)


def fingerprint_hash(fp: dict) -> str:
    return hashlib.sha256(json.dumps(fp, sort_keys=True).encode()).hexdigest()[:16]


def _counters(machine: Machine, result) -> dict[str, int]:
    """Public per-layer counters of one finished run."""
    out = {
        "bundles": 0, "decodes": 0, "entries": 0, "compiled_bundles": 0,
        "osr_entries": 0, "invalidations": 0,
    }
    for core in machine.cores:
        out["bundles"] += core.bundles_executed
        out["decodes"] += core.decode_cache.decodes
        stats = core.trace_jit.stats()
        for key in ("entries", "compiled_bundles", "osr_entries", "invalidations"):
            out[key] += stats[key]
        for reason, count in stats["deopts"].items():
            out[f"deopt.{reason}"] = out.get(f"deopt.{reason}", 0) + count
    ev = result.events
    out["mem_refs"] = ev.loads + ev.stores + ev.prefetches
    out["l2_misses"] = ev.l2_misses
    out["l3_misses"] = ev.l3_misses
    out["coherent_misses"] = ev.coherent_misses
    out["bus_transactions"] = ev.bus_memory
    return out


def run_op(op: Op, span, pins: dict[str, str]) -> Outcome:
    """Execute and check one operation; never raises for the op's faults."""
    out = Outcome(op.name)
    try:
        prog, result, report = execute(op, span, out)
        with span("harness.verify"):
            out.cycles = result.cycles
            out.retired = result.retired
            out.digest = _digest(_snapshot_arrays(prog))
            out.fingerprint = {
                "cycles": result.cycles,
                "retired": result.retired,
                "events": result.events.snapshot(),
                "samples": report.samples if report is not None else 0,
            }
            if not op.seeded_inputs:
                out.fingerprint["digest"] = out.digest
            if report is not None and report.ramp_retired is not None:
                out.ramp_retired = report.ramp_retired
            else:
                out.ramp_retired = result.retired
            out.counters = _counters(prog.machine, result)
            if op.reference is not None and not op.reference(prog):
                out.problems.append("arrays disagree with the NumPy reference")
            pinned = pins.get(op.name)
            if pinned is not None and pinned != fingerprint_hash(out.fingerprint):
                out.problems.append(
                    f"fingerprint {fingerprint_hash(out.fingerprint)} != pinned "
                    f"{pinned}: {json.dumps(out.fingerprint, sort_keys=True)}"
                )
    except Exception as exc:  # an op that raises is a failed op, not a crash
        out.problems.append(f"raised {type(exc).__name__}: {exc}")
    return out


def execute(op: Op, span, out: Outcome) -> tuple[ParallelProgram, object, object]:
    """Build ``op``'s machine and program and run it once, timing the run."""
    with span("harness.machine"):
        machine = op.make_machine()
    with span("harness.build"):
        prog = op.build(machine)
    out.built_at = time.perf_counter()
    report = None
    if op.strategy is None:
        with span("harness.run"):
            checker = CoherenceChecker(machine, "strict") if op.strict else nullcontext()
            with checker:
                result = prog.run(max_bundles=op.max_bundles)
    else:
        with span("core.framework"):
            config = dataclasses.replace(machine.config.cobra, **op.config())
            result, report = run_with_cobra(
                prog, op.strategy, config=config, max_bundles=op.max_bundles
            )
    out.run_s = time.perf_counter() - out.built_at
    return prog, result, report


def _npb_ops(reps_factor: int, strategy: str, strict: bool) -> list[Op]:
    ops = []
    for label, make_machine, threads, name in NPB_CELLS:
        bench = BENCHMARKS[name]
        reps = bench.default_reps * reps_factor

        def build(machine, bench=bench, threads=threads, reps=reps):
            return bench.build(machine, threads, reps=reps)

        def reference(prog, bench=bench, reps=reps):
            return bench.verify(prog, reps=reps)

        base = f"{label}/{name}/none"
        common = dict(
            make_machine=make_machine, build=build, strict=strict,
            max_bundles=NPB_MAX_BUNDLES, reference=reference,
        )
        ops.append(Op(base, **common))
        ops.append(Op(
            f"{label}/{name}/{strategy}", strategy=strategy,
            config=(lambda: {"validate": "strict"}) if strict else dict,
            partner=base, baseline=base, **common,
        ))
    return ops


def npb_paper_ops(seed: int) -> list[Op]:
    """smp4/cg + altix8/bt at the figure suite's size, prefetch vs noprefetch."""
    return _npb_ops(3, "noprefetch", strict=False)


def strict_check_ops(seed: int) -> list[Op]:
    """smp4/cg + altix8/bt at default size under the strict coherence checker."""
    return _npb_ops(1, "adaptive", strict=True)


def scenario_sweep_ops(seed: int) -> list[Op]:
    """Generated scenarios ``seed .. seed+SWEEP_SCENARIOS-1``, plain and adaptive."""
    ops = []
    for s in range(seed, seed + SWEEP_SCENARIOS):
        params = generate_params(s)
        common = dict(
            make_machine=lambda params=params: scenario_machine(params),
            build=lambda machine, params=params: build_scenario(params, machine),
            max_bundles=SCENARIO_MAX_BUNDLES,
        )
        ops.append(Op(f"s{s}/plain", **common))
        ops.append(Op(
            f"s{s}/adaptive", strategy="adaptive",
            partner=f"s{s}/plain", baseline=f"s{s}/plain", **common,
        ))
    return ops


def readapt_ops(
    seed: int, sizes: tuple[int, int] = READAPT_SIZES, reps: tuple[int, int] = READAPT_REPS
) -> list[Op]:
    """Phase-changing DAXPY: plain, then adaptive cold and warm off one profile DB.

    ``x`` holds seeded integers, so every partial sum is exact and the
    closed-form ``y = 1 + 2x * reps`` is the bit-exact reference.
    """
    small, large = sizes
    x = np.random.default_rng(seed).integers(0, 1 << 20, large).astype(float)
    expect = 1.0 + 2.0 * x * reps[1]
    expect[:small] += 2.0 * x[:small] * reps[0]
    disk = [MemoryDisk()]

    def build(machine):
        prog = ParallelProgram(machine, "phases")
        prog.array("x", large, x)
        prog.array("y", large, 1.0)
        fn = prog.kernel(
            StreamLoop("daxpy", dest="y", terms=(Term("y", 1.0, 0), Term("x", 2.0, 0)))
        )
        prog.parallel_for(fn, small, 4)
        prog.phase_break()
        prog.parallel_for(fn, large, 4)
        prog.build(outer_reps=list(reps))
        return prog

    def config(cold: bool) -> dict:
        if cold:
            disk[0] = MemoryDisk()
        # the fuzz driver's dense intervals: a PMU sample every 300
        # retired instructions per core, an optimizer wake every 3000
        return dict(
            sampling_interval=300, optimize_interval=3_000,
            governor=GovernorConfig(), profile_db=ProfileDBConfig(disk=disk[0]),
        )

    common = dict(
        make_machine=lambda: Machine(itanium2_smp(4, scale=4)), build=build,
        reference=lambda prog: np.array_equal(prog.f64("y")[:large], expect),
        seeded_inputs=True,
    )
    return [
        Op("plain", **common),
        Op("cold", strategy="adaptive", config=lambda: config(True),
           partner="plain", baseline="plain", **common),
        Op("warm", strategy="adaptive", config=lambda: config(False),
           partner="cold", baseline="plain", **common),
    ]


#: workload name -> (seed -> operations of one pass)
WORKLOADS: dict[str, Callable[[int], list[Op]]] = {
    "npb-paper": npb_paper_ops,
    "scenario-sweep": scenario_sweep_ops,
    "readapt": readapt_ops,
    "strict-check": strict_check_ops,
}

