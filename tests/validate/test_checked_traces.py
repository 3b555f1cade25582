"""Strict coherence checking over compiled traces.

The checker must validate the code that actually runs, so the trace JIT
stays on under it and compiles *checked* traces.  Each workload runs
under COBRA with a strict ``CoherenceChecker`` twice: once with the
trace JIT on, once with every bundle interpreted.  The two runs must
agree on every observable, including how many accesses the checker
validated, and the JIT-on run must execute nearly all bundles compiled.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.config import itanium2_smp, sgi_altix
from repro.core import run_with_cobra
from repro.cpu import Machine
from repro.validate.differential import _digest, _snapshot_arrays
from repro.workloads import build_daxpy
from repro.workloads.npb import BENCHMARKS

MACHINES = {
    "smp": lambda: Machine(itanium2_smp(4)),
    "altix": lambda: Machine(sgi_altix(4)),
}

WORKLOADS = {
    "daxpy": lambda machine: build_daxpy(machine, 2048, 4, outer_reps=8),
    "cg": lambda machine: BENCHMARKS["cg"].build(machine, 4),
}

#: the fast-path bench's coverage floor, now required under the checker
MIN_COVERAGE = 0.97


def _strict_run(machine_name: str, workload: str, jit: bool) -> dict:
    machine = MACHINES[machine_name]()
    for core in machine.cores:
        core.jit_enabled = jit
        core.osr_enabled = jit
    prog = WORKLOADS[workload](machine)
    config = dataclasses.replace(machine.config.cobra, validate="strict")
    result, report = run_with_cobra(prog, "adaptive", config=config)
    executed = sum(core.bundles_executed for core in machine.cores)
    compiled = sum(core.trace_jit.compiled_bundles for core in machine.cores)
    return {
        "observables": {
            "digest": _digest(_snapshot_arrays(prog)),
            "cycles": result.cycles,
            "per_cpu_cycles": [core.cycles for core in machine.cores],
            "retired": [core.retired for core in machine.cores],
            "events": [cache.events.snapshot() for cache in machine.caches],
            "samples": report.samples,
            "checks": report.validate_checks,
            "violations": len(report.violations),
        },
        "coverage": compiled / executed,
        "traces": [
            trace
            for core in machine.cores
            for trace in core.trace_jit.traces.values()
        ],
    }


@pytest.mark.parametrize("machine_name", sorted(MACHINES))
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_checked_traces_match_interpreter_under_strict_checker(
    machine_name, workload
):
    compiled = _strict_run(machine_name, workload, jit=True)
    interpreted = _strict_run(machine_name, workload, jit=False)
    assert compiled["observables"] == interpreted["observables"]
    assert compiled["observables"]["checks"] > 0
    assert compiled["observables"]["samples"] > 0
    assert compiled["observables"]["violations"] == 0
    assert interpreted["coverage"] == 0
    assert compiled["coverage"] >= MIN_COVERAGE
    assert all(trace.checked for trace in compiled["traces"])
