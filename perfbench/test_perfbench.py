"""Self-tests for the benchmark's own code.

    python3 -m pytest perfbench -q

They use a shrunken ``readapt`` pass (about a second) rather than the
benchmark's workloads.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import harness  # noqa: E402
from harness import layer_metrics, run_pass  # noqa: E402
from hostspeed import PROBE_REF_S, rescale  # noqa: E402
from layers import PER_LAYER  # noqa: E402
from run import END_TO_END  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402
from workloads import readapt_ops, scenario_sweep_ops  # noqa: E402


def tiny_ops():
    return readapt_ops(0, sizes=(64, 256), reps=(3, 2))


def test_self_time_subtracts_direct_children_only():
    # root [0,10] > a [1,5] > b [2,3];  root > b [6,8];  root > a [8.5,9]
    names = ["root", "a", "b"]
    ids = [0, 1, 2, 2, 1]
    starts = [0.0, 1.0, 2.0, 6.0, 8.5]
    ends = [10.0, 5.0, 3.0, 8.0, 9.0]
    parents = [-1, 0, 1, 0, 0]
    got = self_times(names, ids, starts, ends, parents)
    assert got == pytest.approx({"root": 3.5, "a": 3.5, "b": 3.0})
    assert sum(got.values()) == pytest.approx(10.0)


def test_tracer_spans_nest_and_sum_to_the_root():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    with tracer.span("root"):
        with tracer.span("mid"):
            assert inner(1) == 2
        inner(2)
    assert tracer.counts() == {"root": 1, "mid": 1, "inner": 2}
    assert list(tracer.parents) == [-1, 0, 1, 0]
    selfs = tracer.self_times()
    assert sum(selfs.values()) == pytest.approx(tracer.ends[0] - tracer.starts[0])


def test_rescale_weights_each_stretch_by_its_probe_time():
    ref = PROBE_REF_S
    # a steady host: host time scales by the probe ratio
    assert rescale(0.0, 3.0, [(1.0, 2 * ref), (2.0, 2 * ref)]) == pytest.approx(1.5)
    # [0, 1] at the first probe's speed, [1, 2] at the mean of both, [2, 4]
    # at the last probe's speed
    got = rescale(0.0, 4.0, [(1.0, ref), (2.0, 3 * ref)])
    assert got == pytest.approx(1.0 + 1.0 / 2.0 + 2.0 / 3.0)


def _corrupt_after_run(op, corrupt):
    build = op.build

    def corrupting_build(machine):
        prog = build(machine)
        run = prog.run

        def run_then_corrupt(*args, **kwargs):
            result = run(*args, **kwargs)
            corrupt(prog)
            return result

        prog.run = run_then_corrupt
        return prog

    op.build = corrupting_build


def test_corrupted_output_counts_as_one_failed_operation():
    ops = tiny_ops()

    def corrupt(prog):
        prog.f64("y")[7] += 1.0

    _corrupt_after_run(ops[-1], corrupt)
    outcomes, _ = run_pass(ops, {})
    failed = [o.name for o in outcomes if o.problems]
    assert failed == ["warm"]
    # caught twice over: by the reference and by the digest partner
    assert len(outcomes[-1].problems) == 2


def test_fault_shared_by_partners_fails_the_pinned_digest():
    # scenario 0 plain and adaptive, both corrupted the same way: the
    # partner digests agree, the pinned fingerprints do not
    ops = scenario_sweep_ops(0)[:2]
    pins = json.loads((HERE / "fingerprints.json").read_text())["scenario-sweep"]

    def corrupt(prog):
        name = sorted(prog.arrays)[0]
        prog.machine.mem.view_i64(prog.arrays[name])[0] += 1

    for op in ops:
        _corrupt_after_run(op, corrupt)
    outcomes, _ = run_pass(ops, pins)
    for out in outcomes:
        assert len(out.problems) == 1 and "pinned" in out.problems[0], out.problems


def test_traced_pass_restores_every_wrapped_attribute():
    plain, _ = run_pass(tiny_ops(), {})
    tracer = Tracer()
    traced, _ = run_pass(tiny_ops(), {}, tracer)
    assert len(tracer.patches) >= 20
    for owner, attr, original in tracer.patches:
        assert vars(owner)[attr] is original, f"{owner}.{attr} still wrapped"
    counts = tracer.counts()
    for name in ("cpu.core", "cpu.tracejit.exec", "memory.access", "core.optimizer.wake"):
        assert counts.get(name, 0) > 0, name
    # wrapping is transparent to the simulation
    assert [o.fingerprint for o in traced] == [o.fingerprint for o in plain]
    assert not any(o.problems for o in plain + traced)


def test_count_block_does_not_depend_on_host_speed_probes(monkeypatch):
    # probes follow host time: one after every op vs only after the last
    blocks = []
    for every_s in (0.0, 1e9):
        monkeypatch.setattr(harness, "PROBE_EVERY_S", every_s)
        tracer, probes = Tracer(), []
        outcomes, _ = run_pass(tiny_ops(), {}, tracer, probes=probes)
        assert len(probes) == (len(outcomes) if every_s == 0.0 else 1)
        blocks.append(layer_metrics(tracer, outcomes)[1])
    assert blocks[0] == blocks[1]


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == PER_LAYER
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
