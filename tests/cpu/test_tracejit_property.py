"""Property tests: compiled traces match the generic interpreter exactly.

Random straight-line kernels (ALU ops, compares, random qualifying
predicates over both static and rotating registers) inside ``br.ctop``
and ``br.wtop`` loops with random LC/EC are run twice — JIT disabled
and JIT enabled with a lowered hot threshold so even short loops
compile — and the full architectural state must come out bit-identical:
registers, predicates, rotation bases, loop counters, cycles, retirement
and branch-history counters.
"""

from __future__ import annotations

import struct

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.config import itanium2_smp
from repro.cpu import Machine, Scheduler
from repro.isa import assemble

COMMON = dict(
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)

# static scratch pool + two rotating names (alloc rot=8 below)
_REGS = tuple(range(1, 9)) + (32, 33)
#: (pt, pf) pairs: static, rotating, and mixed — always distinct
_PRED_PAIRS = ((6, 7), (16, 17), (7, 17))
_QPS = (None, 6, 7, 16, 17)

reg = st.sampled_from(_REGS)
qp = st.sampled_from(_QPS)
pred_pair = st.sampled_from(_PRED_PAIRS)


def _guard(q, text):
    return f"(p{q}) {text}" if q is not None else text


KERNEL_OP = st.one_of(
    st.builds(
        lambda q, op, d, a, b: _guard(q, f"{op} r{d}=r{a},r{b}"),
        qp, st.sampled_from(("add", "sub", "and", "or", "xor")), reg, reg, reg,
    ),
    st.builds(
        lambda q, d, i, a: _guard(q, f"add r{d}={i},r{a}"),
        qp, reg, st.integers(-512, 512), reg,
    ),
    st.builds(
        lambda q, op, d, a, n: _guard(q, f"{op} r{d}=r{a},{n}"),
        qp, st.sampled_from(("shl", "shr")), reg, reg, st.integers(0, 63),
    ),
    st.builds(
        lambda q, op, p, a, b: _guard(q, f"{op} p{p[0]},p{p[1]}=r{a},r{b}"),
        qp, st.sampled_from(("cmp.lt", "cmp.le", "cmp.eq", "cmp.ne")),
        pred_pair, reg, reg,
    ),
    st.builds(
        lambda q, d, i: _guard(q, f"mov r{d}={i}"),
        qp, reg, st.integers(0, 4096),
    ),
)

KERNEL = st.lists(KERNEL_OP, max_size=9)


def _arch_state(core):
    regs = core.regs
    return (
        tuple(regs.read_gr(r) for r in range(64)),
        tuple(regs.read_pr(p) for p in range(64)),
        regs.lc, regs.ec, regs.rrb_gr, regs.rrb_fr, regs.rrb_pr,
        core.pc, core.cycles, core.retired, core.bundles_executed,
        core.taken_branches, tuple(core.btb),
    )


def _execute(src: str, jit: bool):
    machine = Machine(itanium2_smp(1))
    image = assemble(src)
    machine.load_image(image)
    core = machine.cores[0]
    core.jit_enabled = jit
    if jit:
        # compile after two hot back-edges so short random loops still
        # exercise the fast path; the threshold is a policy knob and
        # must never affect semantics
        core.trace_jit.threshold = 2
    core.start(image.base)
    Scheduler(machine.cores).run_until_halt(1_000_000)
    return core


def _assert_equivalent(src: str):
    ref = _execute(src, jit=False)
    fast = _execute(src, jit=True)
    assert _arch_state(ref) == _arch_state(fast), src
    return fast


@given(kernel=KERNEL, lc=st.integers(0, 40), ec=st.integers(1, 4))
@settings(**COMMON)
def test_ctop_compiled_matches_generic(kernel, lc, ec):
    body = "\n".join(kernel)
    src = (
        "clrrrb\nalloc rot=8\nmov pr.rot=0x10000\n"
        f"mov ar.lc={lc}\nmov ar.ec={ec}\n"
        "mov r1=3\nmov r2=5\nmov r3=7\nmov r4=9\n"
        f".loop:\n{body}\nbr.ctop.sptk .loop\nhalt\n"
    )
    fast = _assert_equivalent(src)
    if lc + ec >= 4:  # enough back-edges to cross the lowered threshold
        assert fast.trace_jit.compiles + len(fast.trace_jit.blacklist) >= 1


@given(
    kernel=st.lists(
        # wtop termination rides on r9/p6, so kernels here stay off both:
        # predicates are restricted to the rotating pair
        st.one_of(
            st.builds(
                lambda q, op, d, a, b: _guard(q, f"{op} r{d}=r{a},r{b}"),
                st.sampled_from((None, 16, 17)),
                st.sampled_from(("add", "sub", "xor")), reg, reg, reg,
            ),
            st.builds(
                lambda q, op, a, b: _guard(q, f"{op} p16,p17=r{a},r{b}"),
                st.sampled_from((None, 16, 17)),
                st.sampled_from(("cmp.lt", "cmp.ne")), reg, reg,
            ),
        ),
        max_size=6,
    ),
    trip=st.integers(0, 30),
)
@settings(**COMMON)
def test_wtop_compiled_matches_generic(kernel, trip):
    body = "\n".join(kernel)
    src = (
        "clrrrb\nalloc rot=8\nmov ar.ec=1\n"
        "mov r9=0\nmov r1=3\nmov r2=5\nmov r3=7\n"
        f".loop:\n{body}\n"
        f"cmp.lt p6,p7=r9,{trip}\n"
        "(p6) add r9=1,r9\n"
        "(p6) br.wtop.sptk .loop\nhalt\n"
    )
    ref = _execute(src, jit=False)
    fast = _execute(src, jit=True)
    assert _arch_state(ref) == _arch_state(fast), src
    assert fast.regs.read_gr(9) == trip


@given(
    kernel=KERNEL,
    lc=st.integers(8, 40),
    ec=st.integers(1, 4),
    interval=st.integers(3, 23),
    slice_bundles=st.integers(5, 64),
)
@settings(**COMMON)
def test_osr_entry_matches_generic_from_mid_loop_state(
    kernel, lc, ec, interval, slice_bundles
):
    """OSR-entered execution is bit-identical from arbitrary mid-loop state.

    Random sampling intervals interrupt the compiled trace at arbitrary
    bundles (capturing rotation bases, predicates, LC/EC and the
    countdown mid-iteration) and random slice sizes force budget exits
    at arbitrary boundaries; with OSR on, every re-dispatch after either
    kind of interruption may enter the trace mid-body through a suffix
    closure.  All three policies must agree on the full architectural
    state.
    """
    body = "\n".join(kernel)
    src = (
        "clrrrb\nalloc rot=8\nmov pr.rot=0x10000\n"
        f"mov ar.lc={lc}\nmov ar.ec={ec}\n"
        "mov r1=3\nmov r2=5\nmov r3=7\nmov r4=9\n"
        f".loop:\n{body}\nbr.ctop.sptk .loop\nhalt\n"
    )

    def execute(jit, osr):
        machine = Machine(itanium2_smp(1))
        image = assemble(src)
        machine.load_image(image)
        core = machine.cores[0]
        core.jit_enabled = jit
        core.osr_enabled = jit and osr
        if jit:
            core.trace_jit.threshold = 2
        core.enable_sampling(interval, lambda c: None)
        core.start(image.base)
        for _ in range(100_000):
            if core.halted:
                break
            core.run(slice_bundles)
        assert core.halted
        return core

    ref = execute(jit=False, osr=False)
    base = execute(jit=True, osr=False)
    osr = execute(jit=True, osr=True)
    assert _arch_state(ref) == _arch_state(base), src
    assert _arch_state(ref) == _arch_state(osr), src


@given(lc=st.integers(0, 60), step=st.integers(-64, 64))
@settings(**COMMON)
def test_cloop_counter_sweep(lc, step):
    src = (
        f"mov ar.lc={lc}\nmov r1=0\n"
        f".loop:\nadd r1={step},r1\nbr.cloop.sptk .loop\nhalt\n"
    )
    fast = _assert_equivalent(src)
    assert fast.regs.read_gr(1) & ((1 << 64) - 1) == (
        step * (lc + 1)
    ) & ((1 << 64) - 1)


# -- the per-iteration budget guard -------------------------------------------

#: three bundles: an A-stream load in bundle 0, an unguarded B-stream
#: load (the forced miss), a store and a prefetch in bundle 1, an st8
#: and the back-edge in bundle 2; rotating operands on every data path
_GUARD_LOOP = """
.loop:
(p16) ldfd f32=[r2],8
add r10=1,r10
(p17) fma.d f40=f33,f8,f34
ld8 r32=[r3],8
(p17) stfd [r4]=f33,8
lfetch [r5],128
(p18) st8 [r6]=r34,8
(p18) add r35=r33,r9
br.ctop.sptk .loop
halt
"""
_GUARD_WORDS = 64
_ARRAYS = ("a", "b", "c", "d")


class _Sampled(Exception):
    """Raised by the reference run's sample handler: the trace's exit."""


def _guard_machine(l2_hit: int, cold_iter: int | None):
    """A warm one-core machine; the B line of ``cold_iter`` stays cold."""
    from dataclasses import replace

    from repro.config import LatencyConfig
    from repro.memory.hierarchy import LOAD, STORE

    config = replace(itanium2_smp(1), latency=LatencyConfig(l2_hit=l2_hit))
    machine = Machine(config)
    image = assemble(_GUARD_LOOP)
    machine.load_image(image)
    mem = machine.mem
    arrays = {name: mem.alloc(name, _GUARD_WORDS * 8) for name in _ARRAYS}
    mem.view_f64(arrays["a"])[:] = [0.5 * i - 3.0 for i in range(_GUARD_WORDS)]
    mem.view_i64(arrays["b"])[:] = [7 * i - 100 for i in range(_GUARD_WORDS)]
    # the B cursor starts on the last word of a line: iteration 0 reads
    # that line, iteration 1 the next one
    b_lines = (arrays["b"].addr(15) >> 7, arrays["b"].addr(16) >> 7)
    cache = machine.caches[0]
    for name in _ARRAYS:
        alloc = arrays[name]
        kind = STORE if name in ("c", "d") else LOAD
        for addr in range(alloc.base, alloc.end, 128):
            if cold_iter is not None and addr >> 7 == b_lines[cold_iter]:
                continue
            cache.access(0, addr, kind)
    return machine, image, arrays


def _enter(machine, image, arrays, state):
    core = machine.cores[0]
    regs = core.regs
    regs.alloc_rotating(8)
    regs.lc, regs.ec = state["lc"], state["ec"]
    regs.rrb_gr, regs.rrb_fr, regs.rrb_pr = state["rrb"]
    for i, v in enumerate(state["gr_rot"]):
        regs.gr[32 + i] = v
    for i, v in enumerate(state["fr_rot"]):
        regs.fr[32 + i] = v
    for i in range(48):
        regs.pr[16 + i] = bool(state["pr_mask"] >> i & 1)
    regs.fr[8], regs.gr[9] = 1.25, 5
    regs.gr[2] = arrays["a"].addr(3)
    regs.gr[3] = arrays["b"].addr(15)
    regs.gr[4] = arrays["c"].addr(0)
    regs.gr[5] = arrays["d"].addr(8)
    regs.gr[6] = arrays["d"].addr(0)
    core.pc = image.base + 16 * state["entry"]
    core.halted = False
    core.cycles = state["cycles"]
    core.retired = state["retired"]
    core.bundles_executed = state["bundles"]
    core._issue_tick = state["issue_tick"]
    core.sample_overhead = 0
    return core


def _observe(core, arrays, returned):
    regs, mem = core.regs, core.mem
    return (
        returned,
        tuple(regs.gr), tuple(regs.pr),
        tuple(struct.pack("<d", f) for f in regs.fr),
        tuple(core.btb), core.dear,
        tuple(bytes(mem.view_i64(arrays[n])) for n in ("c", "d")),
        tuple(sorted(core.cache.events.snapshot().items())),
    )


def _guard_reference(machine, image, arrays, state, knobs):
    """The generic interpreter, one bundle at a time, under the trace's
    exit contract: budget before a bundle, sample after it, then the
    architectural region exits."""
    from repro.cpu.tracejit import (
        EXIT_BUDGET, EXIT_LINK, EXIT_LOOP, EXIT_SAMPLE,
    )

    core = _enter(machine, image, arrays, state)
    core.jit_enabled = False
    max_bundles, cycle_limit, countdown, sampling = knobs
    core.sample_interval = sampling
    core._sample_countdown = countdown

    def on_sample(c):
        raise _Sampled

    core.on_sample = on_sample
    head, n = image.base, 3
    k, executed, iters = state["entry"], state["executed"], 0
    while True:
        if executed >= max_bundles or core.cycles > cycle_limit:
            flag = EXIT_BUDGET
            break
        retired = core.retired
        try:
            core.run(1)
            sampled = False
        except _Sampled:
            sampled = True
        executed += 1
        if sampling:
            countdown -= core.retired - retired
        if sampled:
            flag = EXIT_SAMPLE
            break
        if k == n - 1 and core.pc == head:
            if state["entry"]:
                flag = EXIT_LINK   # OSR suffix hands off at the back-edge
                break
            iters += 1
            k = 0
        elif core.pc == head + 16 * (k + 1) and k < n - 1:
            k += 1
        else:
            assert core.pc == head + 16 * n
            flag = EXIT_LOOP
            break
    regs = core.regs
    returned = (
        core.pc, regs.lc, regs.ec, regs.rrb_gr, regs.rrb_fr, regs.rrb_pr,
        core.cycles, core.retired, core.bundles_executed,
        core.taken_branches, core._issue_tick, countdown, executed, iters,
        flag,
    )
    return _observe(core, arrays, returned)


def _guard_compiled(machine, image, arrays, state, knobs):
    from repro.cpu.tracejit import compile_trace

    core = _enter(machine, image, arrays, state)
    dcache = core.decode_cache
    trace = compile_trace(
        image.base, dcache.sync(), dcache.keys, core.regs.sor,
        core.bundles_per_cycle, relax=True,
    )
    assert trace is not None and trace.n_bundles == 3
    fn = trace.entry(state["entry"])
    max_bundles, cycle_limit, countdown, sampling = knobs
    regs = core.regs
    returned = fn(
        core, core.cache, core.mem, regs.gr, regs.fr, regs.pr, core.btb,
        regs.lc, regs.ec, regs.rrb_gr, regs.rrb_fr, regs.rrb_pr,
        core.cycles, core.retired, core.bundles_executed,
        core.taken_branches, core._issue_tick, countdown, sampling,
        state["executed"], max_bundles, cycle_limit,
    )
    return _observe(core, arrays, returned)


def _boundaries(l2_hit, cold_iter, state):
    """(executed, cycles, retired) before each of the first bundles,
    from an unbounded reference run over two iterations and a bit."""
    machine, image, arrays = _guard_machine(l2_hit, cold_iter)
    core = _enter(machine, image, arrays, state)
    core.jit_enabled = False
    marks = []
    for step in range(7 - state["entry"]):
        marks.append((state["executed"] + step, core.cycles, core.retired))
        if core.halted or not image.base <= core.pc < image.base + 48:
            break
        core.run(1)
    return marks


GUARD_STATE = st.fixed_dictionaries({
    "lc": st.integers(0, 4),
    "ec": st.integers(0, 3),
    # rrb_gr may exceed sor = 8: alloc keeps it when a region shrinks
    "rrb": st.tuples(st.integers(0, 95), st.integers(0, 95), st.integers(0, 47)),
    "gr_rot": st.lists(
        st.integers(-(1 << 63), (1 << 63) - 1), min_size=8, max_size=8
    ),
    "fr_rot": st.lists(
        st.floats(-1e6, 1e6, allow_nan=False), min_size=96, max_size=96
    ),
    "pr_mask": st.integers(0, (1 << 48) - 1),
    "entry": st.integers(0, 2),
    "cycles": st.integers(0, 1 << 40),
    "retired": st.integers(0, 1 << 40),
    "bundles": st.integers(0, 1 << 40),
    "issue_tick": st.integers(0, 1),
    "executed": st.integers(0, 50),
})


@given(
    state=GUARD_STATE,
    l2_hit=st.sampled_from((0, 3)),
    cold_iter=st.sampled_from((None, 0, 1)),
)
@settings(**{**COMMON, "max_examples": 25})
def test_budget_guard_matches_generic_at_every_boundary(state, l2_hit, cold_iter):
    """The once-per-iteration guard exits exactly where the interpreter
    would stop.

    From an arbitrary entry state (rotation bases, predicates, LC/EC,
    issue phase, counters; steady-state or OSR suffix entry), each of
    ``max_bundles``, ``cycle_limit`` and the sampling countdown is
    placed one below, at and one above every bundle boundary of the
    first two iterations.  With ``l2_hit=3`` every hit stalls, and a
    cold B line forces a slow-path miss in the middle of iteration 0 or
    1 — the case where only the slow path's ``safe = False`` keeps the
    cycle budget exact.
    """
    marks = _boundaries(l2_hit, cold_iter, state)
    free = (1 << 62, 1 << 62, 1 << 30, 0)
    placements = [free]
    for executed, cycles, retired in marks:
        for delta in (-1, 0, 1):
            placements.append((executed + delta, 1 << 62, 1 << 30, 0))
            placements.append((1 << 62, cycles + delta, 1 << 30, 0))
            countdown = retired - state["retired"] + delta
            placements.append((1 << 62, 1 << 62, countdown, 1 << 20))
    for knobs in placements:
        ref = _guard_reference(*_guard_machine(l2_hit, cold_iter), state, knobs)
        fast = _guard_compiled(*_guard_machine(l2_hit, cold_iter), state, knobs)
        assert fast == ref, knobs
