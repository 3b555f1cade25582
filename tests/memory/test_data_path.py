"""One data path: traces, interpreter and accessors move identical bits.

Compiled traces, the generic interpreter and ``MemorySystem``'s
accessors all transfer words through the backing store's ``memoryview``
casts.  Values whose bits are easy to lose on a conversion (``-0.0``, a
NaN payload, an out-of-range integer, an int sitting in an FP register)
must land in memory bit for bit the same way on every path, and the
NumPy views handed out for initialization and checks must see it.
"""

from __future__ import annotations

import math
import struct

import numpy as np
import pytest

from repro.config import itanium2_smp
from repro.cpu import Machine, Scheduler
from repro.isa import assemble
from repro.memory.dram import MemorySystem

#: loop trip count: with the hot threshold at 2 the trace runs the rest
TRIPS = 8


def _bits(x: float) -> int:
    return struct.unpack("<q", struct.pack("<d", x))[0]


def _from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def _store_loop(store: str, init, jit: bool):
    """Run ``TRIPS`` iterations of one post-incremented store.

    ``store`` is the loop body (``r2`` is the destination cursor, ``r3``
    a source cursor over ``src``); ``init(machine, core, src)`` seeds
    registers and memory.  Returns (``dst`` words as int64 bits, core).
    """
    machine = Machine(itanium2_smp(1))
    mem = machine.mem
    dst = mem.alloc("dst", TRIPS * 8)
    src = mem.alloc("src", TRIPS * 8)
    image = assemble(
        f"mov r2={dst.base}\nmov r3={src.base}\nmov ar.lc={TRIPS - 1}\n"
        f".loop:\n{store}\nbr.cloop.sptk .loop\nhalt\n"
    )
    machine.load_image(image)
    core = machine.cores[0]
    core.jit_enabled = jit
    core.trace_jit.threshold = 2
    init(machine, core, src)
    core.start(image.base)
    Scheduler(machine.cores).run_until_halt(100_000)
    assert core.halted
    if jit:
        assert core.trace_jit.compiled_bundles > 0
    else:
        assert core.trace_jit.compiled_bundles == 0
    return mem.view_i64(dst)[:TRIPS].tolist(), core


def _both(store: str, init) -> list[int]:
    """Interpreter and trace results, asserted identical."""
    ref, _ = _store_loop(store, init, jit=False)
    fast, _ = _store_loop(store, init, jit=True)
    assert ref == fast
    return fast


@pytest.mark.parametrize(
    "value",
    [
        -0.0,
        _from_bits(0x7FF8_0000_DEAD_BEEF),
        _from_bits(0xFFF0_0000_0000_0001),
        math.inf,
    ],
    ids=["neg-zero", "quiet-nan-payload", "signalling-nan-payload", "inf"],
)
class TestFloatBits:
    def test_stfd_from_register(self, value):
        def init(machine, core, src):
            core.regs.write_fr(8, value)

        words = _both("stfd [r2]=f8,8", init)
        wrapper = MemorySystem(1 << 12)
        base = wrapper.alloc("w", 8).base
        wrapper.write_f64(base, value)
        assert words == [_bits(value)] * TRIPS
        assert int(wrapper._i64[0]) == _bits(value)
        assert _bits(wrapper.read_f64(base)) == _bits(value)

    def test_ldfd_stfd_round_trip(self, value):
        def init(machine, core, src):
            machine.mem.view_f64(src)[:TRIPS] = value

        words = _both("ldfd f9=[r3],8 ;;\nstfd [r2]=f9,8", init)
        assert words == [_bits(value)] * TRIPS


class TestIntegerBits:
    @pytest.mark.parametrize(
        "raw, stored",
        [
            (1 << 63, -(1 << 63)),
            (-(1 << 63), -(1 << 63)),
            (-(1 << 63) - 1, (1 << 63) - 1),
            ((1 << 64) + 5, 5),
        ],
    )
    def test_st8_wraps_like_write_i64(self, raw, stored):
        def init(machine, core, src):
            # raw register-list write: the wrap under test is the store's
            core.regs.gr[8] = raw

        words = _both("st8 [r2]=r8,8", init)
        wrapper = MemorySystem(1 << 12)
        base = wrapper.alloc("w", 8).base
        wrapper.write_i64(base, raw)
        assert words == [stored] * TRIPS
        assert wrapper.read_i64(base) == stored

    def test_ld8_st8_round_trip(self):
        values = [-(1 << 63), (1 << 63) - 1, -1, 0, 1, 12345, -(1 << 40), 7]

        def init(machine, core, src):
            machine.mem.view_i64(src)[:TRIPS] = values

        assert _both("ld8 r9=[r3],8 ;;\nst8 [r2]=r9,8", init) == values


class TestIntInFloatRegister:
    @pytest.mark.parametrize("value", [3, -7, (1 << 53) + 1, True])
    def test_int_via_write_fr_then_stfd(self, value):
        def init(machine, core, src):
            core.regs.write_fr(8, value)

        words = _both("stfd [r2]=f8,8", init)
        # the conversion NumPy assignment used to do, bit for bit
        numpy_bits = int(np.array([value], dtype=np.float64).view(np.int64)[0])
        wrapper = MemorySystem(1 << 12)
        base = wrapper.alloc("w", 8).base
        wrapper.write_f64(base, value)
        assert words == [numpy_bits] * TRIPS
        assert int(wrapper._i64[0]) == numpy_bits
        assert type(wrapper.read_f64(base)) is float


class TestViewsAlias:
    def test_word_view_writes_show_in_numpy_views(self):
        mem = MemorySystem(1 << 12)
        a = mem.alloc("a", 64)
        word = (a.base - 0x8000_0000) >> 3
        mem._f64v[word + 1] = -0.0
        mem._i64v[word + 2] = -(1 << 63)
        assert _bits(mem.view_f64(a)[1]) == _bits(-0.0)
        assert mem.view_i64(a)[2] == -(1 << 63)
        mem.view_f64(a)[3] = 2.5
        assert mem._f64v[word + 3] == 2.5
        assert type(mem._f64v[word + 3]) is float
        assert type(mem._i64v[word + 2]) is int

    def test_program_stores_show_in_numpy_views(self):
        def init(machine, core, src):
            core.regs.write_fr(8, -0.0)

        _, core = _store_loop("stfd [r2]=f8,8", init, jit=True)
        dst = core.mem.allocations["dst"]
        assert all(_bits(x) == _bits(-0.0) for x in core.mem.view_f64(dst)[:TRIPS])
