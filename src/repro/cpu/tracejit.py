"""Trace compilation for the interpreter: hot loops become closures.

COBRA's own premise — steady-state loop traces dominate runtime and
deserve a specialized fast path — applied to the simulator itself.  The
generic interpreter pays, for every slot of every iteration, a decoded-
tuple unpack, a predicate check, a ~30-arm opcode dispatch chain and
static-vs-rotating register tests.  For the modulo-scheduled kernels
that make up essentially all simulated cycles, none of that changes
between iterations: the decoded slots, the predicate register numbers,
the rotation classification of every operand, the lfetch hints and the
memory-op kinds are all loop invariants.

:func:`compile_trace` therefore flattens the decoded bundles of one
loop body — from a hot ``br.ctop``/``br.cloop``/``br.wtop`` back-edge
target up to and including the back-edge bundle — into Python source
specialized for exactly that trace (operand indices folded to
constants, dispatch eliminated, hardwired-register guards proven away
at compile time), ``exec``s it once, and hands the interpreter a *step
closure* that runs steady-state iterations until the trace exits.

On top of single-loop traces the registry grows **trace trees** with
OSR-style mid-body entry (DESIGN.md §9):

* **OSR entry** — every covered bundle address of a compiled trace is a
  legal entry point.  The interpreter's dispatch map resolves any pc to
  an :class:`_EntryPoint` ``(trace, bundle index)``; entering at a
  nonzero index lazily compiles a *suffix closure* that ingests the
  current architectural state (rotation indices, predicates, LC/EC,
  sampling countdown — the same 22-argument capture contract the
  steady-state closure uses) and executes from that bundle.  A suffix
  that reaches the back-edge hands off to the steady-state closure via
  the ``EXIT_LINK`` flag instead of re-interpreting;
* **side-exit chaining** — architectural trace exits (``EXIT_LOOP``,
  ``EXIT_SIDE``, ``EXIT_LINK``) are counted per ``(head, target)`` exit
  site; a site crossing the hot threshold promotes the target into a
  secondary trace rooted at the parent's tree.  Promotion compiles a
  loop trace when the target is itself a loop head (nested loops) and a
  straight-line *linear trace* otherwise (epilogue drains after
  ``cloop``/``wtop``, early-exit tails, >``MAX_TRACE_BUNDLES`` loop
  prefixes) — so control chains from compiled code to compiled code
  instead of falling back to the interpreter forever;
* **tree invalidation** — every node keys its covered bundles by decode
  content exactly like a root trace, and staleness is evaluated on the
  *union* of the tree's covered bundles: a live patch under any node
  deoptimizes the whole tree before the next slice, while a
  byte-identical rollback leaves the whole tree resident.

The contract with the generic interpreter (DESIGN.md §9):

* **bit-identical observables** — the closure replicates the generic
  loop's cycle accounting, L2-hit fast path, DEAR/BTB updates and
  sampling countdown bundle for bundle, and its returns carry the same
  retirement counters the generic loop would hold there;
* **one budget guard per iteration** — the ``max_bundles``/
  ``cycle_limit`` budget the scheduler uses to keep cores' clocks
  entangled is checked once at the top of each iteration (once per pass
  for OSR suffixes and linear regions): ``safe`` holds when the budget
  cannot run out before the last bundle starts even if every access
  hits the L2 (``N`` bundles of headroom and the worst-case all-hit
  cycle advance).  Only a charged slow-path access can stall without
  bound, so it clears ``safe``, and every bundle start after it
  re-checks the exact budget — *slice boundaries* still fall on the
  same bundle as the generic path;
* **fall back on anything unusual** — predicate/LC/EC divergence simply
  steers the coded exits (the trace is the specialized version; the
  generic interpreter is the always-correct fallback, cf. multi-version
  rewriting); sampling boundaries return control to the interpreter's
  sample-interrupt block; traces never compile over ``alloc``,
  ``clrrrb``, calls, returns or ``halt``;
* **deoptimize on patches** — compiled traces key every covered bundle
  by the decode cache's content bytes and are revalidated whenever the
  decode journal observes a mutation (:meth:`TraceJit.sync`), so
  lfetch→nop / lfetch→lfetch.excl rewrites and their rollbacks — or a
  chaos schedule tearing them mid-run — invalidate exactly the trees
  they touch before the next slice executes.

Traces run under a coherence validator too.  Whether one is attached is
baked into the codegen as a *checked* flag: a checked trace keeps the
inline L2-hit paths and reports each inline hit to the validator's
``after_access`` (slow-path accesses already go through the validating
``access`` wrapper), so the checker sees every access the compiled code
makes.  A validator attach or detach invalidates resident traces like a
patch does, and the interpreter enters a trace only while its ``sor``
and checked mode match the current ones.
"""

from __future__ import annotations

import functools

from ..isa.binary import BUNDLE_BYTES
from ..isa.instructions import Op
from ..memory.address import LINE_SHIFT
from ..memory.coherence import MODIFIED, SHARED
from ..memory.dram import DATA_BASE
from ..memory.hierarchy import (
    ATOMIC,
    LOAD,
    LOAD_BIAS,
    PREFETCH,
    PREFETCH_EXCL,
    STORE,
)

__all__ = [
    "CompiledTrace",
    "TraceJit",
    "compile_trace",
    "compile_linear_trace",
    "DEOPT_REASONS",
    "MAX_TRACE_BUNDLES",
    "HOT_THRESHOLD",
]

# deopt/exit flags returned by compiled traces (index into DEOPT_REASONS)
EXIT_LOOP = 0      # loop completed (back-edge not taken) — normal epilog exit
EXIT_SAMPLE = 1    # sampling countdown expired — fire the PMU interrupt
EXIT_BUDGET = 2    # max_bundles / cycle_limit slice boundary reached
EXIT_SIDE = 3      # a conditional branch left the trace mid-body
EXIT_LINK = 4      # normal completion handoff (OSR suffix / linear region end)

DEOPT_REASONS = ("loop-exit", "sample", "budget", "side-exit", "link")

#: Longest loop body (in bundles) the compiler will flatten.
MAX_TRACE_BUNDLES = 32

#: Shortest straight-line region worth a closure call (a 1-bundle
#: linear trace would pay the call overhead for zero dispatch savings).
MIN_LINEAR_BUNDLES = 2

#: Back-edge executions before a loop head is considered hot.  The same
#: threshold promotes hot trace-exit sites into secondary tree nodes.
#: OSR entry makes early compilation cheap — the interpreter transfers
#: in at the current iteration state instead of waiting for a cold
#: re-entry — so the ramp is exactly this many interpreted iterations
#: and a wrong guess costs one blacklisted compile attempt.  Three taken
#: back-edges separate steady-state loops from if-else diamonds well
#: enough to hold the fastpath bench's >=97% coverage floor.
HOT_THRESHOLD = 3

_NOP = int(Op.NOP)
_ADD = int(Op.ADD)
_ADDI = int(Op.ADDI)
_SUB = int(Op.SUB)
_MOV = int(Op.MOV)
_MOVI = int(Op.MOVI)
_AND = int(Op.AND)
_OR = int(Op.OR)
_XOR = int(Op.XOR)
_SHL = int(Op.SHL)
_SHR = int(Op.SHR)
_SHLADD = int(Op.SHLADD)
_CMP_LT = int(Op.CMP_LT)
_CMP_LE = int(Op.CMP_LE)
_CMP_EQ = int(Op.CMP_EQ)
_CMP_NE = int(Op.CMP_NE)
_CMPI_LT = int(Op.CMPI_LT)
_CMPI_NE = int(Op.CMPI_NE)
_MOV_LC_IMM = int(Op.MOV_LC_IMM)
_MOV_LC_REG = int(Op.MOV_LC_REG)
_MOV_EC_IMM = int(Op.MOV_EC_IMM)
_LD8 = int(Op.LD8)
_ST8 = int(Op.ST8)
_LDFD = int(Op.LDFD)
_STFD = int(Op.STFD)
_LFETCH = int(Op.LFETCH)
_FMA = int(Op.FMA)
_FADD = int(Op.FADD)
_FSUB = int(Op.FSUB)
_FMUL = int(Op.FMUL)
_SETF = int(Op.SETF)
_GETF = int(Op.GETF)
_FABS = int(Op.FABS)
_FMAX = int(Op.FMAX)
_BR = int(Op.BR)
_BR_COND = int(Op.BR_COND)
_BR_CTOP = int(Op.BR_CTOP)
_BR_CLOOP = int(Op.BR_CLOOP)
_BR_WTOP = int(Op.BR_WTOP)
_FETCHADD8 = int(Op.FETCHADD8)

_B62 = 1 << 62
_B63 = 1 << 63
_M64 = (1 << 64) - 1
_BMASK = ~(BUNDLE_BYTES - 1)
_SMASK = BUNDLE_BYTES - 1
_BTB_SIZE = 4

_LOOP_BRANCHES = (_BR_CTOP, _BR_CLOOP, _BR_WTOP)

#: ops writing a general register through r1
_GR_DEST_OPS = frozenset((
    _ADD, _ADDI, _SUB, _MOV, _MOVI, _AND, _OR, _XOR, _SHL, _SHR,
    _SHLADD, _GETF, _LD8, _FETCHADD8,
))
#: ops writing a float register through r1
_FR_DEST_OPS = frozenset((_LDFD, _FMA, _FADD, _FSUB, _FMUL, _SETF, _FABS, _FMAX))
#: ops writing two predicate registers through r1/r2
_PR_DEST_OPS = frozenset(range(_CMP_LT, _CMPI_NE + 1))
#: memory ops whose nonzero imm post-increments the gr addressed by r2
_POSTINC_OPS = frozenset((_LD8, _ST8, _LDFD, _STFD, _LFETCH))
#: ops that can add stall cycles to their bundle (lfetch never does)
_STALLING = frozenset((_LD8, _ST8, _LDFD, _STFD, _FETCHADD8))
#: ops with an inline L2-hit path (plus ``ld8`` without the bias hint)
_INLINE_HIT = frozenset((_LDFD, _STFD, _ST8, _LFETCH))
#: branch ops (a loop back-edge is one targeting the trace head)
_BRANCHES = frozenset((_BR, _BR_COND) + _LOOP_BRANCHES)

_SUPPORTED = (
    _GR_DEST_OPS
    | _FR_DEST_OPS
    | _PR_DEST_OPS
    | frozenset((
        _MOV_LC_IMM, _MOV_LC_REG, _MOV_EC_IMM, _ST8, _STFD, _LFETCH,
        _BR, _BR_COND, _BR_CTOP, _BR_CLOOP, _BR_WTOP,
    ))
)


#: Rotating-register index tables, doubled so ``rot[rrb + k]`` replaces
#: ``base + (rrb + k) % size`` for every ``k`` and rename base in range.
_ROT_FR = tuple(32 + i % 96 for i in range(2 * 96))
_ROT_PR = tuple(16 + i % 48 for i in range(2 * 48))


@functools.lru_cache(maxsize=128)
def _rot_gr(sor: int) -> tuple:
    """The GR table for one rotating-region size (``sor`` <= 96).

    ``alloc`` keeps ``rrb_gr`` when it shrinks the region, so the base
    may exceed ``sor`` (it stays below 96): the table spans sor + 96
    slots.
    """
    return tuple(32 + i % sor for i in range(sor + 96)) if sor else ()


_CODE_CACHE: dict = {}
_CODE_CACHE_CAP = 1024  # generated sources are small; cap is a leak guard


def _compile_source(source: str, filename: str):
    """Parse-once cache for generated trace source.

    Cores simulating the same program emit byte-identical source for the
    same trace head, and ``compile()`` dominates short-run wall clock.
    The parsed code object is immutable and shared process-wide; each
    ``exec`` still builds its own closure, so per-core state never leaks.
    """
    key = (filename, source)
    code = _CODE_CACHE.get(key)
    if code is None:
        if len(_CODE_CACHE) >= _CODE_CACHE_CAP:
            del _CODE_CACHE[next(iter(_CODE_CACHE))]
        code = compile(source, filename, "exec")
        _CODE_CACHE[key] = code
    return code


def _exec_trace(source: str, filename: str, sor: int):
    """``exec`` generated source; return its ``__trace__`` closure.

    The rotation tables reach the closure through its globals, bound to
    locals once per call, rather than as literals in every source.
    """
    namespace = {"ROT_GR": _rot_gr(sor), "ROT_FR": _ROT_FR, "ROT_PR": _ROT_PR}
    exec(_compile_source(source, filename), namespace)  # noqa: S102
    return namespace["__trace__"]


class CompiledTrace:
    """One compiled trace node: closures plus validity/tree metadata."""

    __slots__ = (
        "fn", "head", "sor", "addrs", "keys", "n_bundles", "source",
        "kind", "root", "body", "bpc", "checked", "entry_fns", "children",
        "last_used",
    )

    def __init__(self, fn, head, sor, addrs, keys, n_bundles, source,
                 kind, body, bpc, checked=False):
        self.fn = fn
        self.head = head
        self.sor = sor
        self.addrs = addrs      # covered bundle addresses, in trace order
        self.keys = keys        # decode-cache content keys at compile time
        self.n_bundles = n_bundles
        self.source = source    # generated Python (audits / debugging)
        self.kind = kind        # "loop" (steady-state) or "linear" (one pass)
        self.root = head        # tree root head (== head for root nodes)
        self.body = body        # decoded bundles (OSR suffix compilation)
        self.bpc = bpc          # bundles_per_cycle baked into the codegen
        self.checked = checked  # codegen reports inline hits to a validator
        self.entry_fns: dict[int, object] = {}   # bundle idx -> OSR closure
        self.children: list[int] = []            # promoted side-exit heads
        self.last_used = 0      # entry stamp for cold-first eviction

    def entry(self, idx: int):
        """The OSR entry closure starting at covered bundle ``idx``.

        Lazily generated and cached: a loop trace's suffix executes
        ``body[idx:]`` once and hands off to the steady-state closure at
        the back-edge (``EXIT_LINK``); a linear trace's suffix is just
        the region tail.  Index 0 is the trace's own ``fn``.
        """
        if idx == 0:
            return self.fn
        fn = self.entry_fns.get(idx)
        if fn is None:
            mode = "entry" if self.kind == "loop" else "linear"
            source = _generate(
                self.head, self.body, self.sor, self.bpc, mode=mode, start=idx,
                checked=self.checked,
            )
            fn = _exec_trace(source, f"<trace {self.head:#x}+{idx}>", self.sor)
            self.entry_fns[idx] = fn
        return fn


class _EntryPoint:
    """One dispatch-map slot: a trace and the covered-bundle index."""

    __slots__ = ("trace", "idx", "fn")

    def __init__(self, trace: CompiledTrace, idx: int, fn=None) -> None:
        self.trace = trace
        self.idx = idx
        self.fn = fn            # None until materialized (lazy OSR suffix)


# -- code generation ----------------------------------------------------------


class _Emit:
    """Tiny indented-source builder."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.depth = 0

    def __call__(self, line: str) -> None:
        self.lines.append("    " * self.depth + line)

    def indent(self) -> None:
        self.depth += 1

    def dedent(self) -> None:
        self.depth -= 1


def _wrap64(var: str) -> str:
    """Signed 64-bit wrap of the local ``var``.

    In-range values (nearly all of them) cost two comparisons instead of
    three big-integer operations.
    """
    return (
        f"{var} if {-_B63} <= {var} < {_B63} "
        f"else (({var} + {_B63}) & {_M64}) - {_B63}"
    )


class _TraceAbort(Exception):
    """Raised by the emitter when the trace cannot be specialized."""


def _walk(head: int, dmap: dict, relax: bool = False) -> list[tuple[int, tuple]]:
    """Collect the straight-line loop body ``head..back-edge`` bundles.

    With ``relax`` (trace trees enabled) a loop branch targeting a
    *different* head — an inner loop's back-edge inside the walked body
    — is allowed and becomes a plain side exit instead of aborting the
    walk, so outer loops of a nest compile too.

    Returns ``[(addr, decoded), ...]`` or raises :class:`_TraceAbort`.
    """
    if head & _SMASK:
        raise _TraceAbort("mid-bundle loop head")
    body: list[tuple[int, tuple]] = []
    addr = head
    for _ in range(MAX_TRACE_BUNDLES):
        decoded = dmap.get(addr)
        if decoded is None:
            raise _TraceAbort("trace runs off the decoded image")
        body.append((addr, decoded))
        closed = False
        for entry in decoded[1]:
            op = entry[1]
            if op not in _SUPPORTED:
                raise _TraceAbort(f"unsupported opcode {op}")
            if op in _LOOP_BRANCHES:
                if entry[7] == head:
                    closed = True
                elif not relax:
                    raise _TraceAbort("loop branch to a different head")
                # relaxed: the inner back-edge is a side exit when taken
            elif op == _BR:
                if entry[2] == 0 and entry[7] != head:
                    # unconditional goto elsewhere: not a loop body
                    raise _TraceAbort("unconditional branch out of trace")
                if entry[7] == head:
                    closed = True
            elif op == _BR_COND and entry[7] == head:
                closed = True
        if closed:
            return body
        addr += BUNDLE_BYTES
    raise _TraceAbort("loop body longer than MAX_TRACE_BUNDLES")


def _walk_linear(start: int, dmap: dict) -> list[tuple[int, tuple]]:
    """Collect a straight-line region ``start..`` for a linear trace.

    The region extends until an unconditional transfer (which closes
    it), an unsupported bundle, the edge of the decoded image, or
    ``MAX_TRACE_BUNDLES`` — whichever comes first; execution past a
    truncated end simply links back to the interpreter.
    """
    if start & _SMASK:
        raise _TraceAbort("mid-bundle region start")
    body: list[tuple[int, tuple]] = []
    addr = start
    for _ in range(MAX_TRACE_BUNDLES):
        decoded = dmap.get(addr)
        if decoded is None:
            break
        if any(entry[1] not in _SUPPORTED for entry in decoded[1]):
            break
        body.append((addr, decoded))
        if any(
            entry[1] == _BR and entry[2] == 0 for entry in decoded[1]
        ):
            break   # unconditional transfer closes the region
        addr += BUNDLE_BYTES
    if len(body) < MIN_LINEAR_BUNDLES:
        raise _TraceAbort("straight-line region too short to pay for a call")
    return body


def _make_trace(head, body, sor, bpc, keys, kind, mode, checked):
    source = _generate(head, body, sor, bpc, mode=mode, checked=checked)
    addrs = tuple(addr for addr, _ in body)
    return CompiledTrace(
        fn=_exec_trace(source, f"<trace {head:#x}>", sor),
        head=head,
        sor=sor,
        addrs=addrs,
        keys=tuple(keys.get(a) for a in addrs),
        n_bundles=len(body),
        source=source,
        kind=kind,
        body=body,
        bpc=bpc,
        checked=checked,
    )


def compile_trace(
    head: int,
    dmap: dict,
    keys: dict,
    sor: int,
    bundles_per_cycle: int,
    relax: bool = False,
    checked: bool = False,
) -> CompiledTrace | None:
    """Compile the loop at ``head`` into a step closure, or ``None``.

    ``dmap``/``keys`` are the core's synced :class:`DecodeCache` views;
    ``sor``, ``bundles_per_cycle`` and ``checked`` are baked into the
    generated code (the interpreter guards ``sor`` and ``checked``
    equality at every trace entry).  ``relax`` admits inner-loop
    back-edges as side exits (trace trees).
    """
    try:
        body = _walk(head, dmap, relax=relax)
        return _make_trace(head, body, sor, bundles_per_cycle, keys,
                           "loop", "loop", checked)
    except _TraceAbort:
        return None


def compile_linear_trace(
    start: int,
    dmap: dict,
    keys: dict,
    sor: int,
    bundles_per_cycle: int,
    checked: bool = False,
) -> CompiledTrace | None:
    """Compile the straight-line region at ``start``, or ``None``.

    Linear traces cover what loop traces cannot: epilogue drains after
    ``cloop``/``wtop``, early-exit tails, and the prefixes of loop
    bodies longer than ``MAX_TRACE_BUNDLES``.  The closure executes the
    region once and returns ``EXIT_LINK`` at its end (or ``EXIT_SIDE``
    at a taken conditional branch), chaining into the next trace via
    the dispatch map.
    """
    try:
        body = _walk_linear(start, dmap)
        return _make_trace(start, body, sor, bundles_per_cycle, keys,
                           "linear", "linear", checked)
    except _TraceAbort:
        return None


_SOURCE_CACHE: dict = {}


def _generate(
    head: int,
    body: list[tuple[int, tuple]],
    sor: int,
    bpc: int,
    mode: str = "loop",
    start: int = 0,
    checked: bool = False,
) -> str:
    """The closure source for one trace, emitted once per process.

    The source is a pure function of the arguments (decoded bundles
    included), and every core of a machine, and every machine running
    the same program, asks for the same traces: emission is memoized
    like ``compile()`` in :func:`_compile_source`.
    """
    key = (head, tuple(body), sor, bpc, mode, start, checked)
    source = _SOURCE_CACHE.get(key)
    if source is None:
        source = _emit_trace(head, body, sor, bpc, mode, start, checked)
        if len(_SOURCE_CACHE) >= _CODE_CACHE_CAP:
            del _SOURCE_CACHE[next(iter(_SOURCE_CACHE))]
        _SOURCE_CACHE[key] = source
    return source


def _emit_trace(
    head: int,
    body: list[tuple[int, tuple]],
    sor: int,
    bpc: int,
    mode: str,
    start: int,
    checked: bool,
) -> str:
    """Emit the closure source for one trace.

    ``mode`` selects the control skeleton around the shared slot
    emitters:

    * ``"loop"`` — the steady-state closure: ``while True`` over the
      whole body, back-edge to ``head`` continues in place;
    * ``"entry"`` — an OSR suffix of a loop trace: one pass over
      ``body[start:]``; a taken back-edge returns ``EXIT_LINK`` at
      ``head`` (the dispatch map then enters the steady-state closure);
    * ``"linear"`` — a straight-line region (``start`` slices for OSR
      entry): one pass; the region end or its closing unconditional
      branch returns ``EXIT_LINK``, conditional exits ``EXIT_SIDE``.

    Every skeleton guards the slice budget once per iteration (or once
    per pass): ``safe`` holds when neither ``max_bundles`` nor
    ``cycle_limit`` can be crossed before the last bundle starts, given
    that every access hits the L2.  A charged slow-path access clears
    ``safe``; from then on each bundle start re-checks the exact budget,
    so slice boundaries fall on the same bundle as in the generic
    interpreter.  ``retired``/``bundles_executed``/``executed`` advance
    once per iteration; every ``return`` adds its compile-time offsets.

    ``checked`` adds one ``after_access`` call to every inline L2-hit
    branch, so an attached validator observes exactly the accesses the
    generic interpreter would route through ``CpuCacheSystem.access``.
    """
    sor32 = 32 + sor
    e = _Emit()
    emitted = body if mode == "loop" else body[start:]
    n_bundles = len(emitted)
    # Per-bundle shape, one scan: accesses charged an L2 hit, whether
    # any access can stall, inline-hit sites and loop back-edge sites.
    # A pass with one inline-hit site skips re-promoting the line it
    # promoted last (still MRU unless a slow-path access intervened),
    # and a loop with one back-edge site stops refilling the BTB once
    # four of its own back-edges fill it: spin-waits are one-bundle,
    # one-load loops.
    charged: list[int] = []
    stalling: list[bool] = []
    hit_sites = back_edges = 0
    for _, decoded in emitted:
        n_hit = 0
        stall_op = False
        for entry in decoded[1]:
            op = entry[1]
            stall_op = stall_op or op in _STALLING
            if op in _INLINE_HIT or (op == _LD8 and not entry[8]):
                hit_sites += 1
                if op != _LFETCH:
                    n_hit += 1      # charged l2_hit_lat when it hits
            elif op in _BRANCHES and entry[7] == head:
                back_edges += 1
        charged.append(n_hit)
        stalling.append(stall_op)
    # slots retired / bundles completed before the current bundle of
    # this iteration (loop) or pass (entry, linear)
    done_slots = done_bundles = 0
    # whether the current bundle holds an access that can stall
    stalls = True

    # -- operand expressions, resolved at compile time ---------------------

    def plus(name: str, n: int) -> str:
        return f"{name} + {n}" if n else name

    def gr_r(r: int) -> str:
        if r == 0:
            return "0"
        if sor and 32 <= r < sor32:
            return f"grl[rot_gr[{plus('rrb_gr', r - 32)}]]"
        return f"grl[{r}]"

    def gr_w(r: int) -> str:
        if r == 0:
            raise _TraceAbort("write to r0")
        return gr_r(r)

    def fr_r(r: int) -> str:
        if r == 32:
            return "frl[32 + rrb_fr]"
        if r > 32:
            return f"frl[rot_fr[rrb_fr + {r - 32}]]"
        return f"frl[{r}]"

    def fr_w(r: int) -> str:
        if r in (0, 1):
            raise _TraceAbort(f"write to f{r}")
        return fr_r(r)

    def pr_r(p: int) -> str:
        if p == 16:
            return "prl[16 + rrb_pr]"
        if p > 16:
            return f"prl[rot_pr[rrb_pr + {p - 16}]]"
        return f"prl[{p}]"

    def pr_w(p: int) -> str:
        if p == 0:
            raise _TraceAbort("write to p0")
        return pr_r(p)

    def ret(pc_expr: str, flag: int, slots: int, bundles: int) -> str:
        """``return`` with the folded counters advanced by static offsets."""
        return (
            f"return ({pc_expr}, lc, ec, rrb_gr, rrb_fr, rrb_pr, cycles, "
            f"retired + {slots}, bundles_executed + {bundles}, "
            f"taken_branches, issue_tick, countdown, "
            f"executed + {bundles}, iters, {flag})"
        )

    def emit_retire(n_slots: int, next_pc: int) -> None:
        """The generic loop's end-of-bundle timing and sampling, folded."""
        e("issue_tick += 1")
        e(f"if issue_tick >= {bpc}:")
        e.indent()
        e("issue_tick = 0")
        e("cycles += 1 + stall" if stalls else "cycles += 1")
        e.dedent()
        if stalls:
            e("else:")
            e.indent()
            e("cycles += stall")
            e.dedent()
        e("if sampling:")
        e.indent()
        e(f"countdown -= {n_slots}")
        e("if countdown <= 0:")
        e.indent()
        e(ret(str(next_pc), EXIT_SAMPLE, done_slots + n_slots, done_bundles + 1))
        e.dedent()
        e.dedent()

    def emit_taken(base: int, idx: int, target: int, link: bool = False) -> None:
        """Taken-branch exit: bookkeeping + retire, then leave or loop."""
        e("taken_branches += 1")
        # four earlier back-edges of this call left the BTB as four
        # copies of this pair: appending another changes nothing
        saturates = target == head and mode == "loop" and back_edges == 1
        if saturates:
            e(f"if iters < {_BTB_SIZE}:")
            e.indent()
        e(f"btb_append(({base + idx}, {target}))")
        e(f"if len(btb) > {_BTB_SIZE}:")
        e.indent()
        e("del btb[0]")
        e.dedent()
        if saturates:
            e.dedent()
        emit_retire(idx + 1, target)
        slots, bundles = done_slots + idx + 1, done_bundles + 1
        if target == head and mode == "loop":
            e(f"retired += {slots}")
            e(f"bundles_executed += {bundles}")
            e(f"executed += {bundles}")
            e("iters += 1")
            e("continue")
        elif target == head and mode == "entry":
            # OSR suffix reached the back-edge: hand off to the
            # steady-state closure through the dispatch map
            e(ret(str(target), EXIT_LINK, slots, bundles))
        else:
            e(ret(str(target), EXIT_LINK if link else EXIT_SIDE, slots, bundles))

    def emit_rotate() -> None:
        """One register rotation (shared by ctop/wtop arms)."""
        if sor:
            e(f"rrb_gr = (rrb_gr - 1) % {sor}")
        e("rrb_fr = (rrb_fr - 1) % 96")
        e("rrb_pr = (rrb_pr - 1) % 48")

    def emit_unsafe() -> None:
        # an uncapped stall: later bundles re-check the exact budget (a
        # one-bundle pass has no later bundle and no ``safe`` flag)
        if n_bundles > 1:
            e("safe = False")

    def emit_wrapped(dest: str, expr: str) -> None:
        e(f"w = {expr}")
        e(f"{dest} = {_wrap64('w')}")

    def emit_post_inc(r2: int, imm: int, in_segment: bool) -> None:
        # a data access that got this far passed the in-range test or a
        # MemorySystem accessor (which raises), so ``a`` lies in the data
        # segment and a modest increment cannot leave the signed range
        if in_segment and -_B62 < imm < _B62:
            e(f"{gr_w(r2)} = a + {imm}")
        else:
            emit_wrapped(gr_w(r2), f"a + {imm}")

    def emit_mem_addr(r2: int) -> None:
        e(f"a = {gr_r(r2)}")

    def emit_l2_probe() -> None:
        e(f"line = a >> {LINE_SHIFT}")
        e("lru = l2_sets[line % l2_nsets]")

    def emit_hit_check(kind: int) -> None:
        if checked:
            e(f"after_access(cache, line, {kind})")

    def emit_promote() -> None:
        """LRU promotion of an inline hit (skipping a repeat, see above)."""
        if hit_sites == 1:
            e("if line != last_line:")
            e.indent()
        e("del lru[line]")
        e("lru[line] = None")
        if hit_sites == 1:
            e("last_line = line")
            e.dedent()

    def emit_after_slow(charge: bool) -> None:
        if charge:
            emit_unsafe()
        if hit_sites == 1:
            # the slow path may reorder the set
            e("last_line = None")

    def emit_slow_access(kind: int, base: int, idx: int, charge: bool) -> None:
        if charge:
            e(f"stall += cache_access(cycles, a, {kind})")
        else:
            e(f"cache_access(cycles, a, {kind})")
        emit_after_slow(charge)
        if kind in (LOAD, STORE, LOAD_BIAS):
            e("dp = cache.dear_pending")
            e("if dp is not None:")
            e.indent()
            e(f"core.dear = ({base + idx}, a, dp)")
            e("cache.dear_pending = None")
            e.dedent()

    # -- slot emitters -----------------------------------------------------

    def emit_slot(base: int, entry: tuple) -> None:
        idx, op, qp, r1, r2, r3, r4, imm, excl = entry

        guarded = bool(qp) and op != _BR_WTOP
        if guarded:
            e(f"if {pr_r(qp)}:")
            e.indent()

        if op == _LDFD or op == _LD8:
            view = "mem_f64v" if op == _LDFD else "mem_i64v"
            reader_slow = "mem_read_f64" if op == _LDFD else "mem_read_i64"
            emit_mem_addr(r2)
            biased = op == _LD8 and excl
            if biased:
                emit_slow_access(LOAD_BIAS, base, idx, charge=True)
            else:
                emit_l2_probe()
                e("if line in lru:")
                e.indent()
                e("mem_events.loads += 1")
                emit_promote()
                e("stall += l2_hit_lat")
                emit_hit_check(LOAD)
                e.dedent()
                e("else:")
                e.indent()
                emit_slow_access(LOAD, base, idx, charge=True)
                e.dedent()
            e(f"off = a - {DATA_BASE}")
            e("if 0 <= off < mem_cap and not off & 7:")
            e.indent()
            e(f"v = {view}[off >> 3]")
            e.dedent()
            e("else:")
            e.indent()
            e(f"v = {reader_slow}(a)")
            e.dedent()
            e(f"{(fr_w if op == _LDFD else gr_w)(r1)} = v")
            if imm:
                emit_post_inc(r2, imm, in_segment=True)
        elif op == _STFD or op == _ST8:
            emit_mem_addr(r2)
            emit_l2_probe()
            e("hit = False")
            e("if line in lru:")
            e.indent()
            e("st = line_state[line]")
            e(f"if st != {SHARED}:")
            e.indent()
            e("mem_events.stores += 1")
            e(f"if st != {MODIFIED}:")
            e.indent()
            e(f"line_state[line] = {MODIFIED}")
            e.dedent()
            e("l2_dirty.add(line)")
            emit_promote()
            e("stall += l2_hit_lat")
            e("hit = True")
            emit_hit_check(STORE)
            e.dedent()
            e.dedent()
            e("if not hit:")
            e.indent()
            emit_slow_access(STORE, base, idx, charge=True)
            e.dedent()
            if op == _STFD:
                e(f"v = {fr_r(r3)}")
            else:
                e(f"v = {gr_r(r3)}")
            e(f"off = a - {DATA_BASE}")
            e("if 0 <= off < mem_cap and not off & 7:")
            e.indent()
            if op == _STFD:
                e("mem_f64v[off >> 3] = v")
            else:
                e(f"mem_i64v[off >> 3] = {_wrap64('v')}")
            e.dedent()
            e("else:")
            e.indent()
            e(f"{'mem_write_f64' if op == _STFD else 'mem_write_i64'}(a, v)")
            e.dedent()
            if imm:
                emit_post_inc(r2, imm, in_segment=True)
        elif op == _LFETCH:
            emit_mem_addr(r2)
            emit_l2_probe()
            cond = "line in lru"
            if excl:
                cond += f" and line_state[line] == {MODIFIED}"
            e(f"if {cond}:")
            e.indent()
            e("mem_events.prefetches += 1")
            emit_promote()
            emit_hit_check(PREFETCH_EXCL if excl else PREFETCH)
            e.dedent()
            e("else:")
            e.indent()
            emit_slow_access(
                PREFETCH_EXCL if excl else PREFETCH, base, idx, charge=False
            )
            e.dedent()
            if imm:
                # a prefetch touches no data: its address is unchecked
                emit_post_inc(r2, imm, in_segment=False)
        elif op == _FMA:
            e(f"{fr_w(r1)} = {fr_r(r2)} * {fr_r(r3)} + {fr_r(r4)}")
        elif op == _ADD:
            emit_wrapped(gr_w(r1), f"{gr_r(r2)} + {gr_r(r3)}")
        elif op == _ADDI:
            emit_wrapped(gr_w(r1), f"{gr_r(r2)} + {imm}")
        elif op == _SUB:
            emit_wrapped(gr_w(r1), f"{gr_r(r2)} - {gr_r(r3)}")
        elif op == _AND:
            emit_wrapped(gr_w(r1), f"{gr_r(r2)} & {gr_r(r3)}")
        elif op == _OR:
            emit_wrapped(gr_w(r1), f"{gr_r(r2)} | {gr_r(r3)}")
        elif op == _XOR:
            emit_wrapped(gr_w(r1), f"{gr_r(r2)} ^ {gr_r(r3)}")
        elif op == _SHL:
            emit_wrapped(gr_w(r1), f"{gr_r(r2)} << {imm}")
        elif op == _SHR:
            emit_wrapped(gr_w(r1), f"{gr_r(r2)} >> {imm}")
        elif op == _SHLADD:
            emit_wrapped(gr_w(r1), f"({gr_r(r2)} << {imm}) + {gr_r(r3)}")
        elif op == _MOV:
            e(f"{gr_w(r1)} = {gr_r(r2)}")
        elif op == _MOVI:
            e(f"{gr_w(r1)} = {((imm + _B63) & _M64) - _B63}")
        elif op in _PR_DEST_OPS:
            a_expr = gr_r(r3)
            if op >= _CMPI_LT:
                b_expr = str(imm)
                base_op = op - 4
            else:
                b_expr = gr_r(r4)
                base_op = op
            rel = {
                _CMP_LT: "<", _CMP_LE: "<=", _CMP_EQ: "==", _CMP_NE: "!=",
            }[base_op]
            e(f"c = {a_expr} {rel} {b_expr}")
            e(f"{pr_w(r1)} = c")
            e(f"{pr_w(r2)} = not c")
        elif op == _FADD:
            e(f"{fr_w(r1)} = {fr_r(r2)} + {fr_r(r3)}")
        elif op == _FSUB:
            e(f"{fr_w(r1)} = {fr_r(r2)} - {fr_r(r3)}")
        elif op == _FMUL:
            e(f"{fr_w(r1)} = {fr_r(r2)} * {fr_r(r3)}")
        elif op == _FMAX:
            e(f"fa = {fr_r(r2)}")
            e(f"fb = {fr_r(r3)}")
            e(f"{fr_w(r1)} = fa if fa >= fb else fb")
        elif op == _FABS:
            e(f"{fr_w(r1)} = abs({fr_r(r2)})")
        elif op == _SETF:
            e(f"{fr_w(r1)} = float({gr_r(r2)})")
        elif op == _GETF:
            emit_wrapped(gr_w(r1), f"int({fr_r(r2)})")
        elif op == _FETCHADD8:
            emit_mem_addr(r2)
            e(f"stall += cache_access(cycles, a, {ATOMIC})")
            emit_after_slow(charge=True)
            e("old = mem_read_i64(a)")
            e(f"mem_write_i64(a, old + {imm})")
            e(f"{gr_w(r1)} = old")
        elif op == _MOV_LC_IMM:
            e(f"lc = {imm}")
        elif op == _MOV_LC_REG:
            e(f"lc = {gr_r(r2)}")
        elif op == _MOV_EC_IMM:
            e(f"ec = {imm}")
        elif op == _BR_CTOP:
            e("if lc > 0:")
            e.indent()
            e("lc -= 1")
            emit_rotate()
            e("prl[16 + rrb_pr] = True")
            emit_taken(base, idx, imm)
            e.dedent()
            e("elif ec > 1:")
            e.indent()
            e("ec -= 1")
            emit_rotate()
            e("prl[16 + rrb_pr] = False")
            emit_taken(base, idx, imm)
            e.dedent()
            e("else:")
            e.indent()
            e("if ec > 0:")
            e.indent()
            e("ec -= 1")
            e.dedent()
            emit_rotate()
            e("prl[16 + rrb_pr] = False")
            e.dedent()
        elif op == _BR_CLOOP:
            e("if lc > 0:")
            e.indent()
            e("lc -= 1")
            emit_taken(base, idx, imm)
            e.dedent()
        elif op == _BR_WTOP:
            # qp is the *branch* predicate here, evaluated even when false
            e(f"if {pr_r(qp)}:")
            e.indent()
            emit_rotate()
            e("prl[16 + rrb_pr] = False")
            emit_taken(base, idx, imm)
            e.dedent()
            e("elif ec > 1:")
            e.indent()
            e("ec -= 1")
            emit_rotate()
            e("prl[16 + rrb_pr] = False")
            emit_taken(base, idx, imm)
            e.dedent()
            e("else:")
            e.indent()
            e("if ec > 0:")
            e.indent()
            e("ec -= 1")
            e.dedent()
            emit_rotate()
            e("prl[16 + rrb_pr] = False")
            e.dedent()
        elif op == _BR or op == _BR_COND:
            # guard already evaluated (qp wrapper above) -> taken; an
            # unconditional br closing a linear region is its normal
            # exit (link), not a deviation from the trace
            emit_taken(
                base, idx, imm,
                link=(mode == "linear" and op == _BR and qp == 0),
            )
        else:  # pragma: no cover — the walkers filter unsupported ops
            raise _TraceAbort(f"unsupported opcode {op}")

        if guarded:
            e.dedent()

    # -- function body -----------------------------------------------------

    # The budget guard's headroom: the pass's bundle count, and the
    # worst cycle advance before its last bundle starts when every
    # access hits (issue-pair wraps plus one L2 hit per charged access).
    n_charged = sum(charged[:-1])
    issue_wraps = (n_bundles - 1 + bpc - 1) // bpc

    e("def __trace__(core, cache, mem, grl, frl, prl, btb, lc, ec, rrb_gr, "
      "rrb_fr, rrb_pr, cycles, retired, bundles_executed, taken_branches, "
      "issue_tick, countdown, sampling, executed, max_bundles, cycle_limit):")
    e.indent()
    e("cache_access = cache.access_fn")
    if checked:
        e("after_access = cache.validator.after_access")
    e("l2_sets = cache._l2_sets")
    e("l2_nsets = cache._l2_nsets")
    e("l2_hit_lat = cache._l2_hit")
    e("line_state = cache.state")
    e("l2_dirty = cache.l2_dirty")
    e("mem_events = cache.events")
    e("mem_cap = mem.capacity")
    e("mem_f64v = mem._f64v")
    e("mem_i64v = mem._i64v")
    e("mem_read_f64 = mem.read_f64")
    e("mem_write_f64 = mem.write_f64")
    e("mem_read_i64 = mem.read_i64")
    e("mem_write_i64 = mem.write_i64")
    e("btb_append = btb.append")
    e("rot_gr = ROT_GR")
    e("rot_fr = ROT_FR")
    e("rot_pr = ROT_PR")
    if n_bundles > 1:
        e(f"bmax = max_bundles - {n_bundles}")
        if n_charged:
            e(f"cmax = cycle_limit - {issue_wraps} - {n_charged} * l2_hit_lat")
        else:
            e(f"cmax = cycle_limit - {issue_wraps}")
    if hit_sites == 1:
        e("last_line = None")
    e("iters = 0")
    if mode == "loop":
        e("while True:")
        e.indent()
    if n_bundles > 1:
        e("safe = executed <= bmax and cycles <= cmax")
    for n, (addr, decoded) in enumerate(emitted):
        n_total = decoded[0]
        entries = decoded[1]
        done_bundles = n
        stalls = stalling[n]
        e(f"# -- bundle {addr:#x}")
        budget = (
            f"{plus('executed', n)} >= max_bundles or cycles > cycle_limit"
        )
        e(f"if not safe and ({budget}):" if n_bundles > 1 else f"if {budget}:")
        e.indent()
        e(ret(str(addr), EXIT_BUDGET, done_slots, done_bundles))
        e.dedent()
        if stalls:
            e("stall = 0")
        for entry in entries:
            emit_slot(addr, entry)
        # fall-through retirement (no branch taken in this bundle)
        emit_retire(n_total, addr + BUNDLE_BYTES)
        done_slots += n_total
        if n == n_bundles - 1:
            if mode == "linear":
                # region end: chain to whatever follows it
                e(ret(str(addr + BUNDLE_BYTES), EXIT_LINK, done_slots, n + 1))
            else:
                # fell past the back-edge bundle: the loop is done
                e(ret(str(addr + BUNDLE_BYTES), EXIT_LOOP, done_slots, n + 1))
    if mode == "loop":
        e.dedent()
    e.dedent()
    return "\n".join(e.lines) + "\n"


# -- per-core management ------------------------------------------------------


class TraceJit:
    """Per-core trace registry: hotness, compilation, trees, eviction."""

    __slots__ = (
        "traces",
        "hot",
        "blacklist",
        "threshold",
        "epoch_seen",
        "compiles",
        "invalidations",
        "entries",
        "iters",
        "compiled_bundles",
        "deopts",
        "dispatch",
        "sites",
        "osr",
        "checked",
        "generation",
        "osr_entries",
        "tree_links",
        "resume_hits",
        "promotions",
        "entry_compiles",
        "evicted",
    )

    def __init__(self, threshold: int = HOT_THRESHOLD) -> None:
        #: trace head -> CompiledTrace (every resident tree node)
        self.traces: dict[int, CompiledTrace] = {}
        #: loop head -> taken back-edge count since (re)reset
        self.hot: dict[int, int] = {}
        #: heads/targets that failed to compile (retried after a patch)
        self.blacklist: set[int] = set()
        self.threshold = threshold
        self.epoch_seen = -1
        self.compiles = 0
        self.invalidations = 0
        self.entries = 0            # compiled-trace dispatches
        self.iters = 0              # steady-state iterations run compiled
        self.compiled_bundles = 0   # bundles executed inside traces
        self.deopts = [0, 0, 0, 0, 0]  # indexed by EXIT_* flag
        #: covered bundle address -> _EntryPoint (the interpreter
        #: dispatches on this; index 0 slots win over mid-body slots)
        self.dispatch: dict[int, _EntryPoint] = {}
        #: (parent head, exit target) -> architectural exit count;
        #: crossing the threshold promotes the target into the tree
        self.sites: dict[tuple[int, int], int] = {}
        #: OSR + trace trees enabled (``REPRO_TRACE_JIT=osr-off`` pins
        #: the PR-5 loop-head-only behavior for CI bisection)
        self.osr = True
        #: codegen mode of every resident trace: True while a coherence
        #: validator is attached to this core's cache (set_checked)
        self.checked = False
        #: bumped on every invalidation/eviction — stale-entry fence
        #: for the core's cached budget-resume hint
        self.generation = 0
        self.osr_entries = 0        # dispatches entering at a nonzero index
        self.tree_links = 0         # trace exits chaining into another trace
        self.resume_hits = 0        # budget exits resumed without a re-probe
        self.promotions = 0         # side-exit targets compiled into the tree
        self.entry_compiles = 0     # lazily generated OSR suffix closures
        self.evicted = 0            # nodes evicted by the resource governor

    def sync(self, dcache) -> dict[int, _EntryPoint]:
        """Revalidate compiled traces against the decode journal.

        Called once per ``run()`` slice, right after ``DecodeCache.sync``
        — the same cadence the generic interpreter refreshes its decoded
        view, so a patched bundle can never execute through a stale
        trace.  Staleness is tree-wide: a key mismatch under *any* node
        invalidates every node sharing that root (the tree's covered-
        bundle union is its validity domain), while a patch + byte-
        identical rollback leaves the whole tree resident.  Returns the
        entry-point dispatch map.
        """
        epoch = dcache.epoch
        if epoch != self.epoch_seen:
            self.epoch_seen = epoch
            if self.traces:
                keys = dcache.keys
                stale_roots = {
                    tr.root
                    for tr in self.traces.values()
                    if any(keys.get(a) != k for a, k in zip(tr.addrs, tr.keys))
                }
                if stale_roots:
                    self._invalidate([
                        h for h, tr in self.traces.items()
                        if tr.root in stale_roots
                    ])
            if self.blacklist:
                # patched code may have become compilable — retry after
                # the head re-proves itself hot
                for h in self.blacklist:
                    self.hot[h] = 0
                self.blacklist.clear()
            # exit-site hotness restarts after any patch: dead trees'
            # sites must not promote against stale parents, and patched
            # code re-proves its exits like a blacklisted head does
            self.sites.clear()
        return self.dispatch

    def set_checked(self, checked: bool) -> None:
        """Switch the codegen mode when a validator attaches or detaches.

        Every resident trace was compiled in the old mode, so all of
        them are invalidated exactly as a patch under them would be;
        hot heads then recompile in the new mode.
        """
        if checked == self.checked:
            return
        self.checked = checked
        if self.traces:
            self._invalidate(list(self.traces))
        self.sites.clear()

    def _invalidate(self, heads: list[int]) -> None:
        """Drop the traces at ``heads``; they re-prove hotness first."""
        for h in heads:
            del self.traces[h]
            self.invalidations += 1
            self.hot[h] = 0
        self.generation += 1
        self._rebuild_dispatch()

    def _register(self, trace: CompiledTrace) -> None:
        """Publish a trace's entry points into the dispatch map.

        Every covered bundle is an OSR entry; on address conflicts a
        trace's *own* head (index 0: the steady-state/region closure)
        wins over another trace's mid-body suffix.  With OSR off only
        the head is published (loop-boundary dispatch, PR-5 behavior).
        """
        d = self.dispatch
        if not self.osr:
            d[trace.head] = _EntryPoint(trace, 0, trace.fn)
            return
        for i, addr in enumerate(trace.addrs):
            cur = d.get(addr)
            if cur is None or (i == 0 and cur.idx != 0):
                d[addr] = _EntryPoint(
                    trace, i, trace.fn if i == 0 else trace.entry_fns.get(i)
                )

    def _rebuild_dispatch(self) -> None:
        # deterministic: traces iterate in compile order, and the
        # conflict rule is order-independent for index-0 slots
        self.dispatch.clear()
        for trace in self.traces.values():
            self._register(trace)

    def _adopt(self, trace: CompiledTrace, root: int) -> None:
        trace.root = root
        self.traces[trace.head] = trace
        self.compiles += 1
        self._register(trace)

    def materialize(self, ep: _EntryPoint):
        """Generate (or fetch) the OSR suffix closure for one entry."""
        trace = ep.trace
        fn = trace.entry_fns.get(ep.idx)
        if fn is None:
            fn = trace.entry(ep.idx)
            self.entry_compiles += 1
        ep.fn = fn
        return fn

    def compile(
        self, head: int, dmap: dict, keys: dict, sor: int, bpc: int
    ) -> CompiledTrace | None:
        existing = self.traces.get(head)
        if existing is not None:
            return existing
        if head in self.blacklist:
            return None
        checked = self.checked
        trace = compile_trace(
            head, dmap, keys, sor, bpc, relax=self.osr, checked=checked
        )
        if trace is None and self.osr:
            # not a compilable loop (too long, irregular) — cover its
            # straight-line prefix and chain from there
            trace = compile_linear_trace(
                head, dmap, keys, sor, bpc, checked=checked
            )
        if trace is None:
            self.blacklist.add(head)
            return None
        self._adopt(trace, root=head)
        return trace

    def promote(
        self,
        parent: CompiledTrace,
        target: int,
        dmap: dict,
        keys: dict,
        sor: int,
        bpc: int,
    ) -> CompiledTrace | None:
        """Grow the tree: compile a hot exit target off ``parent``.

        Loop-shaped targets (nested-loop heads) become loop nodes even
        when a parent's OSR entry already covers the address — a
        dedicated steady-state closure beats one-iteration suffix calls
        and takes over the dispatch slot.  Straight-line targets get a
        linear node the same way (head slots win over mid-body slots).
        """
        if (
            not self.osr
            or target & _SMASK
            or target in self.blacklist
            or target in self.traces
        ):
            return None
        covered = self.dispatch.get(target)
        if covered is not None and covered.idx == 0:
            return None
        checked = self.checked
        trace = compile_trace(
            target, dmap, keys, sor, bpc, relax=True, checked=checked
        )
        if trace is None:
            # straight-line fallback: a dedicated region node beats a
            # per-call OSR suffix (idx-0 registration takes the slot)
            trace = compile_linear_trace(
                target, dmap, keys, sor, bpc, checked=checked
            )
        if trace is None:
            self.blacklist.add(target)
            return None
        self._adopt(trace, root=parent.root)
        parent.children.append(target)
        self.promotions += 1
        return trace

    def compiled_footprint(self) -> int:
        """Resident compiled bundles (tree nodes count like any trace)."""
        return sum(tr.n_bundles for tr in self.traces.values())

    def evict_cold(self, budget: int) -> list[tuple[int, str, int]]:
        """Evict coldest-entered nodes until the footprint fits ``budget``.

        Returns ``[(head, kind, n_bundles), ...]`` victims for the
        governor's ledger.  Coldness is the last-entry stamp (ties break
        on head) — a pure function of the simulated run, so replicas
        evict identically.  Evicted heads re-prove hotness from zero.
        """
        victims: list[tuple[int, str, int]] = []
        total = self.compiled_footprint()
        if total <= budget:
            return victims
        order = sorted(
            self.traces.items(), key=lambda kv: (kv[1].last_used, kv[0])
        )
        for head, trace in order:
            if total <= budget:
                break
            del self.traces[head]
            self.hot[head] = 0
            total -= trace.n_bundles
            victims.append((head, trace.kind, trace.n_bundles))
            self.evicted += 1
        self.generation += 1
        self._rebuild_dispatch()
        return victims

    def warm_seed(self, shapes, dcache, bpc: int) -> int:
        """Recompile persisted tree shapes before the first instruction.

        ``shapes`` is the profile DB's ``jit_trees`` list —
        ``[root, start, kind, sor]`` per node, recorded at a prior run's
        end.  Compilation is strictly validated and best-effort: a torn
        or stale shape is skipped (the run stays correct, the node just
        re-proves hotness the cold way).  The stored ``sor`` matters
        because at retired 0 the registers are pre-``alloc`` (sor 0);
        the interpreter's per-entry ``sor`` guard keeps a wrong-rotation
        node inert rather than wrong.
        """
        if not self.osr or not shapes:
            return 0
        dmap = dcache.sync()
        keys = dcache.keys
        count = 0
        for shape in shapes:
            if not isinstance(shape, (list, tuple)) or len(shape) != 4:
                continue
            root, start, kind, tsor = shape
            if (
                not isinstance(root, int)
                or not isinstance(start, int)
                or not isinstance(tsor, int)
                or kind not in ("loop", "linear")
                or start & _SMASK
                or start in self.traces
                or not 0 <= tsor <= 96
            ):
                continue
            if kind == "loop":
                trace = compile_trace(
                    start, dmap, keys, tsor, bpc, relax=True,
                    checked=self.checked,
                )
            else:
                trace = compile_linear_trace(
                    start, dmap, keys, tsor, bpc, checked=self.checked
                )
            if trace is None:
                continue
            self._adopt(trace, root=root)
            # already proven hot by a prior run; pin the counter past
            # the exact-threshold trigger so back-edges skip recompiles
            self.hot[start] = self.threshold
            count += 1
        return count

    def stats(self) -> dict:
        """Observability snapshot (bench / CobraReport fast-path lines)."""
        return {
            "compiles": self.compiles,
            "invalidations": self.invalidations,
            "entries": self.entries,
            "iterations": self.iters,
            "compiled_bundles": self.compiled_bundles,
            "osr_entries": self.osr_entries,
            "tree_links": self.tree_links,
            "resume_hits": self.resume_hits,
            "promotions": self.promotions,
            "evicted": self.evicted,
            "exit_sites": {
                f"{head:#x}->{target:#x}": count
                for (head, target), count in sorted(self.sites.items())
            },
            "deopts": {
                reason: count
                for reason, count in zip(DEOPT_REASONS, self.deopts)
            },
        }
