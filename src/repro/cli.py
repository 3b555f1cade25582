"""Command-line interface: run workloads and paper experiments.

Examples::

    python -m repro daxpy --threads 4 --working-set 128K --strategy adaptive
    python -m repro npb cg --machine altix8 --strategy noprefetch
    python -m repro table1
    python -m repro disasm daxpy
    python -m repro validate --workloads daxpy cg mg
    python -m repro chaos --workloads daxpy cg --seed 7 --runs 3
    python -m repro daxpy --checkpoint-dir ckpt --strategy noprefetch
    python -m repro resume --checkpoint-dir ckpt
    python -m repro recovery --workloads daxpy --stride 4
    python -m repro npb cg --profile-db cg.profile.db
    python -m repro warm --workloads daxpy cg
    python -m repro overload --workloads daxpy --seed 3 --runs 2
    python -m repro daxpy --trace-cache-budget 96 --overload-seed 7
"""

from __future__ import annotations

import argparse
import os
import sys

import json

from dataclasses import replace

from .analysis import format_table1
from .bench import (
    BENCH_STRATEGIES,
    FULL_BENCHMARKS,
    compare_reports,
    format_report,
    run_bench,
)
from .config import (
    FaultConfig,
    GovernorConfig,
    OverloadConfig,
    PersistConfig,
    ProfileDBConfig,
    itanium2_smp,
    sgi_altix,
)
from .core import STRATEGIES, run_with_cobra
from .faults import CHAOS_STRATEGIES, ChaosHarness
from .cpu import Machine
from .isa import Op, disassemble
from .persist import FileDisk, recover
from .validate import (
    VALIDATE_MODES,
    DifferentialHarness,
    RecoveryHarness,
    check_image,
    daxpy_spec,
    default_machines,
    npb_spec,
)
from .workloads import BENCHMARKS, build_daxpy, verify_daxpy, working_set_elems

__all__ = ["main"]

MACHINES = {
    "smp4": (lambda scale: itanium2_smp(4, scale=scale), 4),
    "altix8": (lambda scale: sgi_altix(8, scale=scale), 8),
}


# Strategy names accepted at the CLI.  "baseline" (and its harness alias
# "none") run the raw simulator; the rest come from the COBRA policy.
CLI_STRATEGIES = ("baseline",) + STRATEGIES


def _bad_strategy(name: str, valid: tuple[str, ...]) -> int:
    """One-line diagnostic for an unknown strategy name; exit code 2.

    Unknown names must be rejected here at the CLI boundary — letting
    them reach ``decide()`` surfaces a raw ValueError traceback.
    """
    print(
        f"repro: error: unknown strategy {name!r} "
        f"(choose from: {', '.join(valid)})",
        file=sys.stderr,
    )
    return 2


def _bad_jobs(jobs: int) -> int | None:
    """Exit code 2 for a non-positive --jobs, else None."""
    if jobs < 1:
        print(f"repro: error: --jobs must be >= 1, got {jobs}", file=sys.stderr)
        return 2
    return None


def _machine(args) -> tuple[Machine, int]:
    factory, default_threads = MACHINES[args.machine]
    machine = Machine(factory(args.scale))
    threads = args.threads or default_threads
    return machine, threads


def _run_config(args, machine: Machine, meta: dict):
    """COBRA config carrying the CLI's store attachments, or ``None``.

    ``meta`` is the workload descriptor journaled into the checkpoint
    store so that ``repro resume`` can rebuild the same machine and
    program without any side-channel file.  ``--profile-db`` rides on
    the same config: unlike the checkpoint store it survives across
    runs, so the second invocation of the same workload warm-starts.
    """
    config = None
    if args.checkpoint_dir:
        persist = PersistConfig(directory=args.checkpoint_dir, meta=meta)
        config = replace(machine.config.cobra, persist=persist)
    if getattr(args, "profile_db", None):
        config = replace(
            config or machine.config.cobra,
            profile_db=ProfileDBConfig(path=args.profile_db),
        )
    budget = getattr(args, "trace_cache_budget", None)
    overload_seed = getattr(args, "overload_seed", None)
    if budget is not None or overload_seed is not None:
        # --overload-seed arms the full mixed schedule (cf. the fleet
        # --fault-seed flag): every overload category at a moderate
        # rate, capped so the run can demonstrate recovery
        overload = (
            None
            if overload_seed is None
            else OverloadConfig(
                seed=overload_seed,
                shrink_rate=0.15, flood_rate=0.15,
                disk_rate=0.15, storm_rate=0.15,
                max_events=8,
            )
        )
        config = replace(
            config or machine.config.cobra,
            governor=GovernorConfig(
                trace_cache_budget=budget, overload=overload
            ),
        )
    return config


def _bad_profile_db(args) -> int | None:
    """Exit code 2 for a malformed --profile-db, else None.

    Same boundary contract as the REPRO_* env checks: one-line
    diagnostic before any simulation work starts.
    """
    path = getattr(args, "profile_db", None)
    if not path:
        return None
    if args.strategy == "baseline":
        print(
            "repro: error: --profile-db requires a COBRA strategy "
            "(the baseline collects no profile)",
            file=sys.stderr,
        )
        return 2
    if os.path.isdir(path):
        print(
            f"repro: error: --profile-db must name a database file, "
            f"got directory {path!r}",
            file=sys.stderr,
        )
        return 2
    return None


def _bad_governor(args) -> int | None:
    """Exit code 2 for malformed governor knobs, else None."""
    budget = getattr(args, "trace_cache_budget", None)
    seed = getattr(args, "overload_seed", None)
    if budget is None and seed is None:
        return None
    if args.strategy == "baseline":
        print(
            "repro: error: --trace-cache-budget/--overload-seed require a "
            "COBRA strategy (the baseline has no runtime to govern)",
            file=sys.stderr,
        )
        return 2
    if budget is not None and budget < 1:
        print(
            f"repro: error: --trace-cache-budget must be >= 1, got {budget}",
            file=sys.stderr,
        )
        return 2
    if seed is not None and seed < 0:
        print(
            f"repro: error: --overload-seed must be >= 0, got {seed}",
            file=sys.stderr,
        )
        return 2
    return None


def _report_run(result, report, verified: bool | None) -> int:
    print(f"cycles:          {result.cycles}")
    print(f"retired:         {result.retired}")
    print(f"L3 misses:       {result.events.l3_misses}")
    print(f"bus txns:        {result.events.bus_memory}")
    print(f"coherent ratio:  {result.events.coherent_ratio():.2f}")
    if verified is not None:
        print(f"verified:        {verified}")
    if report is not None:
        print(report.summary())
    return 0 if verified in (True, None) else 1


def _cmd_daxpy(args) -> int:
    if args.strategy not in CLI_STRATEGIES:
        return _bad_strategy(args.strategy, CLI_STRATEGIES)
    if args.checkpoint_dir and args.strategy == "baseline":
        print(
            "repro: error: --checkpoint-dir requires a COBRA strategy "
            "(the baseline has no runtime state to checkpoint)",
            file=sys.stderr,
        )
        return 2
    bad = _bad_profile_db(args)
    if bad is None:
        bad = _bad_governor(args)
    if bad is not None:
        return bad
    machine, threads = _machine(args)
    n = working_set_elems(args.working_set, machine.config.scale)
    prog = build_daxpy(machine, n, threads, outer_reps=args.reps)
    if args.strategy == "baseline":
        result, report = prog.run(), None
    else:
        config = _run_config(args, machine, {
            "cmd": "daxpy", "machine": args.machine, "threads": threads,
            "scale": args.scale, "working_set": args.working_set,
            "reps": args.reps, "strategy": args.strategy,
        })
        result, report = run_with_cobra(prog, args.strategy, config=config)
    return _report_run(result, report, verify_daxpy(prog, args.reps))


def _cmd_npb(args) -> int:
    if args.strategy not in CLI_STRATEGIES:
        return _bad_strategy(args.strategy, CLI_STRATEGIES)
    if args.checkpoint_dir and args.strategy == "baseline":
        print(
            "repro: error: --checkpoint-dir requires a COBRA strategy "
            "(the baseline has no runtime state to checkpoint)",
            file=sys.stderr,
        )
        return 2
    bad = _bad_profile_db(args)
    if bad is None:
        bad = _bad_governor(args)
    if bad is not None:
        return bad
    bench = BENCHMARKS[args.benchmark]
    machine, threads = _machine(args)
    reps = args.reps or bench.default_reps
    prog = bench.build(machine, threads, reps=reps)
    if args.strategy == "baseline":
        result, report = prog.run(), None
    else:
        config = _run_config(args, machine, {
            "cmd": "npb", "benchmark": args.benchmark, "machine": args.machine,
            "threads": threads, "scale": args.scale, "reps": reps,
            "strategy": args.strategy,
        })
        result, report = run_with_cobra(prog, args.strategy, config=config)
    return _report_run(result, report, bench.verify(prog, reps))


def _cmd_resume(args) -> int:
    """Warm-restart a checkpointed run from its workload descriptor."""
    if not os.path.isdir(args.checkpoint_dir):
        print(
            f"repro: error: no checkpoint directory {args.checkpoint_dir!r}",
            file=sys.stderr,
        )
        return 2
    recovered = recover(FileDisk(args.checkpoint_dir))
    meta = recovered.meta
    if not meta:
        print(
            f"repro: error: no resumable checkpoint in {args.checkpoint_dir!r} "
            "(no workload descriptor recovered)",
            file=sys.stderr,
        )
        return 2
    mname = meta.get("machine", "smp4")
    if mname not in MACHINES:
        print(
            f"repro: error: checkpoint names unknown machine {mname!r}",
            file=sys.stderr,
        )
        return 2
    strategy = meta.get("strategy", "adaptive")
    if strategy not in STRATEGIES:
        return _bad_strategy(strategy, STRATEGIES)
    factory, default_threads = MACHINES[mname]
    machine = Machine(factory(int(meta.get("scale", 16))))
    threads = int(meta.get("threads") or default_threads)
    cmd = meta.get("cmd")
    if cmd == "daxpy":
        n = working_set_elems(meta.get("working_set", "128K"), machine.config.scale)
        reps = int(meta.get("reps", 20))
        prog = build_daxpy(machine, n, threads, outer_reps=reps)
        verified = lambda p: verify_daxpy(p, reps)  # noqa: E731
    elif cmd == "npb" and meta.get("benchmark") in BENCHMARKS:
        bench = BENCHMARKS[meta["benchmark"]]
        reps = int(meta.get("reps") or bench.default_reps)
        prog = bench.build(machine, threads, reps=reps)
        verified = lambda p: bench.verify(p, reps)  # noqa: E731
    else:
        print(
            f"repro: error: checkpoint descriptor names unknown workload {cmd!r}",
            file=sys.stderr,
        )
        return 2
    config = replace(
        machine.config.cobra,
        persist=PersistConfig(directory=args.checkpoint_dir, meta=meta),
    )
    result, report = run_with_cobra(prog, strategy, config=config)
    return _report_run(result, report, verified(prog))


def _cmd_table1(args) -> int:
    counts = {}
    for name, bench in BENCHMARKS.items():
        machine = Machine(itanium2_smp(4, scale=args.scale))
        prog = bench.build(machine, 4, reps=1)
        counts[name] = (
            prog.image.count_ops(Op.LFETCH),
            prog.image.count_ops(Op.BR_CTOP),
            prog.image.count_ops(Op.BR_CLOOP),
            prog.image.count_ops(Op.BR_WTOP),
        )
    print(format_table1(counts))
    return 0


def _cmd_disasm(args) -> int:
    if args.kernel == "daxpy":
        machine = Machine(itanium2_smp(4, scale=args.scale))
        prog = build_daxpy(machine, 2048, 4, outer_reps=1)
        region = prog.image.regions["daxpy"]
        print(disassemble(prog.image, *region))
        return 0
    bench = BENCHMARKS.get(args.kernel)
    if bench is None:
        print(f"unknown kernel {args.kernel!r}", file=sys.stderr)
        return 2
    machine = Machine(itanium2_smp(4, scale=args.scale))
    prog = bench.build(machine, 4, reps=1)
    print(disassemble(prog.image))
    return 0


def _cmd_validate(args) -> int:
    bad = _bad_jobs(args.jobs)
    if bad is not None:
        return bad
    strategies = None
    if args.strategies:
        valid = ("none",) + STRATEGIES
        for name in args.strategies:
            if name not in valid:
                return _bad_strategy(name, valid)
        # the harness needs the "none" reference run to diff against
        strategies = tuple(args.strategies)
        if "none" not in strategies:
            strategies = ("none",) + strategies
    failures = 0
    machines = default_machines(args.threads, scale=args.scale)
    for name in args.workloads:
        if name == "daxpy":
            spec = daxpy_spec(n_threads=args.threads, reps=args.reps)
        elif name in BENCHMARKS:
            spec = npb_spec(name, n_threads=args.threads, reps=args.reps)
        else:
            print(f"unknown workload {name!r}", file=sys.stderr)
            return 2
        harness = (
            DifferentialHarness(spec, machines, strategies=strategies, mode=args.mode)
            if strategies is not None
            else DifferentialHarness(spec, machines, mode=args.mode)
        )
        report = harness.run(jobs=args.jobs)
        print(report.summary())
        if not report.ok:
            failures += 1

        # ISA checks on the compiled image of this workload
        machine = Machine(itanium2_smp(max(4, args.threads), scale=args.scale))
        if name == "daxpy":
            prog = build_daxpy(machine, 256, args.threads, 1)
        else:
            prog = BENCHMARKS[name].build(machine, args.threads, reps=1)
        isa_violations = check_image(prog.image, mode="record")
        status = "OK" if not isa_violations else "FAIL"
        print(f"isa[{name}]: round-trip + patch/rollback over "
              f"{len(prog.image)} bundle(s), {status}")
        for violation in isa_violations:
            print(f"  VIOLATION: {violation}")
            failures += 1
    print("validate:", "OK" if failures == 0 else f"{failures} failure(s)")
    return 0 if failures == 0 else 1


def _cmd_chaos(args) -> int:
    bad = _bad_jobs(args.jobs)
    if bad is not None:
        return bad
    strategies = CHAOS_STRATEGIES
    if args.strategies:
        for name in args.strategies:
            if name not in STRATEGIES:
                return _bad_strategy(name, STRATEGIES)
        strategies = tuple(args.strategies)
    try:
        fault_config = FaultConfig(
            sample_rate=args.sample_rate,
            patch_rate=args.patch_rate,
            loop_rate=args.loop_rate,
        )
    except ValueError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    seeds = tuple(range(args.seed, args.seed + args.runs))
    machines = default_machines(args.threads, scale=args.scale)
    failures = 0
    for name in args.workloads:
        if name == "daxpy":
            spec = daxpy_spec(n_threads=args.threads, reps=args.reps)
        elif name in BENCHMARKS:
            spec = npb_spec(name, n_threads=args.threads, reps=args.reps)
        else:
            print(f"unknown workload {name!r}", file=sys.stderr)
            return 2
        harness = ChaosHarness(
            spec, machines, strategies=strategies, seeds=seeds,
            fault_config=fault_config,
        )
        report = harness.run(jobs=args.jobs)
        print(report.summary())
        if not report.ok:
            failures += 1
    print("chaos:", "OK" if failures == 0 else f"{failures} failure(s)")
    return 0 if failures == 0 else 1


def _cmd_overload(args) -> int:
    # deferred: the governor package pulls in the whole runtime stack
    from .governor import OVERLOAD_SCHEDULES, OverloadHarness

    bad = _bad_jobs(args.jobs)
    if bad is not None:
        return bad
    if args.seed < 0:
        print(f"repro: error: --seed must be >= 0, got {args.seed}", file=sys.stderr)
        return 2
    if args.runs < 1:
        print(f"repro: error: --runs must be >= 1, got {args.runs}", file=sys.stderr)
        return 2
    schedules = None
    if args.schedules:
        for name in args.schedules:
            if name not in OVERLOAD_SCHEDULES:
                print(
                    f"repro: error: unknown schedule {name!r} "
                    f"(choose from: {', '.join(sorted(OVERLOAD_SCHEDULES))})",
                    file=sys.stderr,
                )
                return 2
        schedules = {name: OVERLOAD_SCHEDULES[name] for name in args.schedules}
    seeds = tuple(range(args.seed, args.seed + args.runs))
    machines = default_machines(args.threads, scale=args.scale)
    failures = 0
    for name in args.workloads:
        if name == "daxpy":
            spec = daxpy_spec(n_threads=args.threads, reps=args.reps)
        elif name in BENCHMARKS:
            spec = npb_spec(name, n_threads=args.threads, reps=args.reps)
        else:
            print(f"unknown workload {name!r}", file=sys.stderr)
            return 2
        harness = OverloadHarness(
            spec, machines, schedules=schedules, seeds=seeds
        )
        report = harness.run(jobs=args.jobs)
        print(report.summary())
        if not report.ok:
            failures += 1
    print("overload:", "OK" if failures == 0 else f"{failures} failure(s)")
    return 0 if failures == 0 else 1


def _cmd_recovery(args) -> int:
    bad = _bad_jobs(args.jobs)
    if bad is not None:
        return bad
    if args.strategy not in STRATEGIES:
        return _bad_strategy(args.strategy, STRATEGIES)
    if args.stride < 1:
        print(
            f"repro: error: --stride must be >= 1, got {args.stride}",
            file=sys.stderr,
        )
        return 2
    if args.torn_bytes < 0:
        print(
            f"repro: error: --torn-bytes must be >= 0, got {args.torn_bytes}",
            file=sys.stderr,
        )
        return 2
    torn_modes = (None, args.torn_bytes) if args.torn_bytes else (None,)
    # small-scale machines: the sweep workloads must actually cross the
    # deployment threshold, or the sweep never replays a transaction
    machines = default_machines(args.threads, scale=4)
    failures = 0
    ledgers = []
    for name in args.workloads:
        if name == "daxpy":
            spec = daxpy_spec(n_elems=2048, n_threads=args.threads, reps=args.reps)
        elif name in BENCHMARKS:
            spec = npb_spec(name, n_threads=args.threads, reps=args.reps or None)
        else:
            print(f"unknown workload {name!r}", file=sys.stderr)
            return 2
        harness = RecoveryHarness(
            spec, machines, strategy=args.strategy, stride=args.stride,
            torn_modes=torn_modes,
        )
        report = harness.run(jobs=args.jobs)
        print(report.summary())
        ledgers.append(report.to_json())
        if not report.ok:
            failures += 1
    if args.ledger_out:
        with open(args.ledger_out, "w", encoding="utf-8") as fh:
            json.dump({"reports": ledgers}, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.ledger_out}")
    print("recovery:", "OK" if failures == 0 else f"{failures} failure(s)")
    return 0 if failures == 0 else 1


def _cmd_fuzz(args) -> int:
    # deferred: the fuzz package pulls in the whole runtime stack
    from .fuzz import DifferentialFuzzer, shrink
    from .fuzz.report import repro_command

    bad = _bad_jobs(args.jobs)
    if bad is not None:
        return bad
    if args.fault_seed is not None and args.replay is None:
        print(
            "repro: error: --fault-seed requires --replay "
            "(outside a replay the generator draws the fault seed)",
            file=sys.stderr,
        )
        return 2
    if args.fault_seed is not None and args.fault_seed < 0:
        print(
            f"repro: error: --fault-seed must be >= 0, got {args.fault_seed}",
            file=sys.stderr,
        )
        return 2
    if args.seeds < 1:
        print(f"repro: error: --seeds must be >= 1, got {args.seeds}", file=sys.stderr)
        return 2

    if args.replay is not None:
        fuzzer = DifferentialFuzzer(
            seeds=[args.replay], fault_seed=args.fault_seed
        )
    elif args.corpus:
        try:
            with open(args.corpus, encoding="utf-8") as fh:
                corpus = json.load(fh)
            pairs = [
                (int(entry["seed"]), int(entry["fault_seed"]))
                for entry in corpus["entries"]
            ]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            print(f"repro: error: bad corpus {args.corpus!r}: {exc}", file=sys.stderr)
            return 2
        fuzzer = DifferentialFuzzer(pairs=pairs)
    else:
        fuzzer = DifferentialFuzzer(seeds=range(args.start, args.start + args.seeds))

    report = fuzzer.run(jobs=args.jobs)
    print(report.summary(verbose=args.verbose))

    if not report.ok and args.shrink:
        shrunk = 0
        for result in report.results:
            if result.ok or shrunk >= args.max_shrinks:
                continue
            shrunk += 1
            outcome = shrink(result.params)
            print(f"shrink[seed={result.params.seed}]: {outcome.summary()}")
            print(
                "  replay: "
                + repro_command(outcome.params.seed, outcome.params.fault_seed)
            )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out}")
    return 0 if report.ok else 1


def _cmd_bench(args) -> int:
    bad = _bad_jobs(args.jobs)
    if bad is not None:
        return bad
    for name in args.strategies or ():
        if name not in BENCH_STRATEGIES:
            return _bad_strategy(name, BENCH_STRATEGIES)
    for name in args.benchmarks or ():
        if name not in FULL_BENCHMARKS:
            print(
                f"repro: error: unknown benchmark {name!r} "
                f"(choose from: {', '.join(FULL_BENCHMARKS)})",
                file=sys.stderr,
            )
            return 2
    baseline = None
    if args.compare:
        if not os.path.isfile(args.compare):
            print(
                f"repro: error: no baseline report {args.compare!r}",
                file=sys.stderr,
            )
            return 2
        with open(args.compare, encoding="utf-8") as fh:
            baseline = json.load(fh)
    report = run_bench(
        benchmarks=args.benchmarks or None,
        machines=args.machines or None,
        strategies=tuple(args.strategies) if args.strategies else None,
        samples=args.samples,
        quick=args.quick,
        jobs=args.jobs,
    )
    print(format_report(report))
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")
    if baseline is not None:
        lines, ok = compare_reports(baseline, report, threshold=args.threshold)
        print(f"compare vs {args.compare} (threshold {args.threshold:.0%}):")
        for line in lines:
            print(f"  {line}")
        if not ok:
            print("bench compare: FAIL")
            return 1
        print("bench compare: OK")
    return 0


def _cmd_warm(args) -> int:
    from .bench import FULL_BENCHMARKS as WARM_BENCHMARKS
    from .bench import run_warm_case

    if args.strategy not in STRATEGIES:
        return _bad_strategy(args.strategy, STRATEGIES)
    if args.min_reduction < 0 or args.min_reduction > 100:
        print(
            f"repro: error: --min-reduction must be in [0, 100], "
            f"got {args.min_reduction}",
            file=sys.stderr,
        )
        return 2
    if args.optimize_interval < 1:
        print(
            f"repro: error: --optimize-interval must be >= 1, "
            f"got {args.optimize_interval}",
            file=sys.stderr,
        )
        return 2
    for name in args.workloads:
        if name not in WARM_BENCHMARKS:
            print(
                f"repro: error: unknown benchmark {name!r} "
                f"(choose from: {', '.join(WARM_BENCHMARKS)})",
                file=sys.stderr,
            )
            return 2
    header = (
        f"{'case':<28} {'cold ramp':>10} {'warm ramp':>10} "
        f"{'saved':>7} {'digests':>8} {'seeded':>7}"
    )
    print(header)
    print("-" * len(header))
    failures = 0
    for name in args.workloads:
        row = run_warm_case(
            name, args.machine, args.strategy,
            optimize_interval=args.optimize_interval,
        )
        ok = (
            row["digests_match"]
            and row["warm_seeded"]
            and row["ramp_reduction_pct"] >= args.min_reduction
        )
        if not ok:
            failures += 1
        print(
            f"{row['id']:<28} {row['cold']['ramp_retired']:>10} "
            f"{row['warm']['ramp_retired']:>10} "
            f"{row['ramp_reduction_pct']:>6.1f}% "
            f"{'match' if row['digests_match'] else 'DIFFER':>8} "
            f"{'yes' if row['warm_seeded'] else 'NO':>7}"
        )
    print(
        "warm:",
        "OK" if failures == 0 else f"{failures} failure(s) "
        f"(need >= {args.min_reduction:.0f}% ramp reduction, matching "
        "digests, and a seeded warm run)",
    )
    return 0 if failures == 0 else 1


def _cmd_fleet(args) -> int:
    # deferred: the fleet package pulls in the whole runtime stack
    from .config import FleetFaultConfig
    from .errors import FleetError
    from .fleet import FleetHarness
    from .validate import MachineRecipe

    bad = _bad_jobs(args.jobs)
    if bad is not None:
        return bad
    if args.instances < 1:
        print(
            f"repro: error: --instances must be >= 1, got {args.instances}",
            file=sys.stderr,
        )
        return 2
    if args.quorum < 0:
        print(
            f"repro: error: --quorum must be >= 0 (0 = auto), got {args.quorum}",
            file=sys.stderr,
        )
        return 2
    quorum = args.quorum or None
    if quorum is None:
        env = os.environ.get("REPRO_FLEET_QUORUM", "").strip()
        if env:
            quorum = int(env)  # pre-validated by _validate_env
    if quorum is not None and quorum > args.instances:
        print(
            f"repro: error: quorum {quorum} exceeds --instances {args.instances}",
            file=sys.stderr,
        )
        return 2
    if args.fault_seed is not None and args.fault_seed < 0:
        print(
            f"repro: error: --fault-seed must be >= 0, got {args.fault_seed}",
            file=sys.stderr,
        )
        return 2
    if args.flush_interval < 1:
        print(
            f"repro: error: --flush-interval must be >= 1, "
            f"got {args.flush_interval}",
            file=sys.stderr,
        )
        return 2
    if args.workload == "daxpy":
        spec = daxpy_spec(n_elems=2048, n_threads=args.threads, reps=args.reps)
    elif args.workload in BENCHMARKS:
        spec = npb_spec(args.workload, n_threads=args.threads, reps=args.reps)
    else:
        print(
            f"repro: error: unknown workload {args.workload!r}", file=sys.stderr
        )
        return 2
    faults = None
    if args.fault_seed is not None:
        # the full hostile schedule: frame faults of every kind, network
        # partitions, and one daemon crash mid-ingest
        faults = FleetFaultConfig(
            seed=args.fault_seed,
            frame_rate=0.2,
            partition_rate=0.15,
            daemon_crash_batch=5,
        )
    try:
        harness = FleetHarness(
            workload=spec,
            # small-scale machine so instances cross the deployment
            # threshold (cf. the recovery sweep)
            machine=MachineRecipe("smp", max(4, args.threads), 4),
            instances=args.instances,
            quorum=quorum,
            faults=faults,
            flush_interval=args.flush_interval,
        )
    except FleetError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    report = harness.run(jobs=args.jobs)
    print(report.summary())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
            fh.write("\n")
        print(f"wrote {args.out}")
    return 0 if report.ok else 1


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="COBRA reproduction: run workloads under the runtime optimizer",
    )
    parser.add_argument("--scale", type=int, default=16, help="cache scale factor")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--machine", choices=sorted(MACHINES), default="smp4")
    common.add_argument("--threads", type=int, default=0, help="0 = machine default")
    # validated in the command handlers (one-line error, exit code 2)
    # rather than by argparse, so library strategy additions and the
    # error format stay in one place
    common.add_argument(
        "--strategy",
        metavar="{" + ",".join(CLI_STRATEGIES) + "}",
        default="adaptive",
    )
    common.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="persist a crash-consistent checkpoint store (journal + "
        "snapshots) in DIR; continue it later with 'repro resume'",
    )
    common.add_argument(
        "--profile-db", default=None, metavar="PATH",
        help="accumulate miss profiles and proven patch decisions in a "
        "cross-run database file at PATH; a later run of the same binary "
        "on the same machine config warm-starts from it",
    )
    common.add_argument(
        "--trace-cache-budget", type=int, default=None, metavar="N",
        help="arm the resource governor with a hard cap of N trace-cache "
        "bundles; cold inactive traces are evicted first, then further "
        "deployments are refused (accounted, never fatal)",
    )
    common.add_argument(
        "--overload-seed", type=int, default=None, metavar="SEED",
        help="attack the run with a seeded overload schedule (budget "
        "shrinks, sample floods, slow disk, ingest storms); outputs must "
        "stay bit-identical while the degradation ladder sheds load",
    )

    daxpy = sub.add_parser("daxpy", parents=[common], help="run the OpenMP DAXPY kernel")
    daxpy.add_argument("--working-set", choices=("128K", "512K", "2M"), default="128K")
    daxpy.add_argument("--reps", type=int, default=20)
    daxpy.set_defaults(func=_cmd_daxpy)

    npb = sub.add_parser("npb", parents=[common], help="run one NPB-like benchmark")
    npb.add_argument("benchmark", choices=sorted(BENCHMARKS))
    npb.add_argument("--reps", type=int, default=0, help="0 = benchmark default")
    npb.set_defaults(func=_cmd_npb)

    table1 = sub.add_parser("table1", help="print Table 1 (static counts)")
    table1.set_defaults(func=_cmd_table1)

    disasm = sub.add_parser("disasm", help="disassemble a compiled kernel")
    disasm.add_argument("kernel", help="'daxpy' or an NPB benchmark name")
    disasm.set_defaults(func=_cmd_disasm)

    validate = sub.add_parser(
        "validate",
        help="run the correctness suite: coherence invariants, "
        "differential (optimized vs baseline) bit-equality, ISA round-trips",
    )
    validate.add_argument(
        "--workloads", nargs="+", default=["daxpy", "cg", "mg"],
        help="'daxpy' and/or NPB benchmark names",
    )
    validate.add_argument("--threads", type=int, default=4)
    validate.add_argument(
        "--reps", type=int, default=2, help="outer repetitions per run"
    )
    validate.add_argument(
        "--mode", choices=("strict", "record"), default="record",
        help="strict raises on the first violation; record reports all",
    )
    validate.add_argument(
        "--strategies", nargs="+", default=None, metavar="STRATEGY",
        help="strategy matrix for the differential harness "
        "(default: none + all policies; 'none' is added if omitted)",
    )
    validate.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="fan scenario cells over N worker processes "
        "(reports are byte-identical at any N)",
    )
    validate.set_defaults(func=_cmd_validate)

    chaos = sub.add_parser(
        "chaos",
        help="run seeded fault-injection sweeps: under any fault schedule, "
        "program outputs must stay bit-identical to the fault-free run "
        "and every injected fault must be accounted in the ledger",
    )
    chaos.add_argument(
        "--workloads", nargs="+", default=["daxpy", "cg"],
        help="'daxpy' and/or NPB benchmark names",
    )
    chaos.add_argument("--seed", type=int, default=0, help="first PRNG seed")
    chaos.add_argument(
        "--runs", type=int, default=2,
        help="fault schedules per (machine, strategy) cell: seeds seed..seed+runs-1",
    )
    chaos.add_argument("--threads", type=int, default=4)
    chaos.add_argument(
        "--reps", type=int, default=4, help="outer repetitions per run"
    )
    chaos.add_argument(
        "--strategies", nargs="+", default=None, metavar="STRATEGY",
        help=f"COBRA strategies to fault (default: {' '.join(CHAOS_STRATEGIES)})",
    )
    chaos.add_argument(
        "--sample-rate", type=float, default=0.1,
        help="per-sample fault probability at the HPM surface",
    )
    chaos.add_argument(
        "--patch-rate", type=float, default=0.5,
        help="per-deployment fault probability at the trace-cache surface",
    )
    chaos.add_argument(
        "--loop-rate", type=float, default=0.2,
        help="per-wake fault probability at the monitor/optimizer surface",
    )
    chaos.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="fan scenario cells over N worker processes "
        "(reports are byte-identical at any N)",
    )
    chaos.set_defaults(func=_cmd_chaos)

    overload = sub.add_parser(
        "overload",
        help="run seeded overload sweeps: under shrinking budgets, sample "
        "floods, slow disks, and ingest storms the degradation ladder may "
        "only shed optimization work — outputs must stay bit-identical to "
        "the clean run and every shed item must be accounted",
    )
    overload.add_argument(
        "--workloads", nargs="+", default=["daxpy", "cg"],
        help="'daxpy' and/or NPB benchmark names",
    )
    overload.add_argument("--seed", type=int, default=0, help="first PRNG seed")
    overload.add_argument(
        "--runs", type=int, default=2,
        help="overload schedules per (machine, schedule) cell: "
        "seeds seed..seed+runs-1",
    )
    overload.add_argument("--threads", type=int, default=4)
    overload.add_argument(
        "--reps", type=int, default=4, help="outer repetitions per run"
    )
    overload.add_argument(
        "--schedules", nargs="+", default=None, metavar="SCHEDULE",
        help="named overload presets to sweep "
        "(default: shrink flood storm everything)",
    )
    overload.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="fan scenario cells over N worker processes "
        "(reports are byte-identical at any N)",
    )
    overload.set_defaults(func=_cmd_overload)

    resume = sub.add_parser(
        "resume",
        help="warm-restart a checkpointed run: recover the store, re-deploy "
        "previously proven optimizations, and continue the workload",
    )
    resume.add_argument(
        "--checkpoint-dir", required=True, metavar="DIR",
        help="directory written by a previous run's --checkpoint-dir",
    )
    resume.set_defaults(func=_cmd_resume)

    recovery = sub.add_parser(
        "recovery",
        help="crash-recovery sweep: kill the run at durable checkpoint "
        "writes (incl. mid-write tears), restart from the surviving store, "
        "and require outputs bit-identical to an uninterrupted run",
    )
    recovery.add_argument(
        "--workloads", nargs="+", default=["daxpy"],
        help="'daxpy' and/or NPB benchmark names",
    )
    recovery.add_argument("--threads", type=int, default=4)
    recovery.add_argument(
        "--reps", type=int, default=14,
        help="outer repetitions per run (enough for a deployment)",
    )
    recovery.add_argument(
        "--stride", type=int, default=4,
        help="crash at every stride-th durable write (1 = every write)",
    )
    recovery.add_argument(
        "--torn-bytes", type=int, default=7,
        help="also crash mid-write leaving this many durable bytes "
        "(0 = clean boundary kills only)",
    )
    recovery.add_argument(
        "--strategy", default="noprefetch", metavar="STRATEGY",
        help="COBRA strategy to run under the sweep",
    )
    recovery.add_argument(
        "--ledger-out", default=None, metavar="PATH",
        help="write the sweep's JSON ledger (cells, digests, failures) here",
    )
    recovery.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="fan crash cells over N worker processes "
        "(reports are byte-identical at any N)",
    )
    recovery.set_defaults(func=_cmd_recovery)

    fuzz = sub.add_parser(
        "fuzz",
        help="differential fuzzing: run seeded generated kernels across "
        "every must-agree axis (adaptive/none, JIT on/off, OSR on/off, "
        "faulted/clean, checkpoint-resume/straight) and report "
        "bit-equality divergences",
    )
    fuzz.add_argument(
        "--seeds", type=int, default=25, metavar="N",
        help="number of generator seeds to sweep (seeds start..start+N-1)",
    )
    fuzz.add_argument(
        "--start", type=int, default=0, metavar="SEED",
        help="first generator seed of the sweep",
    )
    fuzz.add_argument(
        "--replay", type=int, default=None, metavar="SEED",
        help="re-run exactly one generator seed (pair with --fault-seed "
        "to replay a reported divergence)",
    )
    fuzz.add_argument(
        "--fault-seed", type=int, default=None, metavar="SEED",
        help="override the fault schedule seed (only with --replay)",
    )
    fuzz.add_argument(
        "--corpus", default=None, metavar="PATH",
        help="run the (seed, fault_seed) pairs of a corpus JSON file "
        "instead of a seed range",
    )
    fuzz.add_argument(
        "--shrink", action=argparse.BooleanOptionalAction, default=True,
        help="minimize diverging scenarios toward the smallest failing kernel",
    )
    fuzz.add_argument(
        "--max-shrinks", type=int, default=3, metavar="N",
        help="shrink at most N diverging scenarios (each shrink re-runs "
        "the axis sweep many times)",
    )
    fuzz.add_argument(
        "--verbose", action=argparse.BooleanOptionalAction, default=True,
        help="print one line per scenario (divergences always print)",
    )
    fuzz.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the full JSON report here",
    )
    fuzz.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="fan scenarios over N worker processes "
        "(reports are byte-identical at any N)",
    )
    fuzz.set_defaults(func=_cmd_fuzz)

    bench = sub.add_parser(
        "bench",
        help="time the simulator hot path and write BENCH_perf.json",
    )
    bench.add_argument(
        "--quick", action="store_true",
        help="small matrix (daxpy+cg on smp4, 2 samples by default) for CI "
        "smoke runs",
    )
    bench.add_argument(
        "--out", default="BENCH_perf.json", help="output JSON path"
    )
    bench.add_argument(
        "--samples", type=int, default=None,
        help="timing samples per case (median is reported; default 3, "
        "2 with --quick)",
    )
    bench.add_argument(
        "--benchmarks", nargs="+", default=None, metavar="BENCH",
        help="subset of daxpy/cg/mg",
    )
    bench.add_argument(
        "--machines", nargs="+", default=None, metavar="MACHINE",
        choices=sorted(MACHINES), help="subset of machine models",
    )
    bench.add_argument(
        "--strategies", nargs="+", default=None, metavar="STRATEGY",
        help="subset of none/noprefetch/excl/adaptive",
    )
    bench.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="time cases in N worker processes (digests/counters stay "
        "byte-identical; co-scheduled walls contend, use jobs=1 for "
        "committed baselines)",
    )
    bench.add_argument(
        "--compare", default=None, metavar="BASELINE",
        help="diff against a committed BENCH_perf.json; exit non-zero on "
        "wall-clock regression beyond --threshold or any digest change",
    )
    bench.add_argument(
        "--threshold", type=float, default=0.15, metavar="FRAC",
        help="fractional wall-clock regression tolerance for --compare",
    )
    bench.set_defaults(func=_cmd_bench)

    warm = sub.add_parser(
        "warm",
        help="profile-database smoke: run each workload twice against a "
        "fresh in-memory database and require the warm run to cut the "
        "profiling ramp with bit-identical outputs",
    )
    warm.add_argument(
        "--workloads", nargs="+", default=["daxpy", "cg"],
        help="benchmark names (daxpy/cg/mg)",
    )
    warm.add_argument("--machine", choices=sorted(MACHINES), default="smp4")
    warm.add_argument(
        "--strategy", default="adaptive", metavar="STRATEGY",
        help="COBRA strategy for both runs",
    )
    warm.add_argument(
        "--min-reduction", type=float, default=90.0, metavar="PCT",
        help="fail unless the warm run cuts the profiling ramp by at "
        "least PCT percent",
    )
    warm.add_argument(
        "--optimize-interval", type=int, default=10_000, metavar="N",
        help="optimizer wake interval (retired instructions) for both runs",
    )
    warm.set_defaults(func=_cmd_warm)

    fleet = sub.add_parser(
        "fleet",
        help="fleet control plane: run N instances against one "
        "optimization daemon over a fault-injectable transport and "
        "require solo-identical outputs, quorum-gated decision reuse, "
        "and a fully accounted fault ledger",
    )
    fleet.add_argument(
        "--instances", type=int, default=8, metavar="N",
        help="fleet size: first half runs cold, second half is "
        "dispatched warm with the daemon's published decisions",
    )
    fleet.add_argument(
        "--quorum", type=int, default=0, metavar="Q",
        help="independent instances required before a decision is "
        "published (0 = REPRO_FLEET_QUORUM or min(2, cold count))",
    )
    fleet.add_argument(
        "--fault-seed", type=int, default=None, metavar="SEED",
        help="attack the transport with this seed (frame drop/dup/"
        "reorder/delay/corrupt/poison, partitions, one daemon crash); "
        "omit for a clean transport",
    )
    fleet.add_argument(
        "--workload", default="daxpy",
        help="'daxpy' or an NPB benchmark name",
    )
    fleet.add_argument("--threads", type=int, default=4)
    fleet.add_argument(
        "--reps", type=int, default=12,
        help="outer repetitions per instance (enough for a deployment)",
    )
    fleet.add_argument(
        "--flush-interval", type=int, default=1, metavar="K",
        help="queue one telemetry batch every K optimizer wakes",
    )
    fleet.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the fleet report JSON here",
    )
    fleet.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="fan instances over N worker processes "
        "(reports are byte-identical at any N)",
    )
    fleet.set_defaults(func=_cmd_fleet)

    return parser


def _validate_env() -> str | None:
    """Reject malformed REPRO_* overrides before any work starts.

    The framework raises :class:`~repro.errors.CobraError` for these
    too, but mid-run and per-construction; catching them here keeps the
    CLI contract of one-line diagnostics and exit code 2.
    """
    env = os.environ.get("REPRO_FAULTS", "").strip()
    if env:
        try:
            seed = int(env)
        except ValueError:
            seed = -1
        if seed < 0:
            return f"REPRO_FAULTS must be a non-negative integer seed, got {env!r}"
    ckpt = os.environ.get("REPRO_CHECKPOINT", "").strip()
    if ckpt and os.path.exists(ckpt) and not os.path.isdir(ckpt):
        return f"REPRO_CHECKPOINT must name a checkpoint directory, got {ckpt!r}"
    validate = os.environ.get("REPRO_VALIDATE", "").strip()
    if validate and validate not in VALIDATE_MODES:
        return (
            f"REPRO_VALIDATE must be 'off', 'record' or 'strict', "
            f"got {validate!r}"
        )
    jit = os.environ.get("REPRO_TRACE_JIT", "").strip()
    if jit and jit not in ("0", "1", "osr-off"):
        return (
            f"REPRO_TRACE_JIT must be '0', '1' or 'osr-off', got {jit!r}"
        )
    gov = os.environ.get("REPRO_GOVERNOR", "").strip()
    if gov and gov not in ("0", "1"):
        return f"REPRO_GOVERNOR must be '0' or '1', got {gov!r}"
    db = os.environ.get("REPRO_PROFILE_DB", "").strip()
    if db and os.path.isdir(db):
        return (
            f"REPRO_PROFILE_DB must name a profile-database file, "
            f"got directory {db!r}"
        )
    quorum = os.environ.get("REPRO_FLEET_QUORUM", "").strip()
    if quorum:
        try:
            value = int(quorum)
        except ValueError:
            value = 0
        if value < 1:
            return (
                f"REPRO_FLEET_QUORUM must be a positive integer, got {quorum!r}"
            )
    return None


def main(argv: list[str] | None = None) -> int:
    error = _validate_env()
    if error is not None:
        print(f"repro: error: {error}", file=sys.stderr)
        return 2
    args = _parser().parse_args(argv)
    return args.func(args)
