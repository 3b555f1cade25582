#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload npb-paper --seed 1 --seconds 20 --trace 0

Run it from the repository root; it imports the simulator from ``src/``
and needs no install.  Each pass over the workload runs in a fresh,
single-threaded worker process (this script with ``--worker``), one at
a time, until ``--seconds`` have passed and at least three passes are
done.  ``--trace 0`` reports the end-to-end metrics: host times are
medians over the passes, each rescaled to a reference host speed by the
host-speed probes the pass took (``hostspeed.py``).  ``--trace 1``
alternates untraced and traced passes, ends with one pass that leaves
garbage collection to Python, and reports the per-layer metrics.
``--pin`` re-pins the simulated fingerprints into ``fingerprints.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import rescale
from layers import LAYER_SPANS, PER_LAYER

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
PINS = HERE / "fingerprints.json"
OUT = HERE / "out"
WORKLOAD_NAMES = ("npb-paper", "scenario-sweep", "readapt", "strict-check")
DEFAULT_SEED = 0
#: --pin pins scenario-sweep scenarios 0 .. 80 * this - 1
SWEEP_PIN_PASSES = 3
#: end-to-end metrics of an untraced run, with their units
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("cobra_speedup", "ratio"),
)
MIN_PASSES = 3
#: traced runs alternate untraced and traced passes, this many of each
MIN_TRACED = 2
PASS_TIMEOUT_S = 150


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pin", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--natural", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.workload is None and not args.pin:
        ap.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


# -- worker: one pass in a fresh process ----------------------------------------


def worker(args: argparse.Namespace) -> dict:
    """Import the simulator, run one pass, and describe it as a dict.

    With ``--setup-only`` stop once the first op's program is built."""
    sys.path[:0] = [str(SRC), str(HERE)]
    from hostspeed import Marks, probe

    probes: Marks = []
    probe(probes)
    t0 = time.perf_counter()
    import harness
    import workloads
    import_s = time.perf_counter() - t0
    modules = sum(1 for m in sys.modules if m == "repro" or m.startswith("repro."))
    if not args.natural:
        # The import-time heap lives as long as the process: freezing it
        # lets the per-op collection in run_pass skip it (README, peak_rss_mb).
        gc.collect()
        gc.freeze()

    ops = workloads.WORKLOADS[args.workload](args.seed)
    pins = json.loads(PINS.read_text())[args.workload]
    if args.setup_only:
        ops[0].build(ops[0].make_machine())
        built_at = time.perf_counter()
        probe(probes)
        return {"built_at": built_at, "probes": probes}
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    outcomes, wall = harness.run_pass(
        ops, pins, tracer, collect=not args.natural, probes=probes
    )
    report = {
        "built_at": outcomes[0].built_at,
        "import_s": import_s,
        "modules": modules,
        "pass_s": wall,
        "probes": probes,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": [
            {
                "name": o.name,
                "problems": o.problems,
                "fingerprint": workloads.fingerprint_hash(o.fingerprint),
            }
            for o in outcomes
        ],
        **harness.pass_summary(ops, outcomes),
    }
    if tracer is not None:
        report["times"], report["counts"] = harness.layer_metrics(tracer, outcomes)
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"{args.workload}-seed{args.seed}.npz")
    return report


# -- controller: passes, medians, checks -----------------------------------------


def run_worker(workload: str, seed: int, trace: int, *flags: str) -> dict:
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--worker",
        "--workload", workload, "--seed", str(seed), "--trace", str(trace), *flags,
    ]
    launched = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            stdout, _ = proc.communicate(timeout=PASS_TIMEOUT_S)
        except BaseException:
            proc.kill()  # leaving the with block waits for it
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} pass worker exited {proc.returncode}")
    report = json.loads(stdout.strip().splitlines()[-1])
    report["exited"] = time.perf_counter()
    report["wall_s"] = report["exited"] - launched
    report["setup_s"] = report["built_at"] - launched
    # host times rescaled to the reference host speed (hostspeed.py)
    report["scaled_wall_s"] = rescale(launched, report["exited"], report["probes"])
    report["scaled_setup_s"] = rescale(launched, report["built_at"], report["probes"])
    return report


def run_passes(args: argparse.Namespace) -> tuple[list[dict], list[dict], list[dict]]:
    """(untraced passes, traced passes, set-ups) for ``--seconds``.

    With ``--trace 0`` each pass is followed by a set-up-only worker, so
    ``setup_s`` has twice the samples; with ``--trace 1`` the last
    untraced pass is the natural-GC one."""
    plain: list[dict] = []
    traced: list[dict] = []
    setups: list[dict] = []
    start = time.perf_counter()
    while True:
        trace = int(args.trace and len(traced) < len(plain))
        (traced if trace else plain).append(run_worker(args.workload, args.seed, trace))
        if not args.trace:
            setups.append(run_worker(args.workload, args.seed, 0, "--setup-only"))
        enough = len(plain) >= (MIN_TRACED if args.trace else MIN_PASSES)
        if args.trace:
            enough = enough and len(traced) >= MIN_TRACED
        if enough and time.perf_counter() - start >= args.seconds:
            if args.trace:
                plain.append(run_worker(args.workload, args.seed, 0, "--natural"))
            return plain, traced, setups


def check(passes: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems): op failures and any drift in
    fingerprints or counts between passes of this one commit."""
    problems: list[str] = []
    attempted = failed = 0
    first_fp: dict[str, str] = {}
    for i, p in enumerate(passes):
        for op in p["ops"]:
            attempted += 1
            if op["problems"]:
                failed += 1
                problems += [f"{op['name']}: {msg}" for msg in op["problems"]]
            if first_fp.setdefault(op["name"], op["fingerprint"]) != op["fingerprint"]:
                problems.append(f"non-determinism: {op['name']} fingerprint drifted in pass {i}")
    for key in ("modules", "cobra_speedup", "ramp_cut_pct", "counts"):
        values = [json.dumps(p[key], sort_keys=True) for p in passes if key in p]
        if len(set(values)) > 1:
            problems.append(f"non-determinism: {key} differs between passes")
    return attempted, failed, problems


def median(passes: list[dict], key: str) -> float:
    return statistics.median(p[key] for p in passes)


def end_to_end(plain: list[dict], setups: list[dict]) -> dict[str, tuple[float, str]]:
    values = {
        "wall_s": median(plain, "scaled_wall_s"),
        "setup_s": median(plain + setups, "scaled_setup_s"),
    }
    probe_ms = [1e3 * x for p in plain for _, x in p["probes"]]
    print(
        f"host: {len(plain)} passes, unscaled wall_s {median(plain, 'wall_s'):.4f} "
        f"setup_s {median(plain + setups, 'setup_s'):.4f}, probe "
        f"{min(probe_ms):.2f}-{max(probe_ms):.2f} ms",
        file=sys.stderr,
    )
    values |= {
        "peak_rss_mb": median(plain, "rss_mb"),
        "cobra_speedup": plain[0]["cobra_speedup"],
    }
    return {name: (values[name], unit) for name, unit in END_TO_END}


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, tuple[float, str]]:
    *plain, natural = plain
    values = {name: statistics.median(p["times"][name] for p in traced)
              for name in traced[0]["times"]}
    values["host.natural_peak_rss_mb"] = natural["rss_mb"]
    values.update(traced[0]["counts"])
    values["sim_mips"] = median(plain, "sim_mips")
    values["import.s"] = median(plain + traced, "import_s")
    values["import.modules"] = traced[0]["modules"]
    values["persist.ramp_cut_pct"] = traced[0]["ramp_cut_pct"]
    values["trace.overhead_pct"] = 100.0 * (
        median(traced, "pass_s") / median(plain, "pass_s") - 1.0
    )
    return {name: (values[name], unit) for name, unit in PER_LAYER}


def print_shares(workload: str, traced: list[dict]) -> None:
    root = median(traced, "pass_s")
    print(f"{workload}: layer self time, median of {len(traced)} traced passes")
    rows = sorted(
        ((statistics.median(p["times"][m] for p in traced), m) for m in LAYER_SPANS),
        reverse=True,
    )
    for seconds, metric in rows:
        print(f"  {metric:28s} {seconds:9.3f} s {100.0 * seconds / root:6.1f} %")


def pin_all() -> None:
    """Record every op's fingerprint at the default seed."""
    sys.path[:0] = [str(SRC), str(HERE)]
    import harness
    import workloads

    pins = {}
    for name in WORKLOAD_NAMES:
        pins[name] = {}
        # the sweep pins more scenarios than one pass runs, so that runs
        # at other small seeds check their plain ops too
        for k in range(SWEEP_PIN_PASSES if name == "scenario-sweep" else 1):
            seed = DEFAULT_SEED + k * workloads.SWEEP_SCENARIOS
            outcomes, _ = harness.run_pass(workloads.WORKLOADS[name](seed), {})
            bad = [f"{o.name}: {o.problems}" for o in outcomes if o.problems]
            if bad:
                raise RuntimeError(f"{name} fails, not pinning: {bad}")
            pins[name].update(
                {o.name: workloads.fingerprint_hash(o.fingerprint) for o in outcomes}
            )
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: simulator source not found under {SRC}", file=sys.stderr)
        return 2
    if args.pin:
        pin_all()
        return 0
    if args.worker:
        print(json.dumps(worker(args)))
        return 0
    plain, traced, setups = run_passes(args)
    attempted, failed, problems = check(plain + traced)
    for msg in problems:
        print(f"FAIL {msg}", file=sys.stderr)
    if args.trace:
        print_shares(args.workload, traced)
        metrics = per_layer(plain, traced)
    else:
        metrics = end_to_end(plain, setups)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
