"""Seeded benchmark for ``pentachain``.

One workload, one seed (from the repository root):

    python3 benchmarks/run.py --workload invariant_large --seed 1 --seconds 36 --trace 0

prints one human-readable row, then as its last line a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` the per-layer metrics of a traced
replay.  It exits 1 if any output is wrong.

Without ``--workload`` it runs every workload, each in its own process, for
``--runs`` consecutive seeds, prints one row per run and, with ``--out``,
writes a results file that ``compare.py`` reads.

Load is a closed loop with one client in one thread and no think time: the
next op starts when the previous one returns.  Ops run in-process through
``pentachain.cli.main`` from this checkout's ``src/``.  A run does a fixed
number of ops, about ``--seconds`` of work at the reference speed, so the
same seed attempts the same ops, and fails the same ones, on every run.

Times are reported at a reference machine speed.  A fixed big-integer
``Fraction`` loop runs before every set-up, and before and after every
command.  A command's time is divided by the speed the loops on either
side of it measured (loop time over REF_NOMINAL_S); set-up times by the
median speed of the set-up phase.  On a shared host the same op's wall
time drifts by a third between minutes, and the loop follows much of that
drift.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import workloads
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

END_TO_END_UNITS = {"setup_s": "s", "op_p50_s": "s", "ok_ops_per_s": "1/s", "peak_rss_mb": "MB"}
SETUP_REPEATS = 9
P90_MIN_OPS = 100
# A run stops starting ops once its wall time passes this many times
# ``--seconds``, so a very slow host still ends in time.
DEADLINE_FACTOR = 1.4
# The reference loop takes REF_NOMINAL_S at the reference speed (about the
# 2-core x86_64 host the baseline was measured on).  Never change either
# constant: every reported time scales with them.
REF_STEPS = 700
REF_NOMINAL_S = 0.008


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio") or metric == "chain.density":
        return "ratio"
    if metric.endswith("_bits_max"):
        return "bits"
    return "count"


def use_checkout_source() -> None:
    """Import ``pentachain`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "pentachain" / "__init__.py").is_file():
        raise SystemExit(f"error: no pentachain source under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))


def fresh_setup(workload: str, seed: int):
    """Import the package afresh, validate every fixture, build the op stream."""
    for name in [m for m in sys.modules if m == "pentachain" or m.startswith("pentachain.")]:
        del sys.modules[name]
    pkg = importlib.import_module("pentachain")
    cli = importlib.import_module("pentachain.cli")
    if not Path(pkg.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: imported pentachain from {pkg.__file__}, not from {SRC}")
    fixtures = workloads.load_fixtures(pkg)
    return cli, workloads.make_ops(workload, seed, fixtures)


def reference_loop() -> float:
    """Wall time of a fixed big-integer ``Fraction`` computation."""
    start = time.perf_counter()
    x = Fraction(1, 3)
    for i in range(1, REF_STEPS):
        x = (x * Fraction(i, i + 7) + Fraction(1, i)) / 3
    return time.perf_counter() - start


def speed(refs: list[float]) -> float:
    """How much slower than the reference speed the machine ran (1 = equal)."""
    return statistics.median(refs) / REF_NOMINAL_S


def timed_setup(workload: str, seed: int, refs: list[float]):
    """Set up SETUP_REPEATS times; keep the last, return every set-up time."""
    times = []
    for _ in range(SETUP_REPEATS):
        refs.append(reference_loop())
        start = time.perf_counter()
        cli, ops = fresh_setup(workload, seed)
        times.append(time.perf_counter() - start)
    return cli, ops, times


@dataclass(frozen=True)
class Record:
    """One timed op: its commands, wall time, time at the reference speed
    and outcomes."""

    ops: tuple
    seconds: float
    scaled: float
    outcomes: tuple

    @property
    def status(self) -> str:
        kinds = {o.status for o in self.outcomes}
        if "wrong" in kinds:
            return "wrong"
        return "degenerate" if "degenerate" in kinds else "ok"

    @property
    def output(self) -> tuple:
        return tuple((o.code, o.stdout) for o in self.outcomes)


def run_unit(cli, unit, refs: list[float]) -> Record:
    """Run an op's commands between reference loops; time the commands.

    Each command's time is scaled by the speed of the loops just before and
    just after it.
    """
    seconds = scaled = 0.0
    outcomes = []
    before = reference_loop()
    refs.append(before)
    for op in unit:
        start = time.perf_counter()
        outcomes.append(workloads.run_op(cli, op))
        elapsed = time.perf_counter() - start
        after = reference_loop()
        refs.append(after)
        seconds += elapsed
        scaled += elapsed / speed([before, after])
        before = after
    return Record(unit, seconds, scaled, tuple(outcomes))


def measure(cli, units, count: int, deadline: float, refs: list[float]) -> list[Record]:
    """Closed loop over the first ``count`` items of the iterator ``units``.

    Stops early only once ``deadline`` wall seconds have passed; the op in
    flight then finishes.
    """
    records = []
    start = time.perf_counter()
    while len(records) < count and time.perf_counter() - start < deadline:
        records.append(run_unit(cli, next(units), refs))
    if len(records) < count:
        print(f"deadline of {deadline:g} s reached after {len(records)} of {count} ops", file=sys.stderr)
    return records


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(
    records: list[Record], refs: list[float], setup_times: list[float], setup_refs: list[float]
) -> tuple[dict, dict]:
    """The end-to-end metrics, and extras for the human-readable row.

    Op times are at the reference speed.  The run's time is the sum of its
    op times: the reference loop between ops is the benchmark's own work.
    """
    ok = [r for r in records if r.status == "ok"]
    times = [r.scaled for r in ok]
    metrics = {
        "setup_s": statistics.median(setup_times) / speed(setup_refs),
        "op_p50_s": statistics.median(times) if ok else 0.0,
        "ok_ops_per_s": len(ok) / sum(r.scaled for r in records),
        "peak_rss_mb": peak_rss_mb(),
    }
    failed = len(records) - len(ok)
    extras = {
        "ok_ops": len(ok),
        "fail_ratio": failed / len(records),
        "speed": speed(refs),
        "wall_op_p50_s": statistics.median(r.seconds for r in ok) if ok else 0.0,
    }
    if len(ok) >= P90_MIN_OPS:
        extras["op_p90_s"] = statistics.quantiles(times, n=10)[-1]
    return metrics, extras


def traced_replay(cli, records: list[Record], refs: list[float]) -> tuple[list[Record], dict]:
    """Run the same ops again with tracing on; per-layer times are raw."""
    tracer = Tracer()
    tracer.install()
    try:
        replayed = [run_unit(cli, r.ops, refs) for r in records]
    finally:
        tracer.restore()
    return replayed, tracer.metrics(len(records))


def tally(records: list[Record]) -> tuple[int, bool]:
    """Failed ops, and whether no op gave a wrong answer."""
    failed = sum(r.status != "ok" for r in records)
    return failed, bool(records) and all(r.status != "wrong" for r in records)


def report_failures(records: list[Record], label: str, limit: int = 3) -> None:
    failures = [(op, o) for r in records for op, o in zip(r.ops, r.outcomes) if o.status != "ok"]
    for op, o in failures[:limit]:
        print(f"{label} {o.status}: {' '.join(op.argv)}: exit {o.code}: {o.detail}", file=sys.stderr)
    if len(failures) > limit:
        print(f"{label}: {len(failures) - limit} more failed commands", file=sys.stderr)


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, str]:
    """One run; returns the result object and a human-readable row."""
    setup_refs: list[float] = []
    cli, ops, setup_times = timed_setup(workload, seed, setup_refs)
    refs: list[float] = []
    budget = seconds / 2 if trace else seconds
    records = measure(cli, ops, workloads.ops_per_run(workload, budget), DEADLINE_FACTOR * budget, refs)
    report_failures(records, workload)
    failed, correct = tally(records)
    if trace:
        traced_refs: list[float] = []
        replayed, values = traced_replay(cli, records, traced_refs)
        diverged = sum(a.output != b.output for a, b in zip(records, replayed))
        if diverged:
            print(f"{workload}: {diverged} traced ops differ from the untraced run", file=sys.stderr)
        correct = correct and not diverged
        k = speed(traced_refs)
        values = {name: v / k if unit_of(name) == "s" else v for name, v in values.items()}
        values["trace.overhead_ratio"] = sum(r.scaled for r in replayed) / sum(r.scaled for r in records)
        values["fail_ratio"] = failed / len(records)
        metrics = {name: {"value": v, "unit": unit_of(name)} for name, v in values.items()}
        row = f"{workload} seed={seed} traced: {len(records)} ops, overhead x{values['trace.overhead_ratio']:.3f}"
    else:
        values, extras = end_to_end(records, refs, setup_times, setup_refs)
        correct = correct and extras["ok_ops"] > 0
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}
        row = f"{workload} seed={seed}: " + "  ".join(
            f"{name}={v['value']:.6g} {v['unit']}" for name, v in metrics.items()
        ) + (
            f"  n_ok={extras['ok_ops']}  fail_ratio={extras['fail_ratio']:.4g} ({failed}/{len(records)})"
            f"  speed={extras['speed']:.3f} (wall op_p50 {extras['wall_op_p50_s']:.6g} s)"
        )
        if "op_p90_s" in extras:
            row += f"  op_p90_s={extras['op_p90_s']:.6g} s"
    result = {"correct": correct, "attempted": len(records), "failed": failed, "metrics": metrics}
    return result, row


# -- every workload, each in its own process ------------------------------


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "spread": 0.0}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def child_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=3 * seconds + 300)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"error: {' '.join(cmd)} printed nothing (exit {proc.returncode})")
    print(*lines[:-1], sep="\n")
    result = json.loads(lines[-1])
    result["seed"] = seed
    result["exit"] = proc.returncode
    return result


def run_all(args) -> int:
    names = [args.workload] if args.workload != "all" else list(workloads.WORKLOADS)
    seeds = range(args.seed, args.seed + args.runs)
    out = {
        "seconds": args.seconds,
        "trace": args.trace,
        "seeds": list(seeds),
        "host": {"python": platform.python_version(), "machine": platform.machine(), "cpus": os.cpu_count()},
        "workloads": {},
    }
    ok = True
    for name in names:
        runs = [child_run(name, s, args.seconds, args.trace) for s in seeds]
        ok = ok and all(r["correct"] and r["exit"] == 0 for r in runs)
        summary = {}
        for metric, first in runs[0]["metrics"].items():
            values = [r["metrics"][metric]["value"] for r in runs]
            summary[metric] = dict(quartiles(values), unit=first["unit"], values=values)
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        summary["fail_ratio_all_runs"] = {"value": failed / attempted, "failed": failed, "attempted": attempted}
        out["workloads"][name] = {"summary": summary, "runs": runs}
        print(f"{name}: " + "  ".join(
            f"{m} median={s['median']:.6g} {s['unit']} spread={s['spread']:.3f}"
            for m, s in summary.items() if "median" in s
        ) + f"  fail_ratio={failed}/{attempted}")
    if args.out:
        Path(args.out).write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Seeded pentachain benchmark.")
    parser.add_argument("--workload", default="all", choices=("all",) + workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=1, help="consecutive seeds per workload, each run in its own process")
    parser.add_argument("--out", help="results file to write for compare.py")
    args = parser.parse_args(argv)
    use_checkout_source()
    if args.workload == "all" or args.runs > 1 or args.out:
        return run_all(args)
    result, row = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(row)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
