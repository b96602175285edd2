"""Command-line interface.

Subcommands: ``invariant`` (full pipeline on one triangulation),
``verify`` (the pentagon sample suite, then chain/acyclicity/independence/
walk suites on one triangulation),
``pachner`` (seeded random walk, optionally writing the result),
``pentagon`` (five-point identity suites alone) and ``dump-chain``
(diffable matrix dump).

Exit codes are stable: 0 success, 2 parse error (also argparse usage
errors and any ``OSError``, such as an unreadable input file or a
``pachner --out`` path that cannot be written), 3 gluing validation
error, 4 degenerate geometry, 5 non-acyclic complex, 6 invariance
violation during verification, 141 (128 + SIGPIPE, as a shell reports a
process that SIGPIPE ended) when the reader of standard output goes away
first, as in ``... | head -1``; that exit prints nothing.  Exit 4 has
four causes: an edge class that joins a vertex class to itself, raised
before any geometry is drawn; no nondegenerate draw in
``geometry.SAMPLE_DRAWS`` tries; an explicit geometry with a zero face
circulation; and a five-point sample of ``verify`` or ``pentagon`` that
stays degenerate for ``pentagon.SAMPLE_DRAWS`` draws.

Options are taken by their full names only, never by a prefix.  Integer
flags (``--seed`` and every count) take the integer grammar of the input
files, ``exact.parse_integer``: ASCII digits, with a minus only before a
nonzero value.

Reports are reproducible byte for byte for fixed (input, seed, version):
``--json`` output carries no timing; the human format prints wall time on
a separate final line.

``verify`` spreads its independent checks over the usable cores (Linux)
and prints the same report as a serial run.  After any failure it reruns
the checks in order, so the first failure reported is the serial one.
Memory adds up across its processes, and the benchmark's ``peak_rss_mb``
and ``--trace 1`` see only the parent.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import sys
import time
from functools import cache, partial

from . import __version__
from .chain import build_chain, certify_chain, check_acyclic, dump_chain, verify_chain
from .errors import (
    DegenerateGeometryError,
    InvarianceError,
    NotAcyclicError,
    ParseError,
    PentachainError,
    ValidationError,
)
from .exact import format_rational, parse_integer
from .geometry import assign_geometry, draw_rationals, parse_geometry, subseed
from .library import BUILTIN_NAMES, load_builtin
from .pachner import random_walk, walk_states
from .pentagon import FivePointConfig, verify_pentagon, verify_vector_identities
from .torsion import invariant, select_partition, tau
from .triangulation import Triangulation, read_text

EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_DEGENERATE = 4
EXIT_NOT_ACYCLIC = 5
EXIT_INVARIANCE = 6
EXIT_BROKEN_PIPE = 141

_EXIT_CODES = (
    (ParseError, EXIT_PARSE),
    (ValidationError, EXIT_VALIDATION),
    (DegenerateGeometryError, EXIT_DEGENERATE),
    (NotAcyclicError, EXIT_NOT_ACYCLIC),
    (InvarianceError, EXIT_INVARIANCE),
)


def _load_input(args) -> tuple[str, Triangulation]:
    if args.builtin:
        return args.builtin, load_builtin(args.builtin)
    return args.file, Triangulation.from_file(args.file)


def _geometry_override(args, tri):
    if args.geometry:
        return parse_geometry(read_text(args.geometry), tri)
    return None


def _render(report: dict, as_json: bool, elapsed: float) -> str:
    if as_json:
        return json.dumps(report, sort_keys=True, indent=2)
    lines = []
    for key, value in report.items():
        lines.append(f"{key}: {value}")
    lines.append(f"time: {elapsed * 1000:.1f} ms")
    return "\n".join(lines)


def _invariant_report(name: str, result) -> dict:
    return {
        "command": "invariant",
        "version": __version__,
        "input": name,
        "seed": result.seed,
        "f_vector": list(result.f_vector),
        "ranks": list(result.ranks),
        "acyclic": True,
        "tau": format_rational(result.tau),
        "face_product": format_rational(result.face_product),
        "vertex_count": result.vertex_count,
        "invariant": format_rational(result.invariant),
        "abs_invariant": format_rational(result.abs_invariant),
    }


def cmd_invariant(args) -> tuple[dict, int]:
    name, tri = _load_input(args)
    result = invariant(tri, seed=args.seed, geometry=_geometry_override(args, tri))
    return _invariant_report(name, result), 0


def _check_pentagon_samples(seed: int, samples: int) -> None:
    """Check the two-to-three identity on seeded samples, naming a failing one."""
    for i in range(samples):
        cfg = FivePointConfig.random(subseed(seed, "pentagon", i))
        lhs, rhs, equal = verify_pentagon(cfg)
        if not equal:
            raise InvarianceError(f"pentagon identity failed at sample {i}: {lhs} != {rhs}")


def _format_values(values) -> str:
    """Sorted values as a list, each in ``format_rational``'s form, which
    prints every digit of a value past the interpreter's digit limit."""
    return "[" + ", ".join(map(format_rational, sorted(values))) + "]"


def _check_chain_seed(tri, seed: int, i: int) -> None:
    c = build_chain(tri, assign_geometry(tri, subseed(seed, "chain", i)))
    ok, witness = verify_chain(c)
    if not ok:
        raise InvarianceError(f"chain property failed at geometry seed {i}: {witness}")
    check_acyclic(c)


def _check_partitions(tri, seed: int, count: int) -> None:
    c = build_chain(tri, assign_geometry(tri, subseed(seed, "partition-geom")))
    taus = set()
    for i in range(count):
        p, values = select_partition(c, subseed(seed, "partition", i))
        taus.add(tau(c, p, values))
    if len(taus) != 1:
        raise InvarianceError(f"tau depends on the partition: {_format_values(taus)}")


def _check_geometries(tri, seed: int, count: int, expected) -> None:
    values = {expected}
    for i in range(count):
        values.add(invariant(tri, seed=subseed(seed, "geom", i)).abs_invariant)
    if len(values) != 1:
        raise InvarianceError(f"invariant depends on the geometry: {_format_values(values)}")


def _check_walk(tri, args, w: int, expected) -> None:
    walk_seed = subseed(args.seed, "walk", w)
    for step, (site, state) in enumerate(walk_states(tri, args.steps, walk_seed, args.max_tets), start=1):
        if step % args.check_every and step != args.steps:
            continue
        r = invariant(state, seed=subseed(walk_seed, "step", step))
        if r.abs_invariant != expected:
            raise InvarianceError(
                f"invariant changed along walk {w} (seed {walk_seed}) at step {step} ({site.kind}): "
                f"{format_rational(r.abs_invariant)} != {format_rational(expected)}",
                state=state.to_text(),
            )


def _passes(checks) -> bool:
    try:
        for check in checks:
            check()
    except Exception:
        return False
    return True


def _reap(pids, kill: bool) -> bool:
    """Wait for every child, each sent SIGKILL first if ``kill``; True when
    all exited 0.  An interrupt during a wait kills the rest before it
    propagates."""
    if kill:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
    exited_0 = True
    for k, pid in enumerate(pids):
        try:
            exited_0 = os.waitpid(pid, 0)[1] == 0 and exited_0
        except BaseException:
            if not kill:
                _reap(pids[k:], kill=True)
            raise
    return exited_0


def _run_checks(checks) -> None:
    """Run independent zero-argument checks as if one after another in
    order: the first failure raises.

    With n usable cores (n = 1 where ``os.sched_getaffinity`` is missing),
    child i of n - 1 forked ones runs ``checks[i::n]`` and this process
    runs ``checks[0::n]``.  A child reports only its exit status, so no
    result crosses a process boundary.  If any check fails anywhere, every
    check runs again here, in order, and the first failure is the one a
    serial run raises.
    """
    n = min(len(os.sched_getaffinity(0)), len(checks)) if hasattr(os, "sched_getaffinity") else 1
    pids = []
    passed = False
    try:
        try:
            for i in range(1, n):
                pid = os.fork()
                if pid == 0:
                    try:
                        os._exit(0 if _passes(checks[i::n]) else 1)
                    finally:
                        os._exit(1)  # an interrupt
                pids.append(pid)
        except OSError:
            pass  # no process to spare: passed stays False, so all run here
        else:
            passed = _passes(checks[0::n])
    finally:
        # after a failure here every check reruns below, so the children's
        # work is moot; an interrupt must not leave them running
        passed = _reap(pids, kill=not passed) and passed
    if not passed:
        for check in checks:
            check()


def cmd_verify(args) -> tuple[dict, int]:
    """Run the pentagon samples and the chain, partition, geometry and walk
    checks on one input; the first failure raises.

    The checks are independent, so ``_run_checks`` spreads them over the
    usable cores (Linux) and the report is the same as a serial run's.
    After any failure it reruns them in order, so the failure reported is
    the serial one.  Each process holds its own copy of what it builds, so
    memory adds up across processes; the benchmark's ``peak_rss_mb`` and
    its ``--trace 1`` see only this one.
    """
    samples = partial(_check_pentagon_samples, args.seed, args.samples)
    try:
        name, tri = _load_input(args)
        base = invariant(tri, seed=args.seed)
    except Exception:
        # a serial run checks the samples before it reads the input
        samples()
        raise

    expected = base.abs_invariant
    checks = [samples]
    checks += [partial(_check_chain_seed, tri, args.seed, i) for i in range(args.chain_seeds)]
    checks.append(partial(_check_partitions, tri, args.seed, args.partition_seeds))
    checks.append(partial(_check_geometries, tri, args.seed, args.geometry_seeds, expected))
    checks += [partial(_check_walk, tri, args, w, expected) for w in range(args.walks)]
    _run_checks(checks)

    return {
        "command": "verify",
        "version": __version__,
        "seed": args.seed,
        "checks": {
            "pentagon": f"pass ({args.samples} samples)",
            "chain": f"pass ({args.chain_seeds} geometry seeds)",
            "acyclic": f"pass ({args.chain_seeds} geometry seeds)",
            "partition_independence": f"pass ({args.partition_seeds} partitions)",
            "geometry_independence": f"pass ({args.geometry_seeds} geometries)",
            "pachner_walks": f"pass ({args.walks} walks x {args.steps} steps)",
        },
        "input": name,
        "f_vector": list(tri.f_vector()),
        "ranks": list(base.ranks),
        "acyclic": True,
        "tau": format_rational(base.tau),
        "abs_invariant": format_rational(expected),
    }, 0


def cmd_pachner(args) -> tuple[dict, int]:
    name, tri = _load_input(args)
    end = random_walk(tri, args.steps, args.seed, args.max_tets)
    report = {
        "command": "pachner",
        "version": __version__,
        "input": name,
        "seed": args.seed,
        "steps": args.steps,
        "f_vector_before": list(tri.f_vector()),
        "f_vector_after": list(end.f_vector()),
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(end.to_text())
        report["out"] = args.out
    else:
        report["triangulation"] = end.to_text().splitlines()
    return report, 0


def cmd_pentagon(args) -> tuple[dict, int]:
    _check_pentagon_samples(args.seed, args.samples)
    getrandbits = random.Random(subseed(args.seed, "points")).getrandbits
    point_checks = 0
    for j in range(args.samples):
        # x then y of A..E, each randint(-20, 20) / randint(1, 7), as
        # integers over the lcm of the ten denominators
        den, coords = draw_rationals(getrandbits, 10, 20, 7)
        pts = {lab: (coords[2 * i], coords[2 * i + 1]) for i, lab in enumerate(("A", "B", "C", "D", "E"))}
        try:
            if not verify_vector_identities(pts, den):
                raise InvarianceError(f"vector identities failed at point configuration {j}")
            point_checks += 1
        except DegenerateGeometryError:
            continue
    report = {
        "command": "pentagon",
        "version": __version__,
        "seed": args.seed,
        "samples": args.samples,
        "pentagon_identity": "pass",
        "vector_identities": f"pass ({point_checks} nondegenerate configurations)",
    }
    return report, 0


def cmd_dump_chain(args) -> tuple[dict, int]:
    name, tri = _load_input(args)
    geometry = _geometry_override(args, tri)
    if geometry is None:
        geometry = assign_geometry(tri, subseed(args.seed, "geometry"))
    c = build_chain(tri, geometry)
    certify_chain(c)
    sys.stdout.write(dump_chain(c))
    return {}, 0


def _integer(text: str) -> int:
    """argparse type for an integer flag, in the grammar of the integer
    fields of input files (``exact.parse_integer``)."""
    try:
        return parse_integer(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _count(minimum: int):
    """argparse type for an integer count of at least ``minimum``."""

    def parse(text: str) -> int:
        value = _integer(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return parse


def _add_input_flags(parser):
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--builtin", choices=BUILTIN_NAMES, help="built-in triangulation")
    group.add_argument("--file", help="triangulation file path")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every
    later one, so no caller may change it."""
    parser = argparse.ArgumentParser(
        prog="pentachain",
        description="Exact torsion invariant of closed oriented 3-manifold triangulations.",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=__version__)
    # options are taken by their full names only: with prefixes, verify
    # would read a --geometry, which it does not take, as --geometry-seeds
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("invariant", help="compute the manifold invariant", allow_abbrev=False)
    _add_input_flags(p)
    p.add_argument("--seed", type=_integer, default=0)
    p.add_argument("--geometry", help="explicit geometry file (overrides sampling)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_invariant)

    p = sub.add_parser("verify", help="run the verification suites", allow_abbrev=False)
    _add_input_flags(p)
    p.add_argument("--seed", type=_integer, default=0)
    p.add_argument("--walks", type=_count(0), default=5)
    p.add_argument("--steps", type=_count(0), default=20)
    p.add_argument("--samples", type=_count(0), default=100)
    p.add_argument("--chain-seeds", type=_count(0), default=8)
    p.add_argument("--partition-seeds", type=_count(1), default=10)
    p.add_argument("--geometry-seeds", type=_count(1), default=10)
    p.add_argument("--max-tets", type=_count(1), default=12)
    p.add_argument("--check-every", type=_count(1), default=5,
                   help="verify the invariant every N walk steps (and at the end)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("pachner", help="run a random bistellar walk", allow_abbrev=False)
    _add_input_flags(p)
    p.add_argument("--seed", type=_integer, default=0)
    p.add_argument("--steps", type=_count(0), default=20)
    p.add_argument("--max-tets", type=_count(1), default=12)
    p.add_argument("--out", help="write the resulting triangulation here")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_pachner)

    p = sub.add_parser("pentagon", help="five-point identity suites", allow_abbrev=False)
    p.add_argument("--seed", type=_integer, default=0)
    p.add_argument("--samples", type=_count(0), default=100)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_pentagon)

    p = sub.add_parser("dump-chain", help="dump the five matrices, one entry per line", allow_abbrev=False)
    _add_input_flags(p)
    p.add_argument("--seed", type=_integer, default=0)
    p.add_argument("--geometry", help="explicit geometry file")
    p.set_defaults(func=cmd_dump_chain)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        report, code = args.func(args)
        if report:
            print(_render(report, args.json, time.perf_counter() - started))
        # a closed pipe shows up here rather than at the flush on exit
        sys.stdout.flush()
    except BrokenPipeError:
        # the interpreter flushes stdout again on exit; send what is left
        # to devnull so that flush cannot raise a second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except PentachainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next((code for klass, code in _EXIT_CODES if isinstance(exc, klass)), 1)
    return code


if __name__ == "__main__":
    sys.exit(main())
