"""Command-line interface.

Subcommands: ``invariant`` (full pipeline on one triangulation),
``verify`` (the invariant of one triangulation, then the pentagon sample,
chain/acyclicity, independence and walk suites),
``pachner`` (seeded random walk, optionally writing the result),
``pentagon`` (five-point identity suites alone) and ``dump-chain``
(diffable matrix dump).

Exit codes are stable.  A failure exits with the ``exit_code`` its error
class carries (see ``errors``): 2 parse error (also argparse usage errors
and any ``OSError``, such as an unreadable input file or a ``pachner
--out`` path that cannot be written), 3 gluing validation error, 4
degenerate geometry, 5 non-acyclic complex, 6 invariance violation during
verification and 1 any other package error.  Success exits 0.  A run
whose reader of standard output goes away first, as in ``... | head -1``,
exits 141 (128 + SIGPIPE, as a shell reports a process that SIGPIPE
ended) and prints nothing.  Exit 4 has four causes: an edge class that
joins a vertex class to itself, raised before any geometry is drawn and
before an explicit one is certified, with the same text either way; no
nondegenerate draw in ``geometry.SAMPLE_DRAWS`` tries; an explicit
geometry with a zero face circulation; and a five-point sample of
``verify`` or ``pentagon`` that stays degenerate for
``pentagon.SAMPLE_DRAWS`` draws.

Options are taken by their full names only, never by a prefix.  Integer
flags (``--seed`` and every count) take the integer grammar of the input
files, ``exact.parse_integer``: ASCII digits, with a minus only before a
nonzero value.  A path flag (``--file``, ``--geometry`` and ``--out``)
that is empty or holds a NUL byte is a usage error.

Reports are reproducible byte for byte for fixed (input, seed, version):
``--json`` output carries no timing; the human format prints wall time on
a separate final line.

``verify`` spreads its independent checks over the usable cores (Linux)
and prints the same report as a serial run.  After any failure it reruns
the checks in order, so the first failure reported is the serial one.
``pentagon`` spreads its two suites the same way, and after a failure
reruns them in the order vector identities, then pentagon samples.
Memory adds up across the processes of either command, and the
benchmark's ``peak_rss_mb`` and ``--trace 1`` see only this process.
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
from .errors import DegenerateGeometryError, InvarianceError, ParseError, PentachainError
from .exact import format_rational, parse_integer
from .geometry import assign_geometry, draw_rationals, parse_geometry, subseed
from .library import BUILTIN_NAMES, load_builtin
from .pachner import random_walk, walk_states
from .pentagon import LABELS, FivePointConfig, verify_pentagon, verify_vector_identities
from .torsion import invariant, select_partition, tau
from .triangulation import Triangulation, read_text

EXIT_BROKEN_PIPE = 141


def _load_input(args) -> tuple[str, Triangulation]:
    if args.builtin:
        return args.builtin, load_builtin(args.builtin)
    return args.file, Triangulation.from_file(args.file)


def _geometry_override(args, tri):
    if args.geometry is not None:
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


def cmd_invariant(args) -> dict:
    name, tri = _load_input(args)
    result = invariant(tri, seed=args.seed, geometry=_geometry_override(args, tri))
    return _invariant_report(name, result)


def _check_pentagon_samples(seed: int, samples: int) -> None:
    """Check the two-to-three identity on seeded samples, naming a failing one."""
    for i in range(samples):
        cfg = FivePointConfig.random(subseed(seed, "pentagon", i))
        lhs, rhs, equal = verify_pentagon(cfg)
        if not equal:
            raise InvarianceError(f"pentagon identity failed at sample {i}: {lhs} != {rhs}")


def _check_vector_identities(seed: int, samples: int) -> int:
    """Check the plane-vector identities on seeded point configurations,
    naming a failing one, and return how many were nondegenerate: a
    degenerate configuration is skipped."""
    getrandbits = random.Random(subseed(seed, "points")).getrandbits
    point_checks = 0
    for j in range(samples):
        # x then y of A..E, each randint(-20, 20) / randint(1, 7), as
        # integers over the lcm of the ten denominators
        den, coords = draw_rationals(getrandbits, 10, 20, 7)
        pts = {lab: (coords[2 * i], coords[2 * i + 1]) for i, lab in enumerate(LABELS)}
        try:
            if not verify_vector_identities(pts, den):
                raise InvarianceError(f"vector identities failed at point configuration {j}")
            point_checks += 1
        except DegenerateGeometryError:
            continue
    return point_checks


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
    serial run raises.  With n = 1 nothing is forked and the checks run
    here once, in order.
    """
    n = min(len(os.sched_getaffinity(0)), len(checks)) if hasattr(os, "sched_getaffinity") else 1
    if n <= 1:
        for check in checks:
            check()
        return
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


def cmd_verify(args) -> dict:
    """Read the input and compute its invariant, then run the pentagon
    samples and the chain, partition, geometry and walk checks; the first
    failure raises.

    The checks are independent, so ``_run_checks`` spreads them over the
    usable cores (Linux) and the report is the same as a serial run's.
    After any failure it reruns them in order, so the failure reported is
    the serial one.  Each process holds its own copy of what it builds, so
    memory adds up across processes; the benchmark's ``peak_rss_mb`` and
    its ``--trace 1`` see only this one.
    """
    name, tri = _load_input(args)
    base = invariant(tri, seed=args.seed)
    expected = base.abs_invariant
    checks = [partial(_check_pentagon_samples, args.seed, args.samples)]
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
    }


def cmd_pachner(args) -> dict:
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
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(end.to_text())
        report["out"] = args.out
    else:
        report["triangulation"] = end.to_text().splitlines()
    return report


def cmd_pentagon(args) -> dict:
    """Run the vector identities, then the pentagon samples; the first
    failure raises.

    ``_run_checks`` spreads the two suites as it does ``verify``'s checks:
    with two usable cores this process runs the vector identities and
    keeps their count while a forked child checks the samples; otherwise
    both run here, in that order.  After any failure both rerun here in
    order, so a run where both fail reports the vector failure.
    """
    counts = []  # a failure reruns the vectors, so the report reads the last

    def vectors():
        counts.append(_check_vector_identities(args.seed, args.samples))

    _run_checks([vectors, partial(_check_pentagon_samples, args.seed, args.samples)])
    report = {
        "command": "pentagon",
        "version": __version__,
        "seed": args.seed,
        "samples": args.samples,
        "pentagon_identity": "pass",
        "vector_identities": f"pass ({counts[-1]} nondegenerate configurations)",
    }
    return report


def cmd_dump_chain(args) -> dict:
    name, tri = _load_input(args)
    geometry = _geometry_override(args, tri)
    if geometry is None:
        geometry = assign_geometry(tri, subseed(args.seed, "geometry"))
    c = build_chain(tri, geometry)
    certify_chain(c)
    sys.stdout.write(dump_chain(c))
    return {}


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


def _path(text: str) -> str:
    """argparse type for a path flag: the empty text names no file, and no
    system call takes a path holding a NUL byte."""
    if not text or "\0" in text:
        raise argparse.ArgumentTypeError(f"invalid path: {text!r}")
    return text


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

    def command(name, func, help, reads_input=True):
        """A subcommand running ``func``, with the input flags when it
        ``reads_input`` and always ``--seed``."""
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        if reads_input:
            group = p.add_mutually_exclusive_group(required=True)
            group.add_argument("--builtin", choices=BUILTIN_NAMES, help="built-in triangulation")
            group.add_argument("--file", type=_path, help="triangulation file path")
        p.add_argument("--seed", type=_integer, default=0)
        p.set_defaults(func=func)
        return p

    p = command("invariant", cmd_invariant, "compute the manifold invariant")
    p.add_argument("--geometry", type=_path, help="explicit geometry file (overrides sampling)")
    p.add_argument("--json", action="store_true")

    p = command("verify", cmd_verify, "run the verification suites")
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

    p = command("pachner", cmd_pachner, "run a random bistellar walk")
    p.add_argument("--steps", type=_count(0), default=20)
    p.add_argument("--max-tets", type=_count(1), default=12)
    p.add_argument("--out", type=_path, help="write the resulting triangulation here")
    p.add_argument("--json", action="store_true")

    p = command("pentagon", cmd_pentagon, "five-point identity suites", reads_input=False)
    p.add_argument("--samples", type=_count(0), default=100)
    p.add_argument("--json", action="store_true")

    p = command("dump-chain", cmd_dump_chain, "dump the five matrices, one entry per line")
    p.add_argument("--geometry", type=_path, help="explicit geometry file")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        report = args.func(args)
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
        return ParseError.exit_code
    except PentachainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
