"""Workload definitions: seeded op lists, fixture loading and output checks.

An op is one ``pentachain`` command line, run in-process through
``cli.main``.  The workload seed fixes the list of (input, seed) pairs; the
program only sees the generated command lines.

The ``pentachain`` package is passed in rather than imported here, so the
benchmark's set-up can import it afresh each time it is timed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

FIXTURE_DIR = Path(__file__).resolve().parent / "fixtures"
MANIFEST = FIXTURE_DIR / "manifest.json"

WORKLOADS = ("invariant_large", "verify_walks", "pentagon_suite")
LARGE_FIXTURES = ("s3_t80.tri", "rp3_t80.tri")
BUILTIN_ABS = {"s3": "1", "rp3": "64"}
VERIFY_CHECKS = {
    "pentagon", "chain", "acyclic", "partition_independence", "geometry_independence", "pachner_walks",
}
EXIT_DEGENERATE = 4
# Seconds one op takes at the reference speed, failed ops included.  A run of
# ``--seconds S`` does ``ceil(S / NOMINAL_OP_S)`` ops, so the seed alone fixes
# which ops a run attempts and how many of them fail.
NOMINAL_OP_S = {"invariant_large": 4.0, "verify_walks": 2.2, "pentagon_suite": 0.33}


@dataclass(frozen=True)
class Op:
    """One command line and the report it must produce.

    ``expect`` holds the report fields that must match exactly; a
    ``verify`` report must also carry every check, each starting "pass".
    """

    argv: tuple[str, ...]
    expect: tuple[tuple[str, object], ...]


@dataclass(frozen=True)
class Outcome:
    """What one op did: ``status`` is "ok", "degenerate" or "wrong"."""

    status: str
    code: int | None
    stdout: str
    detail: str = ""


def load_fixtures(pkg) -> dict[str, dict]:
    """Parse and validate every ladder fixture against the manifest.

    Checks the file hash, the gluing table (``Triangulation.from_text``
    validates it) and the f-vector.  Returns the manifest entries, each
    with its absolute ``path`` added.
    """
    entries = json.loads(MANIFEST.read_text())["fixtures"]
    out = {}
    for name, entry in entries.items():
        path = FIXTURE_DIR / name
        text = path.read_text()
        if hashlib.sha256(text.encode()).hexdigest() != entry["sha256"]:
            raise ValueError(f"fixture {name} does not match its manifest hash")
        tri = pkg.Triangulation.from_text(text)
        if list(tri.f_vector()) != entry["f_vector"]:
            raise ValueError(f"fixture {name} has f-vector {tri.f_vector()}, manifest says {entry['f_vector']}")
        out[name] = dict(entry, path=str(path))
    return out


def _expected_ranks(f_vector) -> list[int]:
    v3, e = 3 * f_vector[0], f_vector[1]
    return [6, v3 - 6, e - v3 + 6, v3 - 6, 6]


def _invariant_op(fixture: dict, seed: int) -> Op:
    argv = ("invariant", "--file", fixture["path"], "--seed", str(seed), "--json")
    expect = (
        ("command", "invariant"),
        ("seed", seed),
        ("f_vector", fixture["f_vector"]),
        ("ranks", _expected_ranks(fixture["f_vector"])),
        ("acyclic", True),
        ("abs_invariant", fixture["abs_invariant"]),
    )
    return Op(argv, expect)


def _verify_op(builtin: str, seed: int) -> Op:
    argv = ("verify", "--builtin", builtin, "--seed", str(seed), "--json")
    expect = (("command", "verify"), ("input", builtin), ("abs_invariant", BUILTIN_ABS[builtin]))
    return Op(argv, expect)


def _pentagon_op(seed: int) -> Op:
    argv = ("pentagon", "--seed", str(seed), "--samples", "100", "--json")
    return Op(argv, (("command", "pentagon"), ("pentagon_identity", "pass")))


def ops_per_run(workload: str, seconds: float) -> int:
    """How many ops a run of ``seconds`` does: about that long at the reference speed."""
    return max(1, math.ceil(seconds / NOMINAL_OP_S[workload]))


def make_ops(workload: str, seed: int, fixtures: dict[str, dict]) -> Iterator[tuple[Op, ...]]:
    """Endless seeded stream of ops; each item is one timed unit of work.

    ``invariant_large`` and ``verify_walks`` time their ``s3`` and ``rp3``
    commands together as one op, so op times stay in one mode.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}/{seed}")
    while True:
        s = rng.randrange(2**31)
        if workload == "invariant_large":
            yield tuple(_invariant_op(fixtures[name], s) for name in LARGE_FIXTURES)
        elif workload == "verify_walks":
            yield (_verify_op("s3", s), _verify_op("rp3", s))
        else:
            yield (_pentagon_op(s),)


def check_report(op: Op, report: dict) -> str:
    """Empty when the report is right, else the first mismatch."""
    for key, want in op.expect:
        if report.get(key) != want:
            return f"{key} = {report.get(key)!r}, expected {want!r}"
    checks = report.get("checks", {})
    if report["command"] == "verify" and set(checks) != VERIFY_CHECKS:
        return f"checks {sorted(checks)}, expected {sorted(VERIFY_CHECKS)}"
    for name, value in checks.items():
        if not str(value).startswith("pass"):
            return f"check {name} = {value!r}"
    if "vector_identities" in report and not report["vector_identities"].startswith("pass"):
        return f"vector_identities = {report['vector_identities']!r}"
    return ""


def run_op(cli, op: Op) -> Outcome:
    """Run one command in-process and classify its result.

    Exit code 4 (degenerate geometry) is a counted failure, not a wrong
    answer: ``FivePointConfig.random`` does not redraw when the flatness
    relation's leading coefficient vanishes.  Every other failure is wrong.
    """
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(op.argv))
    except (Exception, SystemExit) as exc:
        return Outcome("wrong", None, out.getvalue(), f"{type(exc).__name__}: {exc}")
    stdout = out.getvalue()
    if code == EXIT_DEGENERATE:
        return Outcome("degenerate", code, stdout, err.getvalue().strip())
    if code != 0:
        return Outcome("wrong", code, stdout, err.getvalue().strip())
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return Outcome("wrong", code, stdout, f"unparsable report: {exc}")
    detail = check_report(op, report)
    return Outcome("wrong" if detail else "ok", code, stdout, detail)
