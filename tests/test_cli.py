import hashlib
import itertools
import json
import os
import random
import re
import signal
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from pentachain import DegenerateGeometryError, MoveSite, NotAcyclicError, Triangulation, apply_move, load_builtin
import pentachain
from pentachain import cli, geometry, pentagon, torsion
from pentachain.triangulation import FILE_MAGIC
from reference import fraction_pentagon_points, rat_matrix
from test_geometry import LARGE_DENOMINATOR_GEOMETRY, prime_denominator_geometry_text


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_invariant_sphere(capsys):
    code, out, _ = run(capsys, ["invariant", "--builtin", "s3"])
    assert code == 0
    assert "abs_invariant: 1" in out


def test_invariant_projective_space(capsys):
    code, out, _ = run(capsys, ["invariant", "--builtin", "rp3", "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["abs_invariant"] == "64"
    assert report["ranks"] == [6, 6, 6, 6, 6]


def test_module_entry_point():
    src = str(Path(pentachain.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run(
        [sys.executable, "-m", "pentachain", "invariant", "--builtin", "s3", "--json"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["abs_invariant"] == "1"


@pytest.mark.parametrize(
    "argv",
    [
        # the report is printed after the command returns
        ["invariant", "--builtin", "rp3", "--json"],
        # the command writes the dump itself
        ["dump-chain", "--builtin", "s3"],
    ],
)
def test_closed_stdout_exits_quietly(argv):
    src = str(Path(pentachain.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    # a pipe whose reader is gone before the first write, as when ``head``
    # has already exited
    reader, writer = os.pipe()
    os.close(reader)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pentachain", *argv],
            stdout=writer,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            timeout=120,
        )
    finally:
        os.close(writer)
    assert (done.returncode, done.stderr) == (cli.EXIT_BROKEN_PIPE, "")


def test_version_matches_project_metadata():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as handle:
        assert tomllib.load(handle)["project"]["version"] == pentachain.__version__


def test_seed_changes_tau_not_invariant(capsys):
    reports = []
    for seed in ("7", "8"):
        code, out, _ = run(capsys, ["invariant", "--builtin", "s3", "--seed", seed, "--json"])
        assert code == 0
        reports.append(json.loads(out))
    assert reports[0]["abs_invariant"] == reports[1]["abs_invariant"] == "1"
    assert reports[0]["tau"] != reports[1]["tau"]


def test_json_reports_reproducible(capsys):
    outs = []
    for _ in range(2):
        code, out, _ = run(capsys, ["invariant", "--builtin", "rp3", "--seed", "3", "--json"])
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_file_input_round_trip(tmp_path, capsys):
    path = tmp_path / "sphere.tri"
    path.write_text(load_builtin("s3").to_text())
    code, out, _ = run(capsys, ["invariant", "--file", str(path)])
    assert code == 0
    assert "abs_invariant: 1" in out


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.tri"
    path.write_text("this is not a triangulation\n")
    code, _, err = run(capsys, [" invariant".strip(), "--file", str(path)])
    assert code == 2
    assert "error" in err


def test_missing_file_exit_code(capsys):
    code, _, err = run(capsys, ["invariant", "--file", "/nonexistent/x.tri"])
    assert code == 2


def test_unwritable_output_exit_code(tmp_path, capsys):
    # an OSError writing --out exits 2, as one reading an input does
    out = tmp_path / "missing" / "x.tri"
    code, stdout, err = run(capsys, ["pachner", "--builtin", "s3", "--steps", "1", "--out", str(out)])
    assert (code, stdout) == (2, "")
    assert err.startswith("error: ") and str(out) in err


@pytest.mark.parametrize(
    "flag, content",
    [("--file", None), ("--file", b"pentachain-tri v1\n\xff\xfe\n"),
     ("--geometry", None), ("--geometry", b"vertex 0 \xe9 0 0\n")],
    ids=["file-directory", "file-not-utf8", "geometry-directory", "geometry-not-utf8"],
)
def test_unreadable_input_exit_code(tmp_path, capsys, flag, content):
    path = tmp_path / "input"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    argv = ["invariant", "--builtin", "s3", flag, str(path)] if flag == "--geometry" else ["invariant", flag, str(path)]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and str(path) in err


def test_validation_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.tri"
    path.write_text(
        "pentachain-tri v1\ntetrahedra 2\n"
        "tet 0: 1:0213 1:0123 1:0123 1:0123\n"
        "tet 1: 0:0213 0:0123 0:0123 0:0123\n"
    )
    code, _, err = run(capsys, ["invariant", "--file", str(path)])
    assert code == 3
    assert "orientable" in err


def test_disconnected_table_exit_code(tmp_path, capsys):
    # two copies of s3 (tetrahedra 0, 1 and 2, 3, each pair glued by the
    # identity on all four faces); the rank check used to report them as
    # not acyclic against a pattern with negative ranks
    tets = "".join(f"tet {t}: {' '.join([f'{t ^ 1}:0123'] * 4)}\n" for t in range(4))
    path = tmp_path / "two_spheres.tri"
    path.write_text(f"{FILE_MAGIC}\ntetrahedra 4\n{tets}")
    assert run(capsys, ["invariant", "--file", str(path), "--json"]) == (
        3,
        "",
        "error: gluing table is not connected: tetrahedron 2 is not reachable from tetrahedron 0\n",
    )


def test_degenerate_geometry_exit_code(tmp_path, capsys, monkeypatch):
    degenerate = apply_move(load_builtin("s3"), MoveSite("2->3", (0, 0)))
    path = tmp_path / "degenerate.tri"
    path.write_text(degenerate.to_text())
    draws = []
    real_edge_values = geometry.edge_values
    monkeypatch.setattr(geometry, "edge_values", lambda *a: draws.append(a) or real_edge_values(*a))
    code, _, err = run(capsys, ["invariant", "--file", str(path)])
    assert code == 4
    assert "edge class 3 joins vertex class 2 to itself" in err
    assert "zero circulation for any geometry" in err
    assert "2->3 and 1->4 moves cannot remove this edge" in err
    assert draws == []


@pytest.mark.parametrize("command", ["invariant", "dump-chain"])
def test_loop_edge_with_explicit_geometry_names_the_edge(tmp_path, capsys, command):
    # the loop-edge input above with a --geometry that puts its four vertex
    # classes at distinct points: the certificate names the loop edge, as
    # the sampler does, not the first face it makes degenerate
    degenerate = apply_move(load_builtin("s3"), MoveSite("2->3", (0, 0)))
    tri_path, geometry_path = tmp_path / "degenerate.tri", tmp_path / "points.geom"
    tri_path.write_text(degenerate.to_text())
    points = ((0, 0), (1, 0), (0, 1), (2, 3))
    assert len(degenerate.vertices) == len(points)
    geometry_path.write_text("".join(f"vertex {v} {x} {y} {v}\n" for v, (x, y) in enumerate(points)))
    code, out, err = run(capsys, [command, "--file", str(tri_path), "--geometry", str(geometry_path)])
    assert (code, out) == (4, "")
    assert err == (
        "error: edge class 3 joins vertex class 2 to itself, so every face containing it has zero "
        "circulation for any geometry; 2->3 and 1->4 moves cannot remove this edge\n"
    )


def test_not_acyclic_exit_code(capsys, monkeypatch):
    def fake_invariant(*args, **kwargs):
        raise NotAcyclicError((6, 6, 5, 6, 6), (6, 6, 6, 6, 6))

    monkeypatch.setattr(cli, "invariant", fake_invariant)
    code, _, err = run(capsys, ["invariant", "--builtin", "rp3"])
    assert code == 5
    assert "not acyclic" in err


def test_broken_complex_exits_not_acyclic(capsys, monkeypatch):
    real_build_chain = torsion.build_chain

    def zeroed_f3(*args, **kwargs):
        c = real_build_chain(*args, **kwargs)
        zero = rat_matrix([[0] * c.f3.ncols for _ in range(c.f3.nrows)])
        return replace(c, f3=zero)

    monkeypatch.setattr(torsion, "build_chain", zeroed_f3)
    code, _, err = run(capsys, ["invariant", "--builtin", "rp3"])
    assert code == 5
    assert "complex is not acyclic: ranks (6, 6, 0, 6, 6), expected (6, 6, 6, 6, 6); f3 has rank 0, expected 6" in err


def test_short_stage_exits_not_acyclic(capsys, monkeypatch):
    # f3 keeps only its first 5 rows: unlike a zeroed f3 its stage of the
    # pass does find rows, but 5 independent ones where 6 are needed
    real_build_chain = torsion.build_chain

    def truncated_f3(*args, **kwargs):
        c = real_build_chain(*args, **kwargs)
        rows = [row if i < 5 else {} for i, row in enumerate(c.f3.rows)]
        return replace(c, f3=rat_matrix(rows, c.f3.ncols))

    monkeypatch.setattr(torsion, "build_chain", truncated_f3)
    code, _, err = run(capsys, ["invariant", "--builtin", "rp3"])
    assert code == 5
    assert "complex is not acyclic: ranks (6, 6, 5, 6, 6), expected (6, 6, 6, 6, 6); f3 has rank 5, expected 6" in err


def test_vanishing_f5_minor_exits_not_acyclic(capsys, monkeypatch):
    # a zero f5 keeps the chain property; the pass's four row stages
    # succeed and its closing det is 0
    real_build_chain = torsion.build_chain

    def zeroed_f5(*args, **kwargs):
        c = real_build_chain(*args, **kwargs)
        return replace(c, f5=rat_matrix([{}] * c.f5.nrows, c.f5.ncols))

    monkeypatch.setattr(torsion, "build_chain", zeroed_f5)
    code, _, err = run(capsys, ["invariant", "--builtin", "s3"])
    assert code == 5
    assert "complex is not acyclic: ranks (6, 6, 0, 6, 0), expected (6, 6, 0, 6, 6); f5 has rank 0, expected 6" in err


def test_broken_chain_names_the_full_check_witness(capsys, monkeypatch):
    # f4 off by 1/7919 in one entry: the pass still succeeds, and the check
    # on its free columns first meets f4.f3 at column dl_e8; the error names
    # the full check's first witness, dl_e5, as certify_chain(c) does
    real_build_chain = torsion.build_chain

    def perturbed_f4(*args, **kwargs):
        c = real_build_chain(*args, **kwargs)
        rows = [dict(row) for row in c.f4.rows]
        rows[0][0] = rows[0].get(0, 0) + Fraction(1, 7919)
        return replace(c, f4=rat_matrix(rows, c.f4.ncols))

    monkeypatch.setattr(torsion, "build_chain", perturbed_f4)
    code, out, err = run(capsys, ["invariant", "--builtin", "rp3"])
    assert (code, out) == (1, "")
    assert err == "error: internal error: composition f4.f3 is nonzero at (dg1_v0, dl_e5)\n"


def test_short_pass_on_broken_chain_names_the_witness(capsys, monkeypatch):
    # f3's rows rotated by one keep every rank, so the ranks are the acyclic
    # pattern; the pass falls short only because the chain is broken, and
    # the error names the full check's first witness, not the ranks
    real_build_chain = torsion.build_chain

    def rotated_f3(*args, **kwargs):
        c = real_build_chain(*args, **kwargs)
        rows = c.f3.rows
        return replace(c, f3=rat_matrix(rows[1:] + rows[:1], c.f3.ncols))

    monkeypatch.setattr(torsion, "build_chain", rotated_f3)
    code, out, err = run(capsys, ["invariant", "--builtin", "rp3"])
    assert (code, out) == (1, "")
    assert err == "error: internal error: composition f4.f3 is nonzero at (dg1_v0, dl_e1)\n"


def test_short_pass_on_valid_chain_is_an_internal_error(capsys, monkeypatch):
    # a closing det that wrongly reads 0 on a valid, acyclic chain: neither
    # the rank test nor the chain check finds a fault, so the pass is blamed
    monkeypatch.setattr(torsion, "det", lambda block: Fraction(0))
    code, out, err = run(capsys, ["invariant", "--builtin", "rp3"])
    assert (code, out) == (1, "")
    assert err == "error: internal error: the partition pass fell short on an acyclic complex\n"


@pytest.mark.parametrize(
    "broken, code, message",
    [
        ("f4", 6, "error: chain property failed at geometry seed 0: (3, 'dg1_v0', 'dl_e5')\n"),
        (
            "f3",
            5,
            "error: complex is not acyclic: ranks (6, 6, 0, 6, 6), expected (6, 6, 6, 6, 6);"
            " f3 has rank 0, expected 6\n",
        ),
    ],
)
def test_verify_chain_seed_failures(capsys, monkeypatch, broken, code, message):
    # only verify's chain-seeds loop calls cli.build_chain; the base
    # invariant builds through torsion.build_chain and still passes
    real_build_chain = cli.build_chain

    def broken_chain(*args, **kwargs):
        c = real_build_chain(*args, **kwargs)
        if broken == "f3":
            return replace(c, f3=rat_matrix([{}] * c.f3.nrows, c.f3.ncols))
        rows = [dict(row) for row in c.f4.rows]
        rows[0][0] = rows[0].get(0, 0) + Fraction(1, 7919)
        return replace(c, f4=rat_matrix(rows, c.f4.ncols))

    monkeypatch.setattr(cli, "build_chain", broken_chain)
    argv = ["verify", "--builtin", "rp3", "--samples", "1", "--chain-seeds", "1"]
    assert run(capsys, argv) == (code, "", message)


@pytest.mark.parametrize(
    "argv",
    # verify runs its samples before it reads the input
    [["verify", "--builtin", "s3", "--samples", "1"], ["pentagon", "--samples", "1"]],
    ids=["verify", "pentagon"],
)
def test_invariance_violation_exit_code(capsys, monkeypatch, argv):
    def fake_verify_pentagon(cfg):
        return 0, 1, False

    monkeypatch.setattr(cli, "verify_pentagon", fake_verify_pentagon)
    code, _, err = run(capsys, argv)
    assert code == 6
    assert "pentagon identity failed at sample 0" in err


def test_geometry_override(tmp_path, capsys):
    lines = [
        "vertex 0 0 0 0",
        "vertex 1 1 0 0",
        "vertex 2 0 1 0",
        "vertex 3 1 1 0",
    ]
    path = tmp_path / "geom.txt"
    path.write_text("\n".join(lines) + "\n")
    code, out, _ = run(
        capsys, ["invariant", "--builtin", "s3", "--geometry", str(path), "--json"]
    )
    assert code == 0
    report = json.loads(out)
    assert report["tau"] in ("512", "-512")
    assert report["abs_invariant"] == "1"


def test_verify_quick(capsys):
    code, out, _ = run(
        capsys,
        ["verify", "--builtin", "s3", "--walks", "1", "--steps", "6",
         "--samples", "10", "--chain-seeds", "2", "--partition-seeds", "3",
         "--geometry-seeds", "3"],
    )
    assert code == 0
    assert "pachner_walks" in out


def test_verify_checks_the_reported_invariant_against_the_geometries(capsys, monkeypatch):
    # only the base geometry, seed 0, gives a different value
    real_invariant = cli.invariant

    def base_differs(tri, seed=0, **kwargs):
        r = real_invariant(tri, seed=seed, **kwargs)
        return replace(r, abs_invariant=2 * r.abs_invariant) if seed == 0 else r

    monkeypatch.setattr(cli, "invariant", base_differs)
    code, out, err = run(
        capsys,
        ["verify", "--builtin", "s3", "--seed", "0", "--walks", "1", "--steps", "5", "--samples", "1",
         "--chain-seeds", "1", "--partition-seeds", "1", "--geometry-seeds", "2"],
    )
    assert (code, out) == (6, "")
    assert err == "error: invariant depends on the geometry: [1, 2]\n"


def test_verify_requires_input(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify"])
    assert exc.value.code == 2


# the whole ``verify --builtin <name> --seed 1 --json`` report at the
# default suite sizes, taken before circulations and curvatures read the
# resolved sides
VERIFY_SEED1_SHA256 = {
    "s3": "092750a582b0a67e033dd4e824d915ed55d6988c974ed0f9b26e3facb75038de",
    "rp3": "77cc1e809639e5dd0d3663020ccd4dc3c6bf1a05ba2e44613c885c3ed0783897",
}


@pytest.mark.parametrize("name", sorted(VERIFY_SEED1_SHA256))
def test_verify_report_pinned(capsys, name):
    code, out, _ = run(capsys, ["verify", "--builtin", name, "--seed", "1", "--json"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_SEED1_SHA256[name]


def use_cpus(monkeypatch, count):
    """Make ``count`` cores usable to verify, which runs on as many processes."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("name", sorted(VERIFY_SEED1_SHA256))
def test_verify_report_pinned_on_each_core_count(capsys, monkeypatch, name, cpus):
    use_cpus(monkeypatch, cpus)
    code, out, _ = run(capsys, ["verify", "--builtin", name, "--seed", "1", "--json"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_SEED1_SHA256[name]
    assert_no_child_left()


def test_verify_runs_its_checks_here_when_no_process_can_be_forked(capsys, monkeypatch):
    def no_fork():
        raise BlockingIOError("Resource temporarily unavailable")

    use_cpus(monkeypatch, 2)
    monkeypatch.setattr(os, "fork", no_fork)
    code, out, _ = run(capsys, ["verify", "--builtin", "s3", "--seed", "1", "--json"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_SEED1_SHA256["s3"]


# its checks in order: the samples, chain seeds 0 and 1, the partitions, the
# geometries, walks 0 and 1.  On 2 cores a child runs chain seed 0 and walk
# 0, and the calling process chain seed 1 and walk 1.
SMALL_VERIFY = [
    "verify", "--builtin", "s3", "--samples", "1", "--chain-seeds", "2", "--partition-seeds", "2",
    "--geometry-seeds", "2", "--walks", "2", "--steps", "5",
]


@pytest.mark.parametrize("cpus", [1, 2])
def test_verify_spreads_its_checks_over_the_usable_cores(capsys, monkeypatch, tmp_path, cpus):
    # each walk writes down the process that runs it
    log = tmp_path / "pids"
    real_walk_states = cli.walk_states

    def logged(*args):
        with open(log, "a", encoding="utf-8") as handle:
            handle.write(f"{os.getpid()}\n")
        return real_walk_states(*args)

    use_cpus(monkeypatch, cpus)
    monkeypatch.setattr(cli, "walk_states", logged)
    code, _, _ = run(capsys, SMALL_VERIFY)
    assert code == 0
    pids = log.read_text().split()
    assert len(pids) == 2 and str(os.getpid()) in pids
    assert len(set(pids)) == cpus
    assert_no_child_left()


def break_checks(monkeypatch, failing):
    """Make SMALL_VERIFY's chain seeds and walks named in ``failing`` fail:
    a chain seed with a broken f4, a walk with a wrong value at step 5."""
    bad_geometries = {geometry.subseed(0, "chain", i) for kind, i in failing if kind == "chain"}
    bad_steps = {
        geometry.subseed(geometry.subseed(0, "walk", w), "step", 5) for kind, w in failing if kind == "walk"
    }
    real_assign, real_build, real_invariant = cli.assign_geometry, cli.build_chain, cli.invariant
    drawn = []

    def assign(tri, seed):
        drawn.append(seed)
        return real_assign(tri, seed)

    def build(tri, g):
        c = real_build(tri, g)
        if drawn[-1] not in bad_geometries:
            return c
        rows = [dict(row) for row in c.f4.rows]
        rows[0][0] = rows[0].get(0, 0) + Fraction(1, 7919)
        return replace(c, f4=rat_matrix(rows, c.f4.ncols))

    def wrong_on_walk(tri, seed=0, **kwargs):
        r = real_invariant(tri, seed=seed, **kwargs)
        return replace(r, abs_invariant=r.abs_invariant + 1) if seed in bad_steps else r

    monkeypatch.setattr(cli, "assign_geometry", assign)
    monkeypatch.setattr(cli, "build_chain", build)
    monkeypatch.setattr(cli, "invariant", wrong_on_walk)


@pytest.mark.parametrize(
    "failing, first",
    [
        ([("chain", 0)], "chain property failed at geometry seed 0: "),
        ([("chain", 1)], "chain property failed at geometry seed 1: "),
        ([("walk", 0)], "invariant changed along walk 0 "),
        ([("walk", 1)], "invariant changed along walk 1 "),
        ([("walk", 0), ("chain", 1)], "chain property failed at geometry seed 1: "),
        ([("walk", 1), ("walk", 0)], "invariant changed along walk 0 "),
    ],
    ids=["chain0", "chain1", "walk0", "walk1", "walk0+chain1", "walk1+walk0"],
)
def test_verify_reports_the_serial_failure_on_each_core_count(capsys, monkeypatch, failing, first):
    break_checks(monkeypatch, failing)
    results = []
    for cpus in (1, 2):
        use_cpus(monkeypatch, cpus)
        results.append(run(capsys, SMALL_VERIFY))
        assert_no_child_left()
    assert results[0] == results[1]
    code, out, err = results[0]
    assert (code, out) == (6, "")
    assert err.startswith("error: " + first)


@pytest.mark.parametrize("during", ["check", "wait"])
def test_an_interrupted_verify_leaves_no_child(monkeypatch, during):
    # walk 0 sleeps in the child; this process is interrupted in walk 1 or,
    # its own checks done, while it waits for the child
    real_walk_states = cli.walk_states

    def walk_states(tri, steps, seed, max_tets):
        if seed == geometry.subseed(0, "walk", 0):
            time.sleep(30)
        elif during == "check":
            raise KeyboardInterrupt
        return real_walk_states(tri, steps, seed, max_tets)

    def interrupt(signum, frame):
        raise KeyboardInterrupt

    use_cpus(monkeypatch, 2)
    monkeypatch.setattr(cli, "walk_states", walk_states)
    previous = signal.signal(signal.SIGALRM, interrupt)
    started = time.monotonic()
    try:
        if during == "wait":
            signal.setitimer(signal.ITIMER_REAL, 2)
        with pytest.raises(KeyboardInterrupt):
            cli.main(SMALL_VERIFY)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - started < 20
    assert_no_child_left()


# 5000 digits, past the interpreter's default limit of 4300 for str of an int
HUGE = 10**4999
# the flags and error of each check of verify that lists values
VALUE_ERRORS = {
    "partition": (["--partition-seeds", "2"], r"tau depends on the partition: \[(\d+), (\d+)\]\n"),
    "geometry": (["--walks", "0"], r"invariant depends on the geometry: \[(\d+), (\d+)\]\n"),
    "walk": (["--walks", "1", "--steps", "1"], r"invariant changed along walk 0 .*: (\d+) != (\d+)\n"),
}


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("check", sorted(VALUE_ERRORS))
def test_verify_lists_values_past_the_digit_limit(capsys, monkeypatch, cpus, check):
    real_invariant = cli.invariant

    def huge(tri, seed=0, **kwargs):
        r = real_invariant(tri, seed=seed, **kwargs)
        # the base invariant (seed 0) differs from the other geometries;
        # every Pachner move changes the number of tetrahedra
        offset = seed == 0 if check == "geometry" else len(tri.tets)
        return replace(r, abs_invariant=Fraction(HUGE + offset))

    if check == "partition":
        count = itertools.count()
        monkeypatch.setattr(cli, "tau", lambda c, p, values: Fraction(HUGE + next(count)))
    else:
        monkeypatch.setattr(cli, "invariant", huge)
    use_cpus(monkeypatch, cpus)
    argv, error = VALUE_ERRORS[check]
    code, out, err = run(capsys, ["verify", "--builtin", "s3", *argv])
    assert (code, out) == (6, "")
    match = re.search(error, err)
    assert err.startswith("error: ") and match
    assert {len(value) for value in match.groups()} == {5000}
    assert match[1] != match[2]
    if check == "partition" and cpus == 1:
        # with nothing forked the checks run once: the two partitions' taus
        assert next(count) == 2


def test_verify_checks_its_samples_before_a_missing_input(capsys, monkeypatch, tmp_path):
    real_verify_pentagon = cli.verify_pentagon
    samples = []
    monkeypatch.setattr(cli, "verify_pentagon", lambda cfg: samples.append(cfg) or real_verify_pentagon(cfg))
    code, out, err = run(capsys, ["verify", "--file", str(tmp_path / "missing.tri")])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "missing.tri" in err
    assert len(samples) == 100


def test_verify_reports_a_failing_sample_before_a_missing_input(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(cli, "verify_pentagon", lambda cfg: (0, 1, False))
    code, out, err = run(capsys, ["verify", "--file", str(tmp_path / "missing.tri")])
    assert (code, out) == (6, "")
    assert err == "error: pentagon identity failed at sample 0: 0 != 1\n"


def test_pentagon_command(capsys):
    code, out, _ = run(capsys, ["pentagon", "--samples", "15", "--json"])
    assert code == 0
    assert json.loads(out)["pentagon_identity"] == "pass"


# the vector-identity counts of ``pentagon --seed N --json`` for N = 0..9;
# the configurations missing from 100 are degenerate draws
PENTAGON_POINT_CHECKS = (100, 100, 99, 99, 100, 99, 100, 99, 98, 100)


def pentagon_report(seed):
    """The report of ``pentagon --seed <seed> --json``, seed 0..9."""
    return {
        "command": "pentagon",
        "version": pentachain.__version__,
        "seed": seed,
        "samples": 100,
        "pentagon_identity": "pass",
        "vector_identities": f"pass ({PENTAGON_POINT_CHECKS[seed]} nondegenerate configurations)",
    }


def test_pentagon_reports_pinned(capsys, monkeypatch):
    for cpus in (1, 2):
        use_cpus(monkeypatch, cpus)
        for seed in range(len(PENTAGON_POINT_CHECKS)):
            code, out, _ = run(capsys, ["pentagon", "--seed", str(seed), "--json"])
            assert code == 0
            assert json.loads(out) == pentagon_report(seed), cpus
        assert_no_child_left()


def test_pentagon_runs_its_suites_here_when_no_process_can_be_forked(capsys, monkeypatch):
    def no_fork():
        raise BlockingIOError("Resource temporarily unavailable")

    use_cpus(monkeypatch, 2)
    monkeypatch.setattr(os, "fork", no_fork)
    code, out, _ = run(capsys, ["pentagon", "--seed", "0", "--json"])
    assert code == 0
    assert json.loads(out) == pentagon_report(0)
    assert_no_child_left()


@pytest.mark.parametrize("cpus", [1, 2])
def test_pentagon_spreads_its_suites_over_the_usable_cores(capsys, monkeypatch, tmp_path, cpus):
    # each suite's checks write down the process that runs them
    log = tmp_path / "pids"
    real_samples, real_vectors = cli.verify_pentagon, cli.verify_vector_identities

    def logged(suite, real):
        def check(*args):
            with open(log, "a", encoding="utf-8") as handle:
                handle.write(f"{suite} {os.getpid()}\n")
            return real(*args)

        return check

    use_cpus(monkeypatch, cpus)
    monkeypatch.setattr(cli, "verify_pentagon", logged("samples", real_samples))
    monkeypatch.setattr(cli, "verify_vector_identities", logged("vectors", real_vectors))
    code, _, _ = run(capsys, ["pentagon", "--samples", "3"])
    assert code == 0
    pids = dict(line.split() for line in log.read_text().splitlines())
    assert pids["vectors"] == str(os.getpid())
    assert (pids["samples"] == pids["vectors"]) == (cpus == 1)
    assert_no_child_left()


def fail_at_sample_3(monkeypatch):
    """Make ``verify_pentagon`` fail on sample 3 of seed 0 alone, in
    whichever process checks it."""
    tables, real = [], cli.verify_pentagon
    monkeypatch.setattr(cli, "verify_pentagon", lambda cfg: tables.append(cfg.table) or real(cfg))
    cli._check_pentagon_samples(0, 4)
    monkeypatch.setattr(cli, "verify_pentagon", lambda cfg: (0, 1, False) if cfg.table == tables[3] else real(cfg))


def fail_at_configuration_2(monkeypatch):
    """Make ``verify_vector_identities`` fail on point configuration 2 of
    seed 0 alone, however often it is checked."""
    drawn, real = [], cli.verify_vector_identities
    monkeypatch.setattr(cli, "verify_vector_identities", lambda pts, den: drawn.append((pts, den)) or True)
    cli._check_vector_identities(0, 3)
    monkeypatch.setattr(cli, "verify_vector_identities", lambda pts, den: (pts, den) != drawn[2] and real(pts, den))


def degenerate_at_sample_3(monkeypatch):
    """Make every draw of sample 3 of seed 0 degenerate, so
    ``FivePointConfig.random`` gives up on it."""
    draws, real = [], pentagon.flat_config

    def record(cfg):
        draws.append(cfg.table)
        raise DegenerateGeometryError("recorded")

    monkeypatch.setattr(pentagon, "flat_config", record)
    with pytest.raises(DegenerateGeometryError):
        pentagon.FivePointConfig.random(geometry.subseed(0, "pentagon", 3))
    assert len(draws) == pentagon.SAMPLE_DRAWS

    def degenerate(cfg):
        if cfg.table in draws:
            raise DegenerateGeometryError("planted degenerate draw")
        return real(cfg)

    monkeypatch.setattr(pentagon, "flat_config", degenerate)


# the failures planted in ``pentagon --seed 0 --samples 5``, with the exit
# code and standard error a serial run gives
PENTAGON_FAILURES = {
    "sample": ((fail_at_sample_3,), 6, "error: pentagon identity failed at sample 3: 0 != 1\n"),
    "configuration": ((fail_at_configuration_2,), 6, "error: vector identities failed at point configuration 2\n"),
    # the vector identities run first
    "both": (
        (fail_at_sample_3, fail_at_configuration_2),
        6,
        "error: vector identities failed at point configuration 2\n",
    ),
    "degenerate": ((degenerate_at_sample_3,), 4, "error: planted degenerate draw\n"),
}


@pytest.mark.parametrize("case", sorted(PENTAGON_FAILURES))
def test_pentagon_failure_is_the_serial_one_on_each_core_count(capsys, monkeypatch, case):
    plants, code, err = PENTAGON_FAILURES[case]
    for plant in plants:
        plant(monkeypatch)
    for cpus in (1, 2):
        use_cpus(monkeypatch, cpus)
        assert run(capsys, ["pentagon", "--seed", "0", "--samples", "5", "--json"]) == (code, "", err), cpus
        assert_no_child_left()


# the reports of ``pentagon --seed N --samples 20 --json`` for N = 0..39,
# concatenated: the verdicts of the closure path and each seed's count of
# nondegenerate configurations, as the Fraction closure check gave them
PENTAGON_SAMPLES_20_SHA256 = "b86b81fe6328413e1b42c8020d5d93ea7717eaf8b75267201540116e934ef8fe"


def test_pentagon_reports_over_40_seeds_pinned(capsys, monkeypatch):
    for cpus in (1, 2):
        use_cpus(monkeypatch, cpus)
        digest = hashlib.sha256()
        for seed in range(40):
            code, out, _ = run(capsys, ["pentagon", "--seed", str(seed), "--samples", "20", "--json"])
            assert code == 0
            digest.update(out.encode())
        assert digest.hexdigest() == PENTAGON_SAMPLES_20_SHA256, cpus
        assert_no_child_left()


# Fractions that ``pentagon --samples 10`` constructs: per sample, the
# solved lambda_ED and the two sides verify_pentagon returns; every
# curvature value is an integer pair
PENTAGON_SAMPLES_10_FRACTIONS = 30
# full curvature calls of the same run, each building a gradient: per
# sample one of the sampler's flat configuration, whose flatness check and
# verify_pentagon read it from the configuration's cache
PENTAGON_SAMPLES_10_GRADIENTS = 10
# value-only curvature calls: per sample one per closure check
PENTAGON_SAMPLES_10_VALUES = 20


def counted(monkeypatch, module, name):
    """Patch ``module.name`` to record the arguments of every call in the
    list returned."""
    calls, real = [], getattr(module, name)

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_pentagon_command_stays_in_integers(capsys, monkeypatch, fractions_made):
    # on one core, since the counters see only this process
    use_cpus(monkeypatch, 1)
    gradients = counted(monkeypatch, pentagon, "curvature")
    values = counted(monkeypatch, pentagon, "curvature_value")
    code, _, _ = run(capsys, ["pentagon", "--samples", "10"])
    assert code == 0
    assert len(fractions_made) == PENTAGON_SAMPLES_10_FRACTIONS
    assert len(gradients) == PENTAGON_SAMPLES_10_GRADIENTS
    assert len(values) == PENTAGON_SAMPLES_10_VALUES


# Fractions that ``invariant --builtin rp3`` constructs: the five minors,
# each once (5); the signed torsion (5); the face product, the power of
# two, the two products that normalize tau and the absolute value (5); and
# the four the report formats.  The geometry, the edge values, the face
# circulations and the curvature of every edge class are integer tables.
INVARIANT_RP3_FRACTIONS = 19


def test_invariant_command_keeps_the_geometry_in_integers(capsys, fractions_made):
    code, _, _ = run(capsys, ["invariant", "--builtin", "rp3"])
    assert code == 0
    assert len(fractions_made) == INVARIANT_RP3_FRACTIONS


def test_pentagon_point_draws_match_fraction_oracle(capsys, monkeypatch):
    # the point sets the command checks are the ones drawn in Fractions;
    # on one core, so that no run forks
    use_cpus(monkeypatch, 1)
    checked = []
    monkeypatch.setattr(cli, "_check_pentagon_samples", lambda seed, samples: None)
    monkeypatch.setattr(cli, "verify_vector_identities", lambda pts, den: checked.append((pts, den)) or True)
    for seed in range(1000):
        checked.clear()
        code, _, _ = run(capsys, ["pentagon", "--seed", str(seed), "--samples", "3"])
        assert code == 0
        drawn = [{k: (Fraction(x, den), Fraction(y, den)) for k, (x, y) in pts.items()} for pts, den in checked]
        assert drawn == fraction_pentagon_points(seed, 3)


def test_pentagon_redraws_degenerate_sample(capsys):
    # the first draw of one of seed 3's samples has a degenerate flatness relation
    code, out, _ = run(capsys, ["pentagon", "--seed", "3", "--json"])
    assert code == 0
    assert json.loads(out)["pentagon_identity"] == "pass"


def test_pachner_command(tmp_path, capsys):
    out_path = tmp_path / "walked.tri"
    code, out, _ = run(
        capsys,
        ["pachner", "--builtin", "rp3", "--steps", "6", "--seed", "2", "--out", str(out_path), "--json"],
    )
    assert code == 0
    walked = load_builtin("rp3").from_file(out_path)
    report = json.loads(out)
    assert report["f_vector_after"] == list(walked.f_vector())


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("name", ["s3", "rp3"])
def test_dump_chain_is_the_chain_invariant_certifies(capsys, monkeypatch, name, seed):
    # both derive the geometry from subseed(seed, "geometry"), in two modules
    chains = []
    real_build_chain = torsion.build_chain
    monkeypatch.setattr(torsion, "build_chain", lambda *a: chains.append(real_build_chain(*a)) or chains[-1])
    torsion.invariant(load_builtin(name), seed)
    assert len(chains) == 1
    code, out, _ = run(capsys, ["dump-chain", "--builtin", name, "--seed", str(seed)])
    assert code == 0
    assert out == pentachain.dump_chain(chains[0])


# every exact entry of f1..f5 for rp3 at geometry seed 1
RP3_SEED1_DUMP_SHA256 = "63c128778c595c2095e52e26fbd189bbaa43313304439f83c201df3fb914c899"


def test_dump_chain_command(capsys):
    code, out, _ = run(capsys, ["dump-chain", "--builtin", "s3", "--seed", "1"])
    assert code == 0
    first = out.splitlines()[0].split()
    assert first[0] in {"f1", "f2", "f4", "f5"}
    assert len(first) == 4
    code, out, _ = run(capsys, ["dump-chain", "--builtin", "rp3", "--seed", "1"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == RP3_SEED1_DUMP_SHA256


# the 100-bit f3 of the T=80 rp3 ladder fixture at geometry seed 0
RP3_T80_SEED0_DUMP_SHA256 = "c07cba0a1386f78e5d31923fff41fe103738b7919c70bb6458c97274c1fbd171"
FIXTURES = Path(__file__).resolve().parents[1] / "benchmarks" / "fixtures"
RP3_T80 = FIXTURES / "rp3_t80.tri"


def test_dump_chain_large_fixture(capsys):
    code, out, _ = run(capsys, ["dump-chain", "--file", str(RP3_T80), "--seed", "0"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == RP3_T80_SEED0_DUMP_SHA256


# whole reports, signed tau of 700-900 bits included, taken at version
# 0.2.0 before the partition pass became one exact elimination per stage
T80_SEED0_INVARIANT_SHA256 = {
    "rp3": "676ad5a9a545a40e62d6e88e866bd8a3bbac20cd7e9b00dfa0a35132bda142d5",
    "s3": "e5353262c9d31e8f18d1c4c14e7f3c87c7eab724a5dd6e4ff14c043deac62bf2",
}


@pytest.mark.parametrize("name", sorted(T80_SEED0_INVARIANT_SHA256))
def test_invariant_large_fixture_report_pinned(capsys, monkeypatch, name):
    # the report names its input as given, so run from the repository root
    monkeypatch.chdir(RP3_T80.parents[2])
    code, out, _ = run(capsys, ["invariant", "--file", f"benchmarks/fixtures/{name}_t80.tri", "--seed", "0", "--json"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == T80_SEED0_INVARIANT_SHA256[name]


# whole reports on every ladder fixture at seed 1, taken before the partition
# pass picked its splitting from both ends
LADDER_SEED1_INVARIANT_SHA256 = {
    "rp3_t20": "7ac98b6c0c016d4e1f4369c4ffa01f202622f027d38dbc387d2ba3e344de80bd",
    "rp3_t40": "0a468cf8cd70d296a26afadaa212812ae2ea0e34484c2378e43371ba42f0e912",
    "rp3_t8": "53c1d7521a2e03ce334db51566ebb0646c4b3f5a0b7e6b690c6b33f44b26471f",
    "rp3_t80": "f6e681c51a65c5e71afc253e2ec18377b02ee9e195cded572ab6a13e1bfe42c4",
    "s3_t20": "d350c341ddb2f39929bc0faa05e8824ba8e3571951482c9191d9e2d8f22c681d",
    "s3_t40": "800165c05fe382ac77724e93b2cc85f1be233b187b2aed4146ebef1e85526004",
    "s3_t8": "aea4bc7eff60fc6bb311ac64c432a8b91d87e909976ac504a72ffffd23fd3f44",
    "s3_t80": "b57fad61e8567a39d9d13097ae04b373750c58a5304269709098469e4d26a13f",
}


@pytest.mark.parametrize("name", sorted(LADDER_SEED1_INVARIANT_SHA256))
def test_ladder_reports_pinned(capsys, monkeypatch, name):
    monkeypatch.chdir(RP3_T80.parents[2])
    code, out, _ = run(capsys, ["invariant", "--file", f"benchmarks/fixtures/{name}.tri", "--seed", "1", "--json"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == LADDER_SEED1_INVARIANT_SHA256[name]


# explicit geometry over 10007 and 65537 on rp3, taken before build_chain
# certified the geometry itself
RP3_LARGE_DENOMINATORS_SHA256 = {
    "dump-chain": "88b5cf1b7af4606003fe7fab3497595fba6d25b36abcabcb218bf413392d3d11",
    "invariant": "a3e4a51f5d611582e82d18b7234f1043d2ff7fd8ba2577b8a651f32b85a7ca65",
}


@pytest.mark.parametrize("command", sorted(RP3_LARGE_DENOMINATORS_SHA256))
def test_explicit_geometry_reports_pinned(tmp_path, capsys, command):
    path = tmp_path / "geometry.txt"
    path.write_text(LARGE_DENOMINATOR_GEOMETRY)
    argv = [command, "--builtin", "rp3", "--geometry", str(path)]
    code, out, _ = run(capsys, argv + ["--json"] if command == "invariant" else argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == RP3_LARGE_DENOMINATORS_SHA256[command]


def test_byte_order_mark_is_not_read_as_text(tmp_path, capsys):
    # a UTF-8 byte order mark, which some editors write first, is neither
    # part of the header line nor of the first vertex line
    bom = b"\xef\xbb\xbf"
    tri_path, geometry_path = tmp_path / "s3_bom.tri", tmp_path / "geometry_bom.txt"
    tri_path.write_bytes(bom + load_builtin("s3").to_text().encode())
    geometry_path.write_bytes(bom + LARGE_DENOMINATOR_GEOMETRY.encode())
    code, out, _ = run(capsys, ["invariant", "--file", str(tri_path)])
    assert code == 0 and "abs_invariant: 1" in out
    code, out, _ = run(capsys, ["invariant", "--builtin", "rp3", "--geometry", str(geometry_path), "--json"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == RP3_LARGE_DENOMINATORS_SHA256["invariant"]


def test_report_with_thousands_of_digits(tmp_path, capsys):
    # 63 distinct 40-bit prime denominators on the T=80 rp3 fixture give a
    # tau of about 11000 digits, past the interpreter's int -> str limit
    path = tmp_path / "geometry.txt"
    path.write_text(prime_denominator_geometry_text(len(Triangulation.from_file(RP3_T80).vertices)))
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, ["invariant", "--file", str(RP3_T80), "--geometry", str(path), "--json"])
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["abs_invariant"] == "64"
    assert len(report["tau"]) > 4300
    assert sys.get_int_max_str_digits() == limit


@pytest.mark.parametrize(
    "flag, value, minimum",
    [
        ("--check-every", "0", 1),
        ("--partition-seeds", "0", 1),
        ("--geometry-seeds", "0", 1),
        ("--samples", "-3", 0),
        ("--walks", "-1", 0),
        ("--steps", "-1", 0),
        ("--chain-seeds", "-1", 0),
        ("--max-tets", "0", 1),
        ("--max-tets", "-5", 1),
    ],
)
def test_verify_rejects_out_of_range_counts(capsys, flag, value, minimum):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--builtin", "s3", flag, value])
    assert exc.value.code == 2
    assert f"argument {flag}: must be at least {minimum}, got {value}" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-5"])
def test_pachner_rejects_out_of_range_max_tets(capsys, value):
    with pytest.raises(SystemExit) as exc:
        cli.main(["pachner", "--builtin", "rp3", "--max-tets", value])
    assert exc.value.code == 2
    assert f"argument --max-tets: must be at least 1, got {value}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag, value",
    [
        (["invariant", "--builtin", "s3"], "--seed", "\u0663"),
        (["invariant", "--builtin", "s3"], "--seed", "-0"),
        (["pentagon"], "--samples", "1_0"),
        (["verify", "--builtin", "s3"], "--steps", "+2"),
        (["pachner", "--builtin", "s3"], "--steps", "+2"),
        (["dump-chain", "--builtin", "s3"], "--seed", " 5"),
    ],
    ids=["arabic-seed", "minus-zero-seed", "underscore-samples", "plus-steps", "plus-pachner-steps", "space-seed"],
)
def test_integer_flag_outside_ascii_digits_exits_usage_error(capsys, argv, flag, value):
    # int() read each of these as the number it stands for
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, flag, value])
    assert exc.value.code == 2
    assert f"argument {flag}: invalid int value: {value!r}" in capsys.readouterr().err


def test_negative_seed_still_runs(capsys):
    code, out, _ = run(capsys, ["invariant", "--builtin", "s3", "--seed", "-3", "--json"])
    assert code == 0
    report = json.loads(out)
    assert (report["seed"], report["abs_invariant"]) == (-3, "1")


@pytest.mark.parametrize("token", ["1e3", "0.5", "1_0"])
def test_geometry_token_outside_p_over_q_exits_parse_error(tmp_path, capsys, token):
    path = tmp_path / "geometry.txt"
    path.write_text(f"vertex 0 {token} 0 0\nvertex 1 1 0 0\nvertex 2 0 1 0\nvertex 3 1 1 0\n")
    code, out, err = run(capsys, ["invariant", "--builtin", "s3", "--geometry", str(path)])
    assert (code, out) == (2, "")
    assert err == f"error: bad geometry line 'vertex 0 {token} 0 0'\n"


def test_geometry_literal_past_the_digit_limit_computes(tmp_path, capsys):
    # a valid line whose denominator has 5000 digits, past the
    # interpreter's int <-> str limit
    path = tmp_path / "geometry.txt"
    path.write_text(f"vertex 0 1/{'7' * 5000} 0 0\nvertex 1 1 0 0\nvertex 2 0 1 0\nvertex 3 1 1 0\n")
    code, out, err = run(capsys, ["invariant", "--builtin", "s3", "--geometry", str(path), "--json"])
    assert (code, err) == (0, "")
    assert json.loads(out)["abs_invariant"] == "1"


@pytest.mark.parametrize("token", [f"1/{'0' * 5000}", f"1/{'7' * 5000}x"], ids=["zero-denominator", "trailing-letter"])
def test_long_invalid_geometry_literal_exits_parse_error(tmp_path, capsys, token):
    path = tmp_path / "geometry.txt"
    path.write_text(f"vertex 0 {token} 0 0\nvertex 1 1 0 0\nvertex 2 0 1 0\nvertex 3 1 1 0\n")
    code, out, err = run(capsys, ["invariant", "--builtin", "s3", "--geometry", str(path)])
    assert (code, out) == (2, "")
    assert err == f"error: bad geometry line 'vertex 0 {token} 0 0'\n"


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("tetrahedra 2\ntet 0: 1:", "tetrahedra \u0662\ntet 0: \u0661:", "bad tetrahedron count"),
        ("tet 0: 1:", "tet 0: \u0661:", "tet 0: bad gluing field '\u0661:0123'"),
        ("tet 0: 1:0123", "tet 0: 1:0\u066123", "tet 0: bad permutation in '1:0\u066123'"),
        ("tetrahedra 2", "tetrahedra 2 junk", "bad tetrahedron count"),
    ],
    ids=["arabic-count-and-neighbor", "arabic-neighbor", "arabic-permutation-digit", "count-then-junk"],
)
def test_tri_integer_outside_ascii_digits_exits_parse_error(tmp_path, capsys, old, new, message):
    # int() read each of these as the s3 digit it stands for
    path = tmp_path / "s3.tri"
    text = load_builtin("s3").to_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))
    assert run(capsys, ["invariant", "--file", str(path), "--json"]) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "vid, meant", [("\u0660", 0), ("0_3", 3), ("+0", 0), ("-0", 0)], ids=["arabic-zero", "underscore", "plus", "minus-zero"]
)
def test_geometry_vertex_id_outside_ascii_digits_exits_parse_error(tmp_path, capsys, vid, meant):
    # int() read the id as vertex class ``meant``, which made a full geometry
    points = {0: "0 0", 1: "1 0", 2: "0 1", 3: "1 1"}
    lines = [f"vertex {vid if v == meant else v} {xy} 0" for v, xy in points.items()]
    path = tmp_path / "geometry.txt"
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, ["invariant", "--builtin", "s3", "--geometry", str(path)])
    assert (code, out) == (2, "")
    assert err == f"error: bad geometry line {lines[meant]!r}\n"


def test_zero_circulation_geometry_exit_code(tmp_path, capsys):
    # vertex classes 0, 1, 2 on a line
    path = tmp_path / "collinear.txt"
    path.write_text("vertex 0 0 0 0\nvertex 1 1 0 0\nvertex 2 2 0 0\nvertex 3 0 1 0\n")
    for command in ("invariant", "dump-chain"):
        code, _, err = run(capsys, [command, "--builtin", "s3", "--geometry", str(path)])
        assert code == 4
        assert "face class 3 (vertices (0, 1, 2)) has zero circulation" in err


# every subcommand option, in declaration order; --help and the top-level
# --version aside
SUBCOMMAND_OPTIONS = {
    "invariant": ["--builtin", "--file", "--seed", "--geometry", "--json"],
    "verify": [
        "--builtin", "--file", "--seed", "--walks", "--steps", "--samples", "--chain-seeds",
        "--partition-seeds", "--geometry-seeds", "--max-tets", "--check-every", "--json",
    ],
    "pachner": ["--builtin", "--file", "--seed", "--steps", "--max-tets", "--out", "--json"],
    "pentagon": ["--seed", "--samples", "--json"],
    "dump-chain": ["--builtin", "--file", "--seed", "--geometry"],
}


def test_subcommand_options_pinned(capsys):
    (subcommands,) = [a for a in cli.build_parser()._actions if a.dest == "subcommand"]
    options = {
        name: [o for action in sub._actions for o in action.option_strings if o not in ("-h", "--help")]
        for name, sub in subcommands.choices.items()
    }
    assert options == SUBCOMMAND_OPTIONS
    assert sum(map(len, options.values())) == 31
    # the sampler's draw bound is a constant, verify takes no geometry and
    # the pentagon suite alone is the pentagon subcommand
    for argv in (
        ["invariant", "--builtin", "s3", "--retries", "5"],
        ["verify", "--builtin", "s3", "--retries", "5"],
        ["dump-chain", "--builtin", "s3", "--retries", "5"],
        ["verify", "--builtin", "s3", "--pentagon-only"],
        # a prefix of --geometry-seeds, so it must not be read as one
        ["verify", "--builtin", "s3", "--geometry", "5"],
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[3:])}" in capsys.readouterr().err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        cli.main(["invariant"])
    assert exc.value.code == 2


def test_parser_is_built_once_and_reused(capsys):
    """``main`` reuses one parser: a repeated call prints the same report,
    and a usage error after a good call still exits 2 with argparse's
    message, its choices read from ``BUILTIN_NAMES``."""
    argv = ["invariant", "--builtin", "rp3", "--json"]
    first, second = run(capsys, argv), run(capsys, argv)
    assert first == second and first[0] == 0
    assert cli.build_parser() is cli.build_parser()
    with pytest.raises(SystemExit) as exc:
        cli.main(["invariant", "--builtin", "k3"])
    assert exc.value.code == 2
    assert "argument --builtin: invalid choice: 'k3' (choose from 's3', 'rp3')" in capsys.readouterr().err


# the whole report of a 60-step rp3 walk, taken before the quotient classes
# were built by orbit traversal; re-pinned at version 0.2.0, the version
# line being the report's only change
RP3_SEED7_WALK_SHA256 = "81457d03bc2bd7eee03bc421d40273f61a24cccdaf696b8b311db220ffe4076a"


def test_pachner_walk_report_pinned(capsys):
    code, out, _ = run(
        capsys,
        ["pachner", "--builtin", "rp3", "--seed", "7", "--steps", "60", "--max-tets", "20", "--json"],
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == RP3_SEED7_WALK_SHA256


def test_walk_invariance_failure_carries_replayable_state(capsys, monkeypatch):
    real = cli.invariant
    inputs, states = [], []

    def wrong_on_second_walk_state(tri, **kwargs):
        result = real(tri, **kwargs)
        if not inputs:
            inputs.append(tri)
        elif tri is not inputs[0]:
            states.append(tri)
            if len(states) == 2:
                return replace(result, abs_invariant=result.abs_invariant + 1)
        return result

    monkeypatch.setattr(cli, "invariant", wrong_on_second_walk_state)
    code, _, err = run(
        capsys,
        ["verify", "--builtin", "s3", "--samples", "0", "--chain-seeds", "0",
         "--partition-seeds", "1", "--geometry-seeds", "1", "--walks", "1",
         "--steps", "4", "--check-every", "1"],
    )
    assert code == 6
    assert "invariant changed along walk 0" in err and "at step 2" in err
    replayed = Triangulation.from_text(err[err.index(FILE_MAGIC):])
    assert replayed.f_vector() == states[-1].f_vector()
    assert replayed.tets == states[-1].tets


# tokens that a mutation puts in place of a field of a .tri file
MUTANT_TOKENS = (
    "0", "1", "2", "7", "-1", "-0", "+1", "00", "٠", "١", "²", "0_1", "x", "",
    "0123", "1032", "3210", "0120", "01234", "0١23", "99999999999999999999", "tet", "tetrahedra", ":", "#",
)


def mutate(text: str, rng) -> str:
    """One seeded token mutation of ``text``, the tokens being its runs of
    characters other than whitespace and ':': replace a token (by a mutant
    token or another token of the text), delete or double one, or drop a
    line."""
    spans = [m.span() for m in re.finditer(r"[^\s:]+", text)]
    start, end = rng.choice(spans)
    op = rng.randrange(5)
    if op == 0:
        new = rng.choice(MUTANT_TOKENS)
    elif op == 1:
        new = text[slice(*rng.choice(spans))]
    elif op == 2:
        new = ""
    elif op == 3:
        new = text[start:end] * 2
    else:
        lines = text.splitlines(keepends=True)
        del lines[rng.randrange(len(lines))]
        return "".join(lines)
    return text[:start] + new + text[end:]


def test_token_mutations_exit_with_stable_codes(tmp_path, capsys):
    """Seeded token mutations of three inputs through the three commands
    that read a .tri file: each run exits 0, 2 (parse), 3 (validation), 4
    (degenerate geometry) or 5 (not acyclic), and a failure prints one
    error line and no traceback."""
    sources = [load_builtin("s3").to_text(), load_builtin("rp3").to_text(), (FIXTURES / "rp3_t8.tri").read_text()]
    commands = (["invariant", "--json"], ["pachner", "--steps", "5", "--json"], ["dump-chain"])
    path = tmp_path / "mutant.tri"
    codes = []
    for i in range(300):
        rng = random.Random(i)
        text = sources[i % 3]
        for _ in range(rng.randint(1, 2)):
            text = mutate(text, rng)
        path.write_text(text)
        command, *flags = commands[i // 3 % 3]
        code, out, err = run(capsys, [command, "--file", str(path), *flags])
        codes.append(code)
        assert code in (0, 2, 3, 4, 5), (i, code, err)
        assert (err == "") if code == 0 else (err.startswith("error: ") and not out), (i, err)
        assert "Traceback" not in err
    # the mutations reach past the parser
    assert {0, 2, 3} <= set(codes)
