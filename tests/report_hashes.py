"""Print a sha256 of each report in a fixed set, one ``sha256  argv`` line
per report, for a byte-identity check between two versions of the code.

``tests/report_hashes.txt`` holds the output at the current version, and
the tier-1 test ``test_report_hashes`` recomputes every line and names
the first that differs, so every report stays byte-identical.  A
deliberate report change, such as a version bump, regenerates the file
with ``python tests/report_hashes.py > tests/report_hashes.txt`` and is
recorded in CHANGES.md.  Every report is produced in process by
``cli.main`` and hashed from its standard output; a nonzero exit code is
appended to its line.  The set:

* ``invariant --json`` and ``dump-chain`` on s3, rp3 and the ladder
  fixtures under ``benchmarks/fixtures``, at seeds 0-2;
* ``verify --json`` and ``pachner --json --steps 30`` on s3 and rp3 at
  seeds 0-2;
* ``verify --json`` on the fixtures s3_t8, rp3_t8, s3_t20 and rp3_t20 at
  seed 0;
* ``pentagon --json`` at seeds 0-9;
* the tau and invariant that ``torsion.invariant`` gives on the hard
  inputs s3', rp3', L(7,2)' and s3'', built by ``reference.subdivided``,
  at seeds 0-2, each printed by ``format_rational`` and hashed as
  ``tau invariant``; these lines are labeled ``invariant <input> --seed
  <seed>`` (no CLI command builds these inputs).

The script runs from the checkout's root and passes fixture paths
relative to it, since an ``invariant`` report names its input as given,
so the output does not depend on where the checkout lives.  pytest does
not collect this file (its name does not start with ``test_``).

``python tests/report_hashes.py --hard`` prints, instead, the same tau
and invariant lines for the slow inputs rp3'' at seeds 0-2 and s3''' at
seed 1, outside tier-1 (29 s and 341 MB peak RSS on a 2-core x86_64
host).  Its output at the current version is
``tests/report_hashes_hard.txt``; a change to the exact kernels reruns
it and compares.
"""

import argparse
import contextlib
import hashlib
import io
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from pentachain import cli, invariant  # noqa: E402
from pentachain.exact import format_rational  # noqa: E402
from reference import subdivided  # noqa: E402

FIXTURES = sorted((ROOT / "benchmarks" / "fixtures").glob("*.tri"))
BUILTINS = [["--builtin", "s3"], ["--builtin", "rp3"]]
INPUTS = BUILTINS + [["--file", str(path.relative_to(ROOT))] for path in FIXTURES]
SEEDS = ("0", "1", "2")
VERIFIED_FIXTURES = ("s3_t8", "rp3_t8", "s3_t20", "rp3_t20")
HARD_INPUTS = ("s3'", "rp3'", "L(7,2)'", "s3''")
SLOW_INPUTS = (("rp3''", SEEDS), ("s3'''", ("1",)))


def report_set() -> list[list[str]]:
    """The argv of every report, in print order."""
    out = []
    for source in INPUTS:
        for seed in SEEDS:
            out.append(["invariant", *source, "--seed", seed, "--json"])
            out.append(["dump-chain", *source, "--seed", seed])
    for source in BUILTINS:
        for seed in SEEDS:
            out.append(["verify", *source, "--seed", seed, "--json"])
            out.append(["pachner", *source, "--seed", seed, "--steps", "30", "--json"])
    for name in VERIFIED_FIXTURES:
        out.append(["verify", "--file", f"benchmarks/fixtures/{name}.tri", "--seed", "0", "--json"])
    for seed in range(10):
        out.append(["pentagon", "--seed", str(seed), "--json"])
    return out


def report_hash(argv: list[str]) -> str:
    """``sha256  argv`` of one report, with its exit code when nonzero."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    line = f"{hashlib.sha256(stdout.getvalue().encode()).hexdigest()}  {' '.join(argv)}"
    return line if code == 0 else f"{line}  exit {code}"


def hard_input_hashes(name: str, seeds=SEEDS) -> list[str]:
    """``sha256  invariant <name> --seed <seed>`` of each seed's tau and
    invariant on a subdivided input."""
    tri = subdivided(name)
    out = []
    for seed in seeds:
        r = invariant(tri, seed=int(seed))
        text = f"{format_rational(r.tau)} {format_rational(r.invariant)}\n"
        out.append(f"{hashlib.sha256(text.encode()).hexdigest()}  invariant {name} --seed {seed}")
    return out


def report_lines():
    """Every line of the output, in print order; run from the checkout's
    root."""
    for argv in report_set():
        yield report_hash(argv)
    for name in HARD_INPUTS:
        yield from hard_input_hashes(name)


def slow_lines():
    """The ``--hard`` output: hard-input lines on the slow inputs."""
    for name, seeds in SLOW_INPUTS:
        yield from hard_input_hashes(name, seeds)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Print one sha256 line per report.")
    parser.add_argument("--hard", action="store_true", help="hash the slow inputs rp3'' and s3''' instead")
    lines = slow_lines() if parser.parse_args().hard else report_lines()
    os.chdir(ROOT)
    for line in lines:
        print(line, flush=True)
