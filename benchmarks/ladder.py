"""Seeded ladder of grown triangulations used as benchmark fixtures.

Each rung grows a builtin (``s3`` or ``rp3``) by seeded 1->4 and 2->3 moves
only, through the public ``enumerate_sites``/``apply_move``.  A move whose
result has an edge class joining a vertex class to itself is discarded and
another one drawn, so every rung keeps a solvable geometry sampler.  The
rungs are snapshots of one growth per builtin at T = 8, 20, 40 and 80
tetrahedra (``rp3`` starts at T = 8, so its first rung is the builtin).

Usage (from the repository root):

    PYTHONPATH=src python3 benchmarks/ladder.py --write   # regenerate fixtures
    PYTHONPATH=src python3 benchmarks/ladder.py --check   # byte-identical?

Growth seed 1 gives ``rp3`` at T = 80 the f-vector (21, 101, 160, 80).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
FIXTURE_DIR = HERE / "fixtures"
MANIFEST = FIXTURE_DIR / "manifest.json"

RUNGS = (8, 20, 40, 80)
GROWTH_SEED = 1
# |inv| of the builtin a rung was grown from; moves do not change it
ABS_INVARIANT = {"s3": "1", "rp3": "64"}


def has_loop_edge(tri) -> bool:
    return any(e.tail == e.head for e in tri.edges)


def grow(tri, targets, seed: int):
    """Snapshots of one seeded growth at each target size, in order.

    A move kind is drawn uniformly from 1->4 and 2->3 (2->3 alone when a
    1->4 would overshoot the target), then a site uniformly among
    ``enumerate_sites``; results with a loop edge are discarded.
    """
    from pentachain import apply_move, enumerate_sites

    rng = random.Random(seed)
    out = []
    for target in targets:
        while tri.size < target:
            kinds = ("1->4", "2->3") if target - tri.size >= 3 else ("2->3",)
            kind = rng.choice(kinds)
            grown = apply_move(tri, rng.choice(enumerate_sites(tri, kind)))
            if not has_loop_edge(grown):
                tri = grown
        out.append(tri)
    return out


def ladder_texts(seed: int = GROWTH_SEED) -> dict[str, str]:
    """File name -> ``.tri`` text for every rung of both builtins."""
    from pentachain import load_builtin

    texts = {}
    for base in ABS_INVARIANT:
        for target, tri in zip(RUNGS, grow(load_builtin(base), RUNGS, seed)):
            if has_loop_edge(tri):
                raise AssertionError(f"{base} rung T={target} has a loop edge")
            header = (
                f"# {base} grown to T={tri.size} by seeded 1->4 and 2->3 moves "
                f"(growth seed {seed}, f-vector {tri.f_vector()}).\n"
                "# Generated by benchmarks/ladder.py --write; do not edit.\n"
            )
            texts[f"{base}_t{target}.tri"] = header + tri.to_text()
    return texts


def manifest_for(texts: dict[str, str]) -> dict:
    from pentachain import Triangulation

    entries = {}
    for name, text in sorted(texts.items()):
        tri = Triangulation.from_text(text)
        base = name.split("_", 1)[0]
        entries[name] = {
            "base": base,
            "tetrahedra": tri.size,
            "f_vector": list(tri.f_vector()),
            "abs_invariant": ABS_INVARIANT[base],
            "sha256": hashlib.sha256(text.encode()).hexdigest(),
        }
    return {"growth_seed": GROWTH_SEED, "fixtures": entries}


def render_manifest(texts: dict[str, str]) -> str:
    return json.dumps(manifest_for(texts), indent=2, sort_keys=True) + "\n"


def stale_files(texts: dict[str, str]) -> list[str]:
    """Committed files that differ from a fresh generation (or are missing)."""
    wanted = dict(texts)
    wanted[MANIFEST.name] = render_manifest(texts)
    stale = []
    for name, text in sorted(wanted.items()):
        path = FIXTURE_DIR / name
        if not path.is_file() or path.read_bytes() != text.encode():
            stale.append(name)
    return stale


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--write", action="store_true", help="regenerate the fixtures")
    action.add_argument("--check", action="store_true", help="compare with the committed files")
    args = parser.parse_args(argv)
    texts = ladder_texts()
    if args.write:
        FIXTURE_DIR.mkdir(exist_ok=True)
        for name, text in texts.items():
            (FIXTURE_DIR / name).write_text(text)
        MANIFEST.write_text(render_manifest(texts))
        print(f"wrote {len(texts)} fixtures and {MANIFEST.name} to {FIXTURE_DIR}")
        return 0
    stale = stale_files(texts)
    if stale:
        print(f"fixtures differ from a fresh generation: {', '.join(stale)}", file=sys.stderr)
        return 1
    print(f"{len(texts)} fixtures and {MANIFEST.name} are byte-identical to a fresh generation")
    return 0


if __name__ == "__main__":
    sys.exit(main())
